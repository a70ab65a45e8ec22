package main

import (
	"bytes"
	"strings"
	"testing"
)

// runTiny measures one workload at smoke-test size, with one set-up and a
// timed phase of one pass.
func runTiny(t *testing.T, name string, trace bool) resultJSON {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	out, err := measure(findWorkload(name), &env{seed: 5, seconds: 0.01, setups: 1, tiny: true}, trace)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	r := out.json
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v attempted=%d failed=%d\n%s", name, trace,
			r.Correct, r.Attempted, r.Failed, strings.Join(out.notes, "\n"))
	}
	return r
}

func TestHeaderSaysWhereTheNumbersCameFrom(t *testing.T) {
	var out bytes.Buffer
	printHeader(&out, "verdict", 5, 10, 0)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "# perfbench workload=verdict seed=5") {
		t.Fatalf("header:\n%s", out.String())
	}
	for _, k := range []string{"host=", "nproc=", "GOMAXPROCS=", "go=", "commit=", "source_sha256="} {
		if !strings.Contains(lines[1], k) {
			t.Errorf("header lacks %s:\n%s", k, out.String())
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			r := runTiny(t, w.name, false)
			for _, d := range endToEnd {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("%s: %s = %+v (present %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
				}
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(r.Metrics), len(endToEnd))
			}
		})
	}
}

func TestSmokeTracedReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	r := runTiny(t, "daemon-mix", true)
	if len(r.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	for _, name := range []string{"serve.job_ms.cold", "store.disk.hit_ratio", "self_pct.serve", "cold_job_p50_ms"} {
		if !(r.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0 on daemon-mix", name, r.Metrics[name].Value)
		}
	}
}

// TestVerdictMatrixIsTable1 pins the expected ckit rows of Table 1.
func TestVerdictMatrixIsTable1(t *testing.T) {
	want := map[string]int{"polynima": 11, "lasagne": 0, "mcsema": 7, "binrec": 0}
	for _, rc := range recompilers {
		ok := 0
		for _, w := range verdictLocks(false) {
			if expectVerdict(rc, w.Name) {
				ok++
			}
		}
		if ok != want[rc] {
			t.Errorf("%s: %d/11 ok expected, Table 1 says %d", rc, ok, want[rc])
		}
	}
}

// TestWrongVerdictFails runs a real cell and checks that the verdict the
// pinned matrix expects passes and the opposite one fails the run.
func TestWrongVerdictFails(t *testing.T) {
	w := verdictLocks(true)[0]
	img, err := w.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	c := &verdictCell{w: w, img: img, recompiler: "mcsema"}
	st := c.run(nil, -1, newTally())
	r := newResult()
	judge(r, c, st)
	if r.failed != 0 {
		t.Fatalf("expected verdict counted as failed: %v", r.notes)
	}
	st.ok = !st.ok
	judge(r, c, st)
	if r.failed != 1 {
		t.Fatalf("wrong verdict not counted as failed")
	}
}

// TestFailedCheckFails checks that a guest run whose result Workload.Check
// rejects counts as a failed operation.
func TestFailedCheckFails(t *testing.T) {
	w := *verdictLocks(true)[0]
	img, err := w.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	if _, ok := checkedRun(r, "good", &w, img, guestFuel, nil, -1, false); !ok || r.failed != 0 {
		t.Fatalf("clean run failed: %v", r.notes)
	}
	w.WantExit++
	if _, ok := checkedRun(r, "bad", &w, img, guestFuel, nil, -1, false); ok || r.failed != 1 {
		t.Fatalf("wrong exit code passed the check")
	}
	if r.attempted != 2 {
		t.Fatalf("%d attempted after two checked runs, want 2", r.attempted)
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "verdict", "--trace", "2"},
		{"--workload", "verdict", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := mainErr(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
