package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// checkRecord holds a decoded record to the writer's contract: a stamped
// Go version, rows in strictly increasing writer order (one row per
// configuration), and a consistent summary on every timed row.
func checkRecord(t *testing.T, path string, rec Record) {
	t.Helper()
	if rec.GoVersion == "" {
		t.Errorf("%s: empty go_version", path)
	}
	if len(rec.Rows) == 0 {
		t.Errorf("%s: no rows", path)
	}
	for i, r := range rec.Rows {
		if i > 0 && rec.Rows[i-1].key() >= r.key() {
			t.Errorf("%s: row %d (%s %v) out of writer order", path, i, r.Name, r.Params)
		}
		if r.Unit == "" {
			if r.N != 0 || len(r.Det) == 0 {
				t.Errorf("%s: untimed row %d (%s %v) has n=%d, det=%v", path, i, r.Name, r.Params, r.N, r.Det)
			}
			continue
		}
		if r.N < 1 || r.Min > r.Median || r.Median > r.Max {
			t.Errorf("%s: timed row %d (%s %v): n=%d min=%g median=%g max=%g",
				path, i, r.Name, r.Params, r.N, r.Min, r.Median, r.Max)
		}
	}
}

// TestCommittedRecords decodes every committed BENCH_*.json strictly into
// the one record schema.
func TestCommittedRecords(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("committed records = %v, want BENCH_{obs,pipeline,vm,xisa}.json", paths)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		var rec Record
		err = dec.Decode(&rec)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		checkRecord(t, path, rec)
	}
}

// TestWriteRecord covers the sample summary, the stamped header, writer
// order, and the recorder's last-row-per-configuration rule.
func TestWriteRecord(t *testing.T) {
	ms := func(ds ...int) []time.Duration {
		out := make([]time.Duration, len(ds))
		for i, d := range ds {
			out[i] = time.Duration(d) * time.Millisecond
		}
		return out
	}
	odd := Row{Layer: "vm", Name: "B"}.Timed(ms(30, 10, 20))
	if odd.Unit != "s" || odd.N != 3 || odd.Min != 0.01 || odd.Median != 0.02 || odd.Max != 0.03 {
		t.Fatalf("odd summary = %+v", odd)
	}
	even := Row{Layer: "vm", Name: "A"}.Timed(ms(40, 10, 20, 30))
	if even.N != 4 || even.Median != 0.025 || even.Min != 0.01 || even.Max != 0.04 {
		t.Fatalf("even summary = %+v", even)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	r := NewRecorder(path)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("empty recorder wrote %s (stat err %v)", path, err)
	}
	untimed := Row{Layer: "xisa", Name: "w", Params: map[string]string{"target": "mx64"}, Det: map[string]int64{"fences": 0}}
	stale := Row{Layer: "vm", Name: "B", Params: map[string]string{"variant": "x"}}.Timed(ms(99))
	for _, row := range []Row{untimed, stale, odd, even} {
		r.Add(row)
	}
	r.Add(Row{Layer: "vm", Name: "B", Params: map[string]string{"variant": "x"}}.Timed(ms(5)))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	checkRecord(t, path, rec)
	if rec.Commit == "" || rec.GOMAXPROCS < 1 {
		t.Errorf("header not stamped: %+v", rec)
	}
	var got []string
	for _, row := range rec.Rows {
		got = append(got, row.Layer+"/"+row.Name+"/"+row.Params["variant"]+row.Params["target"])
	}
	want := []string{"vm/A/", "vm/B/", "vm/B/x", "xisa/w/mx64"}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
	if rec.Rows[2].Median != 0.005 {
		t.Errorf("recorder kept %+v, want the last row per configuration", rec.Rows[2])
	}
}
