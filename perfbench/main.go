// Command perfbench is the repository benchmark. It drives the recompiler
// only through its public entry points (workloads, core.Project, vm,
// baselines and an in-process serve.Server over loopback HTTP), checks
// every output, and prints every metric by name and unit. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
//	perfbench --workload guest-run|pipeline|daemon-mix|verdict \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it makes an untraced and then a traced run, each for half the
// time, and reports the per-layer metrics of the traced one: the
// benchmark's own spans around each public call, VM counters, core.Stats
// and the daemon's /metrics, with each layer's self time. Run it from the
// repository root; perfbench/run.sh builds and runs it there.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// untracedSetups is how many times an untraced run sets up at least;
// setup_s is the median.
const untracedSetups = 3

// env is what one run of a workload gets from the command line.
type env struct {
	seed    int64
	seconds float64 // timed-phase length; whole passes may overrun it
	setups  int     // set-up repetitions (setup_s is their median)
	tiny    bool    // smoke-test sizes; only the tests set it
}

// result is what one run of a workload measured.
type result struct {
	setup     []time.Duration
	attempted int
	failed    int
	// metrics holds every metric the run measured, end-to-end and
	// per-layer alike; the caller picks the ones its mode reports.
	metrics map[string]float64
	// outputs maps a recompiled program to the digests of the bytes it
	// was recompiled to in this run (core.output_variants).
	outputs map[string]map[string]bool
	notes   []string
	pace    *pace
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, outputs: map[string]map[string]bool{}, pace: newPace()}
}

// failf counts one failed operation and says why.
func (r *result) failf(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, "FAIL "+fmt.Sprintf(format, args...))
}

// output records the digest of one recompiled image of program key.
func (r *result) output(key string, data []byte) {
	sum := sha256.Sum256(data)
	if r.outputs[key] == nil {
		r.outputs[key] = map[string]bool{}
	}
	r.outputs[key][hex.EncodeToString(sum[:])] = true
}

// workload is one benchmark workload: run sets up env.setups times, then
// runs the timed phase for env.seconds, then checks every output.
type workload struct {
	name string
	run  func(e *env, rec *recorder) (*result, error)
}

var workloadList = []workload{
	{"guest-run", runGuest},
	{"pipeline", runPipeline},
	{"daemon-mix", runDaemon},
	{"verdict", runVerdict},
}

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "guest-run, pipeline, daemon-mix or verdict")
	seed := fl.Int64("seed", 1, "workload seed: fixes job order and the daemon request plan")
	seconds := fl.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1: untraced then traced run, report per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n",
			*name, *trace, *seconds)
		return 2
	}
	printHeader(stdout, w.name, *seed, *seconds, *trace)
	e := &env{seed: *seed, seconds: *seconds, setups: untracedSetups}
	out, err := measure(w, e, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	line, err := json.Marshal(out.json)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// findWorkload returns the workload called name, or nil.
func findWorkload(name string) *workload {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i]
		}
	}
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type output struct {
	json  resultJSON
	notes []string
}

// measure runs w once untraced, or in trace mode once untraced and once
// traced (half the time each), and assembles the reported metrics.
func measure(w *workload, e *env, trace bool) (*output, error) {
	if !trace {
		r, err := w.run(e, nil)
		if err != nil {
			return nil, err
		}
		raw := median(secs(r.setup))
		r.metrics["setup_s"] = raw * r.pace.factor()
		r.notes = append(r.notes, fmt.Sprintf("unpaced setup_s=%.6g (%d set-ups)", raw, len(r.setup)))
		return assemble(endToEnd, r.attempted, r.failed, r.metrics, r.notes)
	}
	half := *e
	half.seconds = e.seconds / 2
	half.setups = 1
	plain, err := w.run(&half, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := w.run(&half, rec)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0 // a bypassed layer reads 0
	}
	for k, v := range traced.metrics {
		m[k] = v
	}
	// The workload-named end-to-end figures come from the untraced run.
	for _, k := range []string{"jobs_per_s", "pipeline_p50_ms", "pipeline_p90_ms", "cold_job_p50_ms",
		"cold_job_p90_ms", "warm_job_p50_ms", "warm_job_p90_ms", "verdict_s"} {
		if v, ok := plain.metrics[k]; ok {
			m[k] = v
		}
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	m["error_ratio"] = float64(failed) / float64(max(attempted, 1))
	if a, b := plain.metrics["jobs_per_s"], traced.metrics["jobs_per_s"]; a > 0 && b > 0 {
		m["trace_overhead_pct"] = (a/b - 1) * 100
	}
	m["core.output_variants"] = float64(variants(plain.outputs, traced.outputs))
	notes := append(plain.notes, traced.notes...)
	return assemble(perLayer, attempted, failed, m, notes)
}

// variants counts programs recompiled to more than one distinct image
// across the given runs.
func variants(runs ...map[string]map[string]bool) int {
	all := map[string]map[string]bool{}
	for _, r := range runs {
		for k, ds := range r {
			if all[k] == nil {
				all[k] = map[string]bool{}
			}
			for d := range ds {
				all[k][d] = true
			}
		}
	}
	n := 0
	for _, ds := range all {
		if len(ds) > 1 {
			n++
		}
	}
	return n
}

// assemble checks that every declared metric was measured and renders the
// result, one human-readable line per metric first.
func assemble(defs []metricDef, attempted, failed int, m map[string]float64, notes []string) (*output, error) {
	if attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	o := &output{json: resultJSON{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricJSON{}}}
	o.notes = append(o.notes, notes...)
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		o.json.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		o.notes = append(o.notes, fmt.Sprintf("metric %-26s %14.6g %-8s (%s is better)", d.name, v, d.unit, d.better))
	}
	o.notes = append(o.notes, fmt.Sprintf("operations attempted %d failed %d", attempted, failed))
	return o, nil
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// printHeader writes the run header: where the numbers come from.
func printHeader(w io.Writer, name string, seed int64, seconds float64, trace int) {
	host, _ := os.Hostname() // empty on error; the header still prints
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", name, seed, seconds, trace)
	fmt.Fprintf(w, "# host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s source_sha256=%s\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceDigest("."))
}

// commit is the VCS revision stamped into the binary, if it was built in
// a checkout that had one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the program's Go sources under root (go.mod,
// cmd/, internal/), naming the code measured even where no VCS revision
// is available.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "none"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
