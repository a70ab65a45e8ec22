package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/image"
)

// pipeRec collects BENCH_pipeline.json; TestMain flushes it.
var pipeRec = NewRecorder("BENCH_pipeline.json")

// pipeBenchSrc builds the pipeline benchmark workload: nDirect statically
// reachable worker functions (real lift/optimize load for the full-recompile
// paths) plus nHandlers address-taken handlers dispatched through a function
// pointer table — each handler is unknown statically, so an input of k
// distinct letters drives k additive-lifting loops.
func pipeBenchSrc(nDirect, nHandlers int) string {
	var b strings.Builder
	b.WriteString("extern input_byte;\n")
	for i := 0; i < nDirect; i++ {
		fmt.Fprintf(&b,
			"func w%d(x) { var i; var s = x + %d; var t = x * %d; for (i = 0; i < 12; i = i + 1) { s = s + i * %d; t = t + s / 3; s = s - t / 5 + (s - i) * 2; } return s + t; }\n",
			i, i, i+2, i+1)
	}
	for i := 0; i < nHandlers; i++ {
		fmt.Fprintf(&b,
			"func h%d(x) { var i; var s = x + %d; for (i = 0; i < 6; i = i + 1) { s = s * 3 - i; } return s; }\n",
			i, i)
	}
	fmt.Fprintf(&b, "var table[%d];\n", nHandlers)
	// The direct workload lives in compute(), whose fingerprint never
	// changes across additive loops — main, which owns the missing dispatch
	// site and re-lifts every loop, stays small.
	b.WriteString("func compute() {\n\tvar sum = 0;\n")
	for i := 0; i < nDirect; i++ {
		fmt.Fprintf(&b, "\tsum = sum + w%d(%d);\n", i, i)
	}
	b.WriteString("\treturn sum;\n}\n")
	b.WriteString("func main() {\n")
	for i := 0; i < nHandlers; i++ {
		fmt.Fprintf(&b, "\tstore64(table + %d, h%d);\n", i*8, i)
	}
	b.WriteString(`	var sum = compute();
	var c = input_byte();
	while (c != -1) {
		var f = load64(table + (c - 'a') * 8);
		sum = sum + f(c);
		c = input_byte();
	}
	return sum % 256;
}`)
	return b.String()
}

func pipeBenchImage(tb testing.TB) *image.Image {
	tb.Helper()
	img, _, err := cc.Compile(pipeBenchSrc(32, 12), cc.Config{Name: "pipebench", Opt: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// pipeMode is one pipeline configuration under benchmark. "serial" is the
// historical baseline (-jpipe 1, function cache off); "parallel" fans out
// to -jpipe NumCPU, cold; "cached" adds the content-addressed function
// cache.
type pipeMode struct {
	name    string
	workers int  // core.Options.Workers (0 = NumCPU)
	cache   bool // content-addressed function cache on
}

var pipeModes = []pipeMode{
	{"serial", 1, false},
	{"parallel", 0, false}, // fan-out only; every iteration lifts cold
	{"cached", 0, true},
}

func (m pipeMode) options() core.Options {
	o := core.DefaultOptions()
	o.Workers = m.workers
	o.NoFuncCache = !m.cache
	return o
}

// row starts the mode's BENCH_pipeline.json row for the named benchmark.
func (m pipeMode) row(h *Harness, name string) Row {
	workers := m.workers
	if workers == 0 {
		workers = h.PipelineWorkers()
	}
	return Row{
		Layer:  "pipeline",
		Name:   name,
		Params: map[string]string{"mode": m.name, "workers": strconv.Itoa(workers)},
	}
}

// pipeDet is the deterministic part of a pipeline row.
func pipeDet(p *core.Project, recompiles int) map[string]int64 {
	det := map[string]int64{
		"funcs":        int64(p.Stats.Funcs),
		"cache_hits":   int64(p.Stats.CacheHits),
		"cache_misses": int64(p.Stats.CacheMisses),
	}
	if recompiles > 0 {
		det["recompiles"] = int64(recompiles)
	}
	return det
}

// BenchmarkRecompile measures one full Recompile under each pipeline mode:
// serial (-jpipe 1, cache off), parallel (-jpipe NumCPU, cold), and
// cache-warm (every function replayed from the content-addressed cache).
// The parallel and cached gains over serial, read as ratios of the
// BENCH_pipeline.json medians, are the headline numbers.
func BenchmarkRecompile(b *testing.B) {
	img := pipeBenchImage(b)
	h := NewHarness(0)
	for _, mode := range pipeModes {
		b.Run(mode.name, func(b *testing.B) {
			p, err := core.NewProject(img, mode.options())
			if err != nil {
				b.Fatal(err)
			}
			if mode.cache {
				// Warm the cache outside the timed region.
				if _, err := p.Recompile(); err != nil {
					b.Fatal(err)
				}
			}
			samples := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := p.Recompile(); err != nil {
					b.Fatal(err)
				}
				samples[i] = time.Since(start)
			}
			row := mode.row(h, "Recompile")
			row.Det = pipeDet(p, 0)
			pipeRec.Add(row.Timed(samples))
		})
	}
}

// BenchmarkAdditiveLoop measures a full additive-lifting session — twelve
// statically unknown handlers, so twelve miss→integrate→recompile loops —
// under the serial full-recompile baseline and the cached incremental
// pipeline. This is the ISSUE's headline comparison: the incremental loop
// re-lifts only what each discovery touched, so its speedup over serial
// full-recompiles must be large (>= 2x is the acceptance bar).
func BenchmarkAdditiveLoop(b *testing.B) {
	img := pipeBenchImage(b)
	h := NewHarness(0)
	in := core.Input{Data: []byte("abcdefghijkl"), Seed: 1}
	for _, mode := range []pipeMode{{"serial", 1, false}, {"cached", 0, true}} {
		b.Run(mode.name, func(b *testing.B) {
			var last *core.Project
			var recompiles int
			samples := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				// The additive loop mutates the CFG, so every iteration
				// starts from a fresh project (disasm included, both modes).
				p, err := core.NewProject(img, mode.options())
				if err != nil {
					b.Fatal(err)
				}
				res, err := p.RunAdditive(in, 32)
				if err != nil {
					b.Fatal(err)
				}
				samples[i] = time.Since(start)
				last, recompiles = p, res.Recompiles
			}
			row := mode.row(h, "AdditiveLoop")
			row.Det = pipeDet(last, recompiles)
			pipeRec.Add(row.Timed(samples))
		})
	}
}

// TestMain writes BENCH_pipeline.json and BENCH_obs.json when their
// benchmarks ran (the files land in this package directory, the test
// binary's working directory). Plain `go test` runs write nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, rec := range []*Recorder{pipeRec, obsRec} {
		if err := rec.Flush(); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			code = max(code, 1)
		}
	}
	os.Exit(code)
}
