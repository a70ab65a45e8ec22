package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// obsRec collects BENCH_obs.json; TestMain (pipebench_test.go) flushes it.
// The guest-execution side of the observability differential, the step
// loop with machine counters on, is BENCH_vm.json's "counters" row.
var obsRec = NewRecorder("BENCH_obs.json")

// BenchmarkObsRecompile is the observability differential for the pipeline:
// a full cold recompile (function cache off, so every function lifts and
// optimizes) with span tracing off and on. Each iteration builds a fresh
// project — and, when instrumented, a fresh tracer — so both variants do
// identical work and the tracer cost includes event buffering.
func BenchmarkObsRecompile(b *testing.B) {
	img := pipeBenchImage(b)
	for _, variant := range []struct {
		name  string
		spans bool
	}{{"off", false}, {"on", true}} {
		b.Run(variant.name, func(b *testing.B) {
			samples := make([]time.Duration, b.N)
			var funcs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				o := core.DefaultOptions()
				o.NoFuncCache = true
				if variant.spans {
					o.Obs = obs.New()
				}
				p, err := core.NewProject(img, o)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Recompile(); err != nil {
					b.Fatal(err)
				}
				samples[i] = time.Since(start)
				if variant.spans && o.Obs.OpenSpans() != 0 {
					b.Fatalf("unbalanced spans: %d still open", o.Obs.OpenSpans())
				}
				funcs = p.Stats.Funcs
			}
			obsRec.Add(Row{
				Layer:  "obs",
				Name:   "Recompile",
				Params: map[string]string{"spans": variant.name},
				Det:    map[string]int64{"funcs": int64(funcs)},
			}.Timed(samples))
		})
	}
}
