package vm_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/vm"
)

// stepLoopFuel is the guest-instruction budget per benchmark iteration. The
// benchmark program loops forever; Run stops it by fuel exhaustion, so every
// iteration executes exactly this many instructions.
const stepLoopFuel = 1_000_000

// stepLoopImage builds an infinite hot loop that mixes the step loop's main
// costs: ALU ops, an indexed store + load through memory, a call/ret pair,
// and an always-taken conditional branch.
func stepLoopImage(tb testing.TB) *image.Image {
	tb.Helper()
	b := asm.NewBuilder("steploop")
	b.BSS("buf", 4096)
	b.Entry("main")
	b.Label("main")
	b.MovSym(mx.RBX, "buf")
	b.MovRI(mx.RCX, 0)
	b.MovRI(mx.RSI, 0)
	b.Label("loop")
	b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
	b.I(mx.Inst{Op: mx.ANDRI, Dst: mx.RCX, Imm: 255})
	b.I(mx.Inst{Op: mx.STOREIDX64, Dst: mx.RSI, Base: mx.RBX, Idx: mx.RCX, Scale: 8})
	b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RDX, Base: mx.RBX, Idx: mx.RCX, Scale: 8})
	b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RSI, Src: mx.RDX})
	b.Call("leaf")
	b.I(mx.Inst{Op: mx.TESTRR, Dst: mx.RCX, Src: mx.RCX})
	b.Jcc(mx.CondNS, "loop") // rcx is in [0,255], so SF is clear: always taken
	b.Jmp("loop")
	b.Label("leaf")
	b.I(mx.Inst{Op: mx.XORRI, Dst: mx.RAX, Imm: 1})
	b.Ret()
	img, _, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// stepVariant is one configuration of the step-loop benchmark.
type stepVariant struct {
	name     string
	dispatch vm.DispatchMode
	nocache  bool
	counters bool
}

// runStepLoop executes the hot loop until fuel exhaustion under variant v
// and returns the wall-clock time. With counters on, the counters must
// agree with the result's instruction count.
func runStepLoop(tb testing.TB, img *image.Image, v stepVariant) time.Duration {
	m, err := vm.New(img, 1)
	if err != nil {
		tb.Fatal(err)
	}
	m.SetDispatch(v.dispatch)
	if v.nocache {
		m.DisableCache()
	}
	if v.counters {
		m.EnableCounters()
	}
	start := time.Now()
	res := m.Run(stepLoopFuel)
	elapsed := time.Since(start)
	if res.Fault == nil || res.Fault.Kind != vm.FaultFuel || res.Insts != stepLoopFuel {
		tb.Fatalf("expected fuel exhaustion, got fault=%v exit=%d insts=%d", res.Fault, res.ExitCode, res.Insts)
	}
	if v.counters {
		if c := m.Counters(); c == nil || c.Insts != res.Insts {
			tb.Fatalf("counter insts mismatch: counters=%+v result insts=%d", c, res.Insts)
		}
	}
	return elapsed
}

// vmRec collects BENCH_vm.json; TestMain flushes it to the committed record
// in internal/bench.
var vmRec = bench.NewRecorder("../bench/BENCH_vm.json")

// BenchmarkStepLoop measures interpreter throughput across the dispatch
// tiers: threaded code over predecoded pages (every machine's default), the
// per-step reference driver over the same predecode cache (DispatchSwitch),
// the reference driver decoding every step (DisableCache, the pre-cache
// interpreter), and the threaded default with machine counters on (which
// routes the run to the reference driver; the observability differential).
// Every run retires stepLoopFuel instructions; BENCH_vm.json records the
// seconds per run, and the threaded-over-switch ratio of their medians is
// the headline number.
func BenchmarkStepLoop(b *testing.B) {
	img := stepLoopImage(b)
	variants := []stepVariant{
		{"threaded", vm.DispatchThreaded, false, false},
		{"switch", vm.DispatchSwitch, false, false},
		{"nocache", vm.DispatchSwitch, true, false},
		{"counters", vm.DispatchThreaded, false, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				elapsed += runStepLoop(b, img, v)
			}
			b.ReportMetric(float64(b.N)*stepLoopFuel/elapsed.Seconds(), "insts/s")
		})
	}
	// Recording pass: the sub-benchmarks above are the human-readable
	// display, but they measure the variants sequentially, seconds apart —
	// on a busy or frequency-scaled host the machine's throughput drifts
	// between them and ratios between them inherit that drift. The rows
	// written to BENCH_vm.json instead come from this round-robin pass,
	// which interleaves the variants so any drift biases all of them
	// equally; each post-warm-up round is one sample per variant.
	const rounds = 24
	samples := make([][]time.Duration, len(variants))
	for r := 0; r < rounds; r++ {
		for vi, v := range variants {
			d := runStepLoop(b, img, v)
			if r > 0 { // round 0 warms caches and branch predictors
				samples[vi] = append(samples[vi], d)
			}
		}
	}
	for vi, v := range variants {
		vmRec.Add(bench.Row{
			Layer:  "vm",
			Name:   "StepLoop",
			Params: map[string]string{"variant": v.name},
			Det:    map[string]int64{"insts": stepLoopFuel},
		}.Timed(samples[vi]))
	}
}

// TestMain writes the regenerated BENCH_vm.json when benchmarks ran (the
// test binary's working directory is this package, so the committed record
// at internal/bench/BENCH_vm.json is overwritten in place). Plain `go test`
// runs write nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	if err := vmRec.Flush(); err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		code = max(code, 1)
	}
	os.Exit(code)
}
