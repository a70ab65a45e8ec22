package vm_test

import (
	"os"
	"strings"
	"sync"
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

// runStepLoop executes the hot loop until fuel exhaustion under the given
// dispatch engine and returns the instruction count and wall-clock time.
func runStepLoop(tb testing.TB, img *image.Image, dispatch vm.DispatchMode, nocache bool) (uint64, time.Duration) {
	m, err := vm.New(img, 1)
	if err != nil {
		tb.Fatal(err)
	}
	m.SetDispatch(dispatch)
	if nocache {
		m.DisableCache()
	}
	start := time.Now()
	res := m.Run(stepLoopFuel)
	elapsed := time.Since(start)
	if res.Fault == nil || !strings.Contains(res.Fault.Reason, "fuel exhausted") {
		tb.Fatalf("expected fuel exhaustion, got fault=%v exit=%d", res.Fault, res.ExitCode)
	}
	return res.Insts, elapsed
}

// vmBenchEntries collects the latest measurement per (name, dispatch, cache)
// variant; TestMain serializes them to ../bench/BENCH_vm.json after the
// benchmarks run.
var (
	vmBenchMu      sync.Mutex
	vmBenchEntries = map[string]bench.VMBenchEntry{}
)

func recordVMBench(e bench.VMBenchEntry) {
	vmBenchMu.Lock()
	defer vmBenchMu.Unlock()
	key := e.Name + "/" + e.Dispatch
	if !e.Cache {
		key += "/nocache"
	}
	// testing.B re-runs each benchmark with increasing b.N; keep only the
	// final (largest, most precise) measurement per variant.
	vmBenchEntries[key] = e
}

// BenchmarkStepLoop measures interpreter throughput in guest instructions
// per second across the dispatch tiers: threaded code over predecoded pages
// (every machine's default), the per-step reference driver over the same
// predecode cache (DispatchSwitch), and the reference driver decoding every
// step (DisableCache, the pre-cache interpreter). The threaded-over-switch
// ratio is the headline number in BENCH_vm.json.
func BenchmarkStepLoop(b *testing.B) {
	img := stepLoopImage(b)
	variants := []struct {
		name     string
		dispatch vm.DispatchMode
		nocache  bool
	}{
		{"threaded", vm.DispatchThreaded, false},
		{"switch", vm.DispatchSwitch, false},
		{"nocache", vm.DispatchSwitch, true},
	}
	for _, variant := range variants {
		b.Run(variant.name, func(b *testing.B) {
			var insts uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				n, d := runStepLoop(b, img, variant.dispatch, variant.nocache)
				insts += n
				elapsed += d
			}
			b.ReportMetric(float64(insts)/elapsed.Seconds(), "insts/s")
		})
	}
	// Recording pass: the sub-benchmarks above are the human-readable
	// display, but they measure the variants sequentially, seconds apart —
	// on a busy or frequency-scaled host the machine's throughput drifts
	// between them and the recorded ratios inherit that drift. The entries
	// written to BENCH_vm.json instead come from this round-robin pass,
	// which interleaves the variants so any drift biases all of them
	// equally and the speedup ratios stay meaningful.
	accs := make([]struct {
		insts   uint64
		elapsed time.Duration
	}, len(variants))
	const rounds = 24
	for r := 0; r < rounds; r++ {
		for vi, variant := range variants {
			n, d := runStepLoop(b, img, variant.dispatch, variant.nocache)
			if r == 0 {
				continue // warmup round: cold caches and branch predictors
			}
			accs[vi].insts += n
			accs[vi].elapsed += d
		}
	}
	for vi, variant := range variants {
		recordVMBench(bench.VMBenchEntry{
			Name:        "StepLoop",
			Dispatch:    variant.dispatch.String(),
			Cache:       !variant.nocache,
			Insts:       accs[vi].insts,
			Seconds:     accs[vi].elapsed.Seconds(),
			InstsPerSec: float64(accs[vi].insts) / accs[vi].elapsed.Seconds(),
		})
	}
}

// TestMain emits the regenerated BENCH_vm.json when benchmarks ran (the test
// binary's working directory is this package, so the committed record at
// internal/bench/BENCH_vm.json is overwritten in place). Plain `go test`
// runs record nothing and write nothing.
func TestMain(m *testing.M) {
	code := m.Run()
	vmBenchMu.Lock()
	entries := make([]bench.VMBenchEntry, 0, len(vmBenchEntries))
	for _, e := range vmBenchEntries {
		entries = append(entries, e)
	}
	vmBenchMu.Unlock()
	if len(entries) > 0 {
		if err := bench.WriteVMBench("../bench/BENCH_vm.json", entries); err != nil {
			os.Stderr.WriteString("BENCH_vm.json: " + err.Error() + "\n")
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}
