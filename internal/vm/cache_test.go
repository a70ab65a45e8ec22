package vm_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mx"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// identitySeeds is the scheduler-seed matrix for differential cache testing.
var identitySeeds = []int64{1, 2, 3, 5}

func sameResult(a, b vm.Result) bool {
	if a.ExitCode != b.ExitCode || a.Cycles != b.Cycles ||
		a.Insts != b.Insts || a.Output != b.Output {
		return false
	}
	if (a.Fault == nil) != (b.Fault == nil) {
		return false
	}
	return a.Fault == nil || *a.Fault == *b.Fault
}

// TestCacheIdentity proves the decode-once engine is invisible: for every
// workload and every seed in the matrix, a run with the predecoded
// instruction cache and an uncached run produce byte-identical Results
// (exit code, cycles, instruction count, output, fault).
func TestCacheIdentity(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range identitySeeds {
				in := w.Input()
				exec := func(nocache bool) vm.Result {
					m, err := vm.NewWithExts(img, seed, in.Exts)
					if err != nil {
						t.Fatal(err)
					}
					if in.Data != nil {
						m.SetInput(in.Data)
					}
					if nocache {
						m.DisableCache()
					}
					return m.Run(bench.Fuel)
				}
				cached, uncached := exec(false), exec(true)
				if !sameResult(cached, uncached) {
					t.Fatalf("seed %d: cache on/off diverge:\n  on:  %+v\n  off: %+v",
						seed, cached, uncached)
				}
			}
		})
	}
}

// TestCacheIdentityRecompiled repeats the differential check on recompiled
// binaries, whose images carry two executable sections (the original text
// and the appended recompiled code) and therefore exercise the multi-range
// code-write watch and multi-page predecode paths.
func TestCacheIdentityRecompiled(t *testing.T) {
	for _, name := range []string{"linear_regression", "string_match"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workloads.ByName(name)
			if w == nil {
				t.Fatalf("no workload %q", name)
			}
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewProject(img, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rec, err := p.Recompile()
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range identitySeeds {
				in := w.Input()
				exec := func(nocache bool) vm.Result {
					m, err := vm.NewWithExts(rec, seed, in.Exts)
					if err != nil {
						t.Fatal(err)
					}
					if in.Data != nil {
						m.SetInput(in.Data)
					}
					if nocache {
						m.DisableCache()
					}
					return m.Run(bench.Fuel)
				}
				cached, uncached := exec(false), exec(true)
				if !sameResult(cached, uncached) {
					t.Fatalf("seed %d: cache on/off diverge on recompiled binary:\n  on:  %+v\n  off: %+v",
						seed, cached, uncached)
				}
			}
		})
	}
}

// TestSelfModifyingStoreInvalidatesCache pins the invalidation contract: a
// guest that executes a function (so its page is predecoded), stores new
// bytes over one of its instructions, and executes it again must observe the
// new bytes — with the cache on and off, identically.
//
// The patched instruction is placed so that it starts in the last bytes of
// one page and its immediate straddles into the next: the store lands in the
// second page while the cached instruction lives in the first page's
// predecode entry, which exercises the predecessor-page invalidation rule.
func TestSelfModifyingStoreInvalidatesCache(t *testing.T) {
	var results []vm.Result
	for _, nocache := range []bool{false, true} {
		b := asm.NewBuilder("selfmod")
		// Pad so "patch" starts 1 byte before the first page boundary:
		// its MOVRI (10 bytes: op, dst, imm64) straddles into page 1 with
		// the low immediate byte at page offset +2.
		for i := 0; i < pagePad; i++ {
			b.I(mx.Inst{Op: mx.NOP})
		}
		b.Label("patch")
		b.MovRI(mx.RAX, 111)
		b.Ret()
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "patch")
		b.Call("patch") // first execution: predecodes the page, rax=111
		// Overwrite the MOVRI's low immediate byte (patch+2) with 222.
		b.I(mx.Inst{Op: mx.STOREI8, Base: mx.RBX, Disp: 2, Imm: 222})
		b.Call("patch") // must now observe the new bytes: rax=222
		b.MovRR(mx.RDI, mx.RAX)
		b.CallExt("exit")
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(img, 1)
		if err != nil {
			t.Fatal(err)
		}
		if nocache {
			m.DisableCache()
		}
		res := m.Run(1_000_000)
		if res.Fault != nil {
			t.Fatalf("nocache=%v: fault: %v", nocache, res.Fault)
		}
		if res.ExitCode != 222 {
			t.Fatalf("nocache=%v: exit %d, want 222 (stale code executed)", nocache, res.ExitCode)
		}
		results = append(results, res)
	}
	if !sameResult(results[0], results[1]) {
		t.Fatalf("cache on/off diverge: %+v vs %+v", results[0], results[1])
	}
}

// pagePad positions the "patch" label one byte before the 4KiB page
// boundary (pages are 1<<12 bytes; NOP encodes in 1 byte).
const pagePad = 1<<12 - 1
