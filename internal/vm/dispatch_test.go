package vm_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// dispatchModes is the driver matrix for differential dispatch testing.
var dispatchModes = []vm.DispatchMode{vm.DispatchSwitch, vm.DispatchThreaded}

// TestDispatchIdentity proves the threaded driver is invisible: for every
// workload and every scheduler seed, switch (reference) and threaded
// dispatch produce identical Results (exit code, cycles, instruction count,
// output, fault), counters off and on. The counters-off leg exercises the
// threaded fast path (inline micro-ops, flat runs, fused pairs, promoted
// control flow); counter-enabled runs take the reference driver under either
// mode, so that leg pins that enabling counters never perturbs execution and
// that the Counters snapshot — instruction totals, op-class histogram,
// preemptions, cache and TLB attribution, per-thread cycles — does not
// depend on the mode.
//
// Beyond the native workloads, the matrix covers Table 5's recovered CKit
// images — traced, callback-pruned Polynima recompiles of every spinlock —
// for the TSO target and for the weakly-ordered mx64w, whose machines run
// the store buffer on both drivers.
func TestDispatchIdentity(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			checkDispatchIdentity(t, w, img)
		})
	}
	for _, target := range []string{"mx64", "mx64w"} {
		target := target
		t.Run("recovered_"+target, func(t *testing.T) {
			for _, w := range workloads.CKit() {
				w := w
				t.Run(w.Name, func(t *testing.T) {
					t.Parallel()
					checkDispatchIdentity(t, w, recoverCKit(t, w, target))
				})
			}
		})
	}
}

// recoverCKit builds Table 5's recovered image of a CKit lock: the -O2
// binary traced on its input, callback-pruned, and recompiled for target.
func recoverCKit(t *testing.T, w *workloads.Workload, target string) *image.Image {
	t.Helper()
	img, err := w.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Target = target
	p, err := core.NewProject(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Trace([]core.Input{w.Input()}); err != nil {
		t.Fatal(err)
	}
	if err := p.PruneCallbacks([]core.Input{w.Input()}); err != nil {
		t.Fatal(err)
	}
	rec, err := p.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	if want := mx.TargetByName(target).MachineMode; rec.Machine != want {
		t.Fatalf("recovered image machine %q, want %q", rec.Machine, want)
	}
	return rec
}

// checkDispatchIdentity runs img on w's input under both dispatch modes,
// counters off and on, at every identity seed.
func checkDispatchIdentity(t *testing.T, w *workloads.Workload, img *image.Image) {
	t.Helper()
	for _, seed := range identitySeeds {
		in := w.Input()
		exec := func(mode vm.DispatchMode, counted bool) (vm.Result, *vm.Counters) {
			m, err := vm.NewWithExts(img, seed, in.Exts)
			if err != nil {
				t.Fatal(err)
			}
			if in.Data != nil {
				m.SetInput(in.Data)
			}
			m.SetDispatch(mode)
			var c *vm.Counters
			if counted {
				c = m.EnableCounters()
			}
			return m.Run(bench.Fuel), c
		}
		sw, _ := exec(vm.DispatchSwitch, false)
		th, _ := exec(vm.DispatchThreaded, false)
		swc, swCtr := exec(vm.DispatchSwitch, true)
		thc, thCtr := exec(vm.DispatchThreaded, true)
		if !sameResult(sw, th) {
			t.Fatalf("seed %d: dispatch modes diverge:\n  switch:   %+v\n  threaded: %+v", seed, sw, th)
		}
		if !sameResult(sw, swc) || !sameResult(sw, thc) {
			t.Fatalf("seed %d: enabling counters perturbs execution:\n  off:               %+v\n  on (switch):       %+v\n  on (threaded):     %+v",
				seed, sw, swc, thc)
		}
		if !reflect.DeepEqual(swCtr, thCtr) {
			t.Fatalf("seed %d: counters diverge:\n  switch:   %+v\n  threaded: %+v", seed, swCtr, thCtr)
		}
	}
}

// TestStackFaultPC pins fault attribution for the stack ops: with RSP in an
// unmapped page, a PUSH, POP, CALL, CALLR or RET faults at its own address
// (not its fallthrough) with its stack fault text, under both dispatch
// modes, counters off and on, on the TSO and the weak machine (whose stack
// traffic goes through the store buffer).
func TestStackFaultPC(t *testing.T) {
	ops := []struct {
		name   string
		emit   func(b *asm.Builder)
		reason string
	}{
		{"push", func(b *asm.Builder) { b.I(mx.Inst{Op: mx.PUSH, Dst: mx.RAX}) }, "stack overflow: push to unmapped 0x8"},
		{"pop", func(b *asm.Builder) { b.I(mx.Inst{Op: mx.POP, Dst: mx.RAX}) }, "pop from unmapped 0x10"},
		{"call", func(b *asm.Builder) { b.Call("leaf") }, "stack overflow: push to unmapped 0x8"},
		{"callr", func(b *asm.Builder) { b.I(mx.Inst{Op: mx.CALLR, Dst: mx.RCX}) }, "stack overflow: push to unmapped 0x8"},
		{"ret", func(b *asm.Builder) { b.Ret() }, "pop from unmapped 0x10"},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			b := asm.NewBuilder("stackfault")
			b.Entry("main")
			b.Label("main")
			b.MovSym(mx.RCX, "leaf")
			b.MovRI(mx.RSP, 0x10) // page 0 is never mapped
			b.Label("site")
			op.emit(b)
			b.MovRI(mx.RDI, 0)
			b.CallExt("exit")
			b.Label("leaf")
			b.Ret()
			img, syms, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, machine := range []*image.Image{img, weakClone(img)} {
				for _, mode := range dispatchModes {
					for _, counted := range []bool{false, true} {
						m, err := vm.New(machine, 1)
						if err != nil {
							t.Fatal(err)
						}
						m.SetDispatch(mode)
						if counted {
							m.EnableCounters()
						}
						res := m.Run(1_000_000)
						where := fmt.Sprintf("%s %v counted=%v", machine.Machine, mode, counted)
						if res.Fault == nil {
							t.Fatalf("%s: no fault; exit=%d", where, res.ExitCode)
						}
						if res.Fault.PC != syms["site"] || res.Fault.Kind != vm.FaultGuest || res.Fault.Reason != op.reason {
							t.Fatalf("%s: fault %q (kind %d) at %#x, want %q at the %s at %#x",
								where, res.Fault.Reason, res.Fault.Kind, res.Fault.PC, op.reason, op.name, syms["site"])
						}
					}
				}
			}
		})
	}
}

// TestDispatchSelfModifyingStore repeats the self-modifying-code contract
// under both dispatch engines: threaded state (handler table, fused pairs,
// flat-run metadata) compiled from stale bytes must be dropped when the
// guest stores over its code. The patched instruction straddles a page
// boundary with the store landing in the second page, so this also covers
// the predecessor-page invalidation rule for compiled dispatch state.
func TestDispatchSelfModifyingStore(t *testing.T) {
	var results []vm.Result
	for _, mode := range dispatchModes {
		b := asm.NewBuilder("selfmod")
		for i := 0; i < pagePad; i++ {
			b.I(mx.Inst{Op: mx.NOP})
		}
		b.Label("patch")
		b.MovRI(mx.RAX, 111)
		b.Ret()
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "patch")
		b.Call("patch") // first execution compiles the page: rax=111
		b.I(mx.Inst{Op: mx.STOREI8, Base: mx.RBX, Disp: 2, Imm: 222})
		b.Call("patch") // must observe the new bytes: rax=222
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
		m.SetDispatch(mode)
		res := m.Run(1_000_000)
		if res.Fault != nil {
			t.Fatalf("%v: fault: %v", mode, res.Fault)
		}
		if res.ExitCode != 222 {
			t.Fatalf("%v: exit %d, want 222 (stale compiled code executed)", mode, res.ExitCode)
		}
		results = append(results, res)
	}
	if !sameResult(results[0], results[1]) {
		t.Fatalf("dispatch engines diverge: %+v vs %+v", results[0], results[1])
	}
}

// TestDispatchFlatRunSelfPatch stores over the instruction that immediately
// follows the store in straight-line code. Under threaded dispatch both
// instructions can sit in one precomputed flat run, so the engine must
// observe the invalidation mid-run and refetch before executing the patched
// instruction: executing the stale immediate (111) instead of the patched
// one (222) means a flat run outlived its page's bytes.
func TestDispatchFlatRunSelfPatch(t *testing.T) {
	var results []vm.Result
	for _, mode := range dispatchModes {
		b := asm.NewBuilder("flatpatch")
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "tgt")
		// Patch the low immediate byte (tgt+2) of the MOVRI directly below.
		b.I(mx.Inst{Op: mx.STOREI8, Base: mx.RBX, Disp: 2, Imm: 222})
		b.Label("tgt")
		b.MovRI(mx.RDI, 111)
		b.CallExt("exit")
		img, _, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(img, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.SetDispatch(mode)
		res := m.Run(1_000_000)
		if res.Fault != nil {
			t.Fatalf("%v: fault: %v", mode, res.Fault)
		}
		if res.ExitCode != 222 {
			t.Fatalf("%v: exit %d, want 222 (flat run executed stale bytes)", mode, res.ExitCode)
		}
		results = append(results, res)
	}
	if !sameResult(results[0], results[1]) {
		t.Fatalf("dispatch engines diverge: %+v vs %+v", results[0], results[1])
	}
}

// TestDispatchFusedPairsAtSliceBoundaries runs two threads through tight
// loops whose bodies are dense flag-setter+JCC fusion candidates. The
// scheduler quantum (41) is odd and coprime to the loop body length, so over
// thousands of iterations the step budget expires at every phase of the body
// — in particular between a flag setter and its branch, where the threaded
// engine must retire exactly one instruction via the unfused handler rather
// than let a fused pair overrun the slice. Any overrun shifts every later
// preemption boundary, which the printed checksum observes: each iteration
// draws a ticket from a shared counter and adds it, weighted by the
// thread's argument (1 or 3), to the thread's total.
func TestDispatchFusedPairsAtSliceBoundaries(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.BSS("sum", 8)
		b.BSS("ticket", 8)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 1)
		b.CallExt("thread_create")
		b.MovRR(mx.R13, mx.RAX)
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 3)
		b.CallExt("thread_create")
		b.MovRR(mx.R14, mx.RAX)
		b.MovRR(mx.RDI, mx.R13)
		b.CallExt("thread_join")
		b.MovRR(mx.RDI, mx.R14)
		b.CallExt("thread_join")
		b.MovSym(mx.RBX, "sum")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("print_i64")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ANDRI, Dst: mx.RDI, Imm: 255})
		b.CallExt("exit")

		b.Label("w")
		b.MovSym(mx.R10, "ticket")
		b.MovRI(mx.R11, 0)
		b.MovRI(mx.R12, 0)
		b.MovRI(mx.RAX, 0)
		b.Label("wl")
		b.MovRI(mx.R9, 1)
		b.I(mx.Inst{Op: mx.LOCKXADD, Dst: mx.R9, Base: mx.R10})
		b.I(mx.Inst{Op: mx.IMULRR, Dst: mx.R9, Src: mx.RDI})
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.R11, Src: mx.R9})
		b.I(mx.Inst{Op: mx.TESTRR, Dst: mx.R12, Src: mx.R12})
		b.Jcc(mx.CondS, "s1") // never taken: r12 stays non-negative
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 3})
		b.Label("s1")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 700})
		b.Jcc(mx.CondG, "s2") // taken for the tail of the loop
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 1})
		b.Label("s2")
		b.I(mx.Inst{Op: mx.SUBRI, Dst: mx.RAX, Imm: 1}) // SUB+JCC fusion
		b.Jcc(mx.CondE, "s3")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 2})
		b.Label("s3")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 1500})
		b.Jcc(mx.CondL, "wl") // backward fused pair
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RAX, Src: mx.R11})
		b.MovSym(mx.RBX, "sum")
		b.I(mx.Inst{Op: mx.LOCKADD, Dst: mx.RAX, Base: mx.RBX})
		b.MovRI(mx.RAX, 0)
		b.Ret()
	})
	for _, seed := range []int64{1, 2, 3, 5, 9} {
		for _, counted := range []bool{false, true} {
			exec := func(mode vm.DispatchMode) (vm.Result, *vm.Counters) {
				m, err := vm.New(img, seed)
				if err != nil {
					t.Fatal(err)
				}
				m.SetDispatch(mode)
				var c *vm.Counters
				if counted {
					c = m.EnableCounters()
				}
				return m.Run(50_000_000), c
			}
			sw, swc := exec(vm.DispatchSwitch)
			th, thc := exec(vm.DispatchThreaded)
			if sw.Fault != nil {
				t.Fatalf("seed %d: fault: %v", seed, sw.Fault)
			}
			if !sameResult(sw, th) {
				t.Fatalf("seed %d counted=%v: dispatch modes diverge:\n  switch:   %+v\n  threaded: %+v",
					seed, counted, sw, th)
			}
			if counted && !reflect.DeepEqual(swc, thc) {
				t.Fatalf("seed %d: counters diverge:\n  switch:   %+v\n  threaded: %+v",
					seed, swc, thc)
			}
		}
	}
}
