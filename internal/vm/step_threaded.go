package vm

import (
	"encoding/binary"

	"repro/internal/mx"
)

// This file implements the threaded dispatch driver: instead of fetching and
// decoding per step (stepThread, step.go), each predecoded page carries a
// dispatch record per byte offset, so the hot loop is an indirect call per
// instruction through the shared handler table — Go's idiom for
// computed-goto dispatch. Three tiers stack on top of the predecode cache:
//
//   - per-opcode handlers: opHandlers[op](m, t, inst, pc, next), with RR/RI
//     layout variants specialized so the operand-source branch disappears
//     from the hot path;
//   - fused pairs: a flag-setting CMP/TEST/SUB immediately followed by a
//     same-page JCC dispatches as one inline micro-op pair retiring two
//     instructions (selected at compile() time);
//   - block accounting: straight-line runs of "simple" instructions (no
//     control transfer, no external call, no hook site) retire with one
//     precomputed insts/cycles sum applied at the next flush point, with an
//     exact per-prefix fallback when a run exits early on a fault, a
//     scheduling-grant boundary, or a self-modifying-code invalidation.
//
// The contract is bit-identical semantics with the reference driver: same
// faults at the same PCs, same hook call sites, and — because batching is
// provably equivalent to the per-step scheduler fast path — the same
// interleavings at every seed. Deviations are bugs; the differential matrix
// in dispatch_test.go and fuzz_test.go is the enforcement.

// dispatchEnt is the per-offset threaded-dispatch record. It is packed to
// 16 bytes — handler, length, retire class, flat-run length, and precomputed
// cost — so one entry load (four entries per cache line) gives the batch
// loop everything it needs without touching lens, insts.Op, or costs[].
type dispatchEnt struct {
	h handler
	// n is the encoded instruction length (mirrors codePage.lens so the
	// batch loop indexes a single table).
	n uint8
	// retire classifies the dispatch; see the retire* constants.
	retire uint8
	// mop is the dense micro-op code for the flat-run loop's inline
	// dispatch tier (mopCall routes through h); see the mop* constants.
	mop uint8
	// flat is the length of the straight-line run of simple instructions
	// starting at this offset (all within this page); 0 or 1 means the
	// offset dispatches singly.
	flat uint16
	// runCost is the precomputed cycle cost of the flat run starting here
	// (prefix costs of early-exited runs fall out as runCost differences
	// along the chain). For offsets outside flat runs it is the single
	// instruction's own cost — the pair sum for a fused offset.
	runCost uint32
}

// retire classes: how many instructions a dispatch retires, plus the
// dispatches the batch loop handles specially instead of (or before)
// calling the handler.
const (
	// retireFault marks a fetch hole or predecoded BAD instruction: the
	// sentinel handler faults and retires nothing.
	retireFault = iota
	retireOne
	// retireFused is a fused flag-setter+JCC pair retiring two
	// instructions; h is the leading op's handler, used when the pair
	// would overrun the scheduling grant.
	retireFused
	// retireCallX is an external call: the one dispatch that must settle
	// deferred accounting first (the clock external reads machine cycles).
	retireCallX
	// retireJmp is a direct jump whose target is in the same page (and not
	// its own fallthrough): the fast batch loop takes it without a handler
	// call or fault/exit checks, since a jump cannot fault, block, or
	// write memory.
	retireJmp
	// retireJcc is a conditional branch with a non-zero displacement: pure,
	// so the fast loop evaluates it inline and fires the block hook on
	// both edges (matching hJcc's untaken call plus the generic taken
	// site).
	retireJcc
	// retireCall and retireRet mark direct same-page calls (non-zero
	// displacement) and returns; the fast loop hand-inlines their
	// stack-slot TLB probe and falls back to the generic handler for
	// misses, watched stacks, and magic return addresses.
	retireCall
	retireRet
)

// Micro-op codes for the flat-run loop's inline dispatch tier: the densest
// simple opcodes execute through an inline jump table instead of an indirect
// handler call, which is worth several cycles per instruction on the hot
// path. mopCall (zero) falls back to disp.h. Each inline body must mirror
// the corresponding handler exactly; the differential matrix against the
// reference driver is the enforcement.
const (
	mopCall = iota
	mopMovRR
	mopMovRI
	mopLea
	mopLeaIdx
	mopAddRR
	mopAddRI
	mopSubRR
	mopSubRI
	mopCmpRR
	mopCmpRI
	mopAndRR
	mopAndRI
	mopOrRR
	mopOrRI
	mopXorRR
	mopXorRI
	mopTestRR
	mopTestRI
	mopLoad64
	mopStore64
	mopLoadIdx64
	mopStoreIdx64
	mopPush
	mopPop
)

// mopOf maps opcodes to their inline micro-op; zero (mopCall) everywhere
// else.
var mopOf [mx.NumOps]uint8

func init() {
	for op, mop := range map[mx.Op]uint8{
		mx.MOVRR:      mopMovRR,
		mx.MOVRI:      mopMovRI,
		mx.LEA:        mopLea,
		mx.LEAIDX:     mopLeaIdx,
		mx.ADDRR:      mopAddRR,
		mx.ADDRI:      mopAddRI,
		mx.SUBRR:      mopSubRR,
		mx.SUBRI:      mopSubRI,
		mx.CMPRR:      mopCmpRR,
		mx.CMPRI:      mopCmpRI,
		mx.ANDRR:      mopAndRR,
		mx.ANDRI:      mopAndRI,
		mx.ORRR:       mopOrRR,
		mx.ORRI:       mopOrRI,
		mx.XORRR:      mopXorRR,
		mx.XORRI:      mopXorRI,
		mx.TESTRR:     mopTestRR,
		mx.TESTRI:     mopTestRI,
		mx.LOAD64:     mopLoad64,
		mx.STORE64:    mopStore64,
		mx.LOADIDX64:  mopLoadIdx64,
		mx.STOREIDX64: mopStoreIdx64,
		mx.PUSH:       mopPush,
		mx.POP:        mopPop,
	} {
		mopOf[op] = mop
	}
}

// fusible marks the flag-setting opcodes that fuse with an immediately
// following same-page JCC; each has an inline micro-op, which the fused
// dispatch in stepBatchFast executes before evaluating the branch.
var fusible = func() [mx.NumOps]bool {
	var f [mx.NumOps]bool
	for _, op := range []mx.Op{mx.CMPRR, mx.CMPRI, mx.TESTRR, mx.TESTRI, mx.SUBRR, mx.SUBRI} {
		f[op] = true
	}
	return f
}()

// compile fills the page's handler table and dispatch metadata from its
// predecoded instructions: fusion selection first (a fused offset is not a
// flat-run member — it retires two instructions in one dispatch), then a
// backward pass over fallthrough chains for flat-run lengths and block cycle
// sums. Compilation is lazy — the reference driver never pays for it — and
// the write-watch invalidation contract needs no extra work here: stores
// into code drop the whole codePage, handler table, fusion choices and all.
// On a weak machine the inline memory and stack micro-ops and the inline
// call/ret retirements, which bypass the store buffer, give way to their
// handlers.
func (cp *codePage) compile(weak bool) {
	for off := 0; off < pageSize; off++ {
		d := &cp.disp[off]
		n := int(cp.lens[off])
		d.n = uint8(n)
		if n == 0 {
			d.h, d.retire = hFetchHole, retireFault
			continue
		}
		op := cp.insts[off].Op
		if op == mx.BAD {
			d.h, d.retire = hIllegal, retireFault
			continue
		}
		d.h = opHandlers[op]
		d.retire = retireOne
		d.mop = mopOf[op]
		if weak && d.mop >= mopLoad64 && d.mop <= mopPop {
			d.mop = mopCall
		}
		d.runCost = uint32(costs[op])
		if op == mx.CALLX {
			d.retire = retireCallX
			continue
		}
		switch op {
		case mx.JMP:
			// Promote same-page jumps (excluding the degenerate
			// jump-to-fallthrough, whose untaken-looking edge must skip
			// the block hook exactly like the generic fall==PC check).
			if tgt := int64(off) + int64(n) + int64(cp.insts[off].Disp); tgt >= 0 && tgt < pageSize && cp.insts[off].Disp != 0 {
				d.retire = retireJmp
			}
			continue
		case mx.JCC:
			if cp.insts[off].Disp != 0 {
				d.retire = retireJcc
			}
			continue
		case mx.CALL:
			if tgt := int64(off) + int64(n) + int64(cp.insts[off].Disp); !weak && tgt >= 0 && tgt < pageSize && cp.insts[off].Disp != 0 {
				d.retire = retireCall
			}
			continue
		case mx.RET:
			if !weak {
				d.retire = retireRet
			}
			continue
		}
		if fusible[op] {
			if off2 := off + n; off2 < pageSize && cp.lens[off2] != 0 && cp.insts[off2].Op == mx.JCC {
				d.retire = retireFused
				d.runCost = uint32(costs[op] + costs[mx.JCC])
			}
		}
	}
	for off := pageSize - 1; off >= 0; off-- {
		d := &cp.disp[off]
		if d.retire != retireOne || !simpleOps[cp.insts[off].Op] {
			continue // flat stays 0: dispatch singly
		}
		run, cost := uint32(1), d.runCost
		if nxt := off + int(d.n); nxt < pageSize && cp.disp[nxt].flat > 0 {
			run += uint32(cp.disp[nxt].flat)
			cost += cp.disp[nxt].runCost
		}
		d.flat = uint16(run)
		d.runCost = cost
	}
	cp.compiled = true
}

// hFetchHole and hIllegal are the retireFault sentinels compile() installs
// for non-executable offsets and predecoded BAD instructions, so the batch
// loop needs no per-dispatch fetch checks: the fault is the dispatch.

func hFetchHole(m *Machine, t *Thread, _ *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "instruction fetch from unmapped or non-executable memory")
	return next
}

func hIllegal(m *Machine, t *Thread, _ *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "illegal instruction")
	return next
}

// extendGrant is the fast batch loop's inline scheduler slow path. When a
// batch exhausts its scheduling grant but t is the machine's only runnable
// thread, the per-step scheduler's next pick is forced: it consumes one rng
// draw (whose value cannot change the pick) and grants t a fresh quantum.
// Emulating that boundary here lets the batch continue without the
// per-quantum flush/Run/pickThread round trip — the dominant fixed cost on
// single-threaded phases. The moment a second thread is runnable (or fuel is
// spent, matching Run's loop condition — pendI is the batch's unflushed
// instruction count, which fuel must see) it declines without drawing, and
// the real scheduler decides, and draws, as usual. Every budget-exhaustion
// site in stepBatchFast may call this because those sites are only reached
// with t runnable and no fault or exit pending.
func (m *Machine) extendGrant(t *Thread, budget *int, ran int, pendI uint64) bool {
	if m.insts+pendI >= m.runFuel {
		return false
	}
	// A sole-runnable batch never returns to Run's loop, so the cancel
	// signal must also be polled here (at most once per granted quantum);
	// declining sends the batch back to Run, which observes the
	// cancellation. Declines before the rng draw, like the
	// second-thread-runnable case, so an uncancelled run's draws are
	// untouched.
	if m.cancelled() {
		return false
	}
	for _, o := range m.threads {
		if o != t && o.State == Runnable {
			return false
		}
	}
	m.rng.Intn(8) // the skip draw pickThread's slow path consumes
	g := m.quantum
	if rem := m.runFuel - (m.insts + pendI); uint64(g) > rem {
		g = int(rem)
	}
	m.extFrom = ran
	*budget += g
	return true
}

// stepBatchFast executes up to budget instructions of t's current
// scheduling grant and returns how many retired. budget is the remainder of
// t's time slice (clamped to remaining fuel), so one batch is equivalent to
// budget iterations of the per-step loop: the scheduler's fast path grants
// exactly these picks without consuming randomness, and the batch ends
// early exactly where the per-step loop would switch away (fault, block,
// exit) or re-decide (preemption boundary).
//
// The loop runs an outer iteration per page entered and an inner iteration
// per dispatch within that page. Counters are off here by construction (Run
// sends counter-enabled runs to the reference driver), so insts/cycles sums
// are deferred to flush points: the only mid-run observer of machine totals
// is the clock external, so a flush is owed exactly before CALLX, and at
// every batch exit so that Run and Result always see settled totals.
func (m *Machine) stepBatchFast(t *Thread, budget int) int {
	extra := m.ExtraCostPerInst
	ran := 0
	var pendI, pendC uint64 // block accounting deferred to the next flush point
	pc := t.PC
	for ran < budget {
		base := pc &^ (pageSize - 1)
		cp := m.icPage
		if base != m.icBase {
			cp = m.icache[base]
			if cp == nil {
				cp = m.fillCodePage(base)
				m.icache[base] = cp
			}
			m.icBase, m.icPage = base, cp
		}
		if !cp.compiled {
			cp.compile(m.weak)
		}
		// Same-page dispatch loop: fall out to the outer loop only when
		// control leaves the page or a store invalidated it.
	page:
		for {
			off := pc & (pageSize - 1)
			d := &cp.disp[off]

			// Flat run: retire a straight line of simple instructions with
			// one precomputed block sum. The densest micro-ops execute
			// through the inline jump table (bodies mirror their handlers);
			// the rest dispatch through the handler pointer.
			if r := int(d.flat); r > 0 {
				if max := budget - ran; r > max {
					r = max
				}
				start := off
				k := 0
				for {
					next := pc + uint64(d.n)
					t.PC = next
					i := &cp.insts[off]
					switch d.mop {
					case mopMovRR:
						t.Regs[i.Dst] = t.Regs[i.Src]
					case mopMovRI:
						t.Regs[i.Dst] = uint64(i.Imm)
					case mopLea:
						t.Regs[i.Dst] = t.ea(i)
					case mopLeaIdx:
						t.Regs[i.Dst] = t.eaIdx(i)
					case mopAddRR:
						a, b := t.Regs[i.Dst], t.Regs[i.Src]
						v := a + b
						t.setAddFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopAddRI:
						a, b := t.Regs[i.Dst], uint64(i.Imm)
						v := a + b
						t.setAddFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopSubRR:
						a, b := t.Regs[i.Dst], t.Regs[i.Src]
						v := a - b
						t.setSubFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopSubRI:
						a, b := t.Regs[i.Dst], uint64(i.Imm)
						v := a - b
						t.setSubFlags(a, b, v)
						t.Regs[i.Dst] = v
					case mopCmpRR:
						a, b := t.Regs[i.Dst], t.Regs[i.Src]
						t.setSubFlags(a, b, a-b)
					case mopCmpRI:
						a, b := t.Regs[i.Dst], uint64(i.Imm)
						t.setSubFlags(a, b, a-b)
					case mopAndRR:
						v := t.Regs[i.Dst] & t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopAndRI:
						v := t.Regs[i.Dst] & uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopOrRR:
						v := t.Regs[i.Dst] | t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopOrRI:
						v := t.Regs[i.Dst] | uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopXorRR:
						v := t.Regs[i.Dst] ^ t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopXorRI:
						v := t.Regs[i.Dst] ^ uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
						t.Regs[i.Dst] = v
					case mopTestRR:
						v := t.Regs[i.Dst] & t.Regs[i.Src]
						t.setZS(v)
						t.CF, t.OF = false, false
					case mopTestRI:
						v := t.Regs[i.Dst] & uint64(i.Imm)
						t.setZS(v)
						t.CF, t.OF = false, false
					// The memory micro-ops hand-inline Memory's TLB-hit
					// fast path: counters are off in this driver (and
					// Mem.ctr is only ever set together with m.ctr), so a
					// hit needs no attribution, and stores only need the
					// write-watch envelope check. Misses, straddles, and
					// watched stores take the same slow path as the
					// handlers. Weak machines never get the plain
					// load/store micro-ops (compile).
					case mopLoad64:
						addr := t.ea(i)
						e := &m.Mem.tlb[(addr>>pageShift)&(tlbSize-1)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 {
							t.Regs[i.Dst] = binary.LittleEndian.Uint64(e.pg[o:])
						} else if v, ok := m.loadMem64(t, pc, addr); ok {
							t.Regs[i.Dst] = v
						}
					case mopStore64:
						addr := t.ea(i)
						mem := m.Mem
						e := &mem.tlb[(addr>>pageShift)&(tlbSize-1)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 &&
							(mem.onWrite == nil || addr >= mem.watchHi || addr+8 <= mem.watchLo) {
							binary.LittleEndian.PutUint64(e.pg[o:], t.Regs[i.Dst])
						} else {
							m.storeMem64(t, pc, addr, t.Regs[i.Dst])
						}
					case mopLoadIdx64:
						addr := t.eaIdx(i)
						e := &m.Mem.tlb[(addr>>pageShift)&(tlbSize-1)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 {
							t.Regs[i.Dst] = binary.LittleEndian.Uint64(e.pg[o:])
						} else if v, ok := m.loadMem64(t, pc, addr); ok {
							t.Regs[i.Dst] = v
						}
					case mopStoreIdx64:
						addr := t.eaIdx(i)
						mem := m.Mem
						e := &mem.tlb[(addr>>pageShift)&(tlbSize-1)]
						o := addr & (pageSize - 1)
						if e.pg != nil && e.base == addr-o && o <= pageSize-8 &&
							(mem.onWrite == nil || addr >= mem.watchHi || addr+8 <= mem.watchLo) {
							binary.LittleEndian.PutUint64(e.pg[o:], t.Regs[i.Dst])
						} else {
							m.storeMem64(t, pc, addr, t.Regs[i.Dst])
						}
					case mopPush:
						sp := t.Regs[mx.RSP] - 8
						t.Regs[mx.RSP] = sp
						mem := m.Mem
						e := &mem.tlb[(sp>>pageShift)&(tlbSize-1)]
						o := sp & (pageSize - 1)
						if e.pg != nil && e.base == sp-o && o <= pageSize-8 &&
							(mem.onWrite == nil || sp >= mem.watchHi || sp+8 <= mem.watchLo) {
							binary.LittleEndian.PutUint64(e.pg[o:], t.Regs[i.Dst])
						} else if !mem.store64(sp, t.Regs[i.Dst]) {
							m.faultf(t, pc, "stack overflow: push to unmapped %#x", sp)
						}
					case mopPop:
						sp := t.Regs[mx.RSP]
						e := &m.Mem.tlb[(sp>>pageShift)&(tlbSize-1)]
						o := sp & (pageSize - 1)
						if e.pg != nil && e.base == sp-o && o <= pageSize-8 {
							t.Regs[i.Dst] = binary.LittleEndian.Uint64(e.pg[o:])
							t.Regs[mx.RSP] = sp + 8
						} else if v, ok := m.Mem.load64(sp); ok {
							t.Regs[i.Dst] = v
							t.Regs[mx.RSP] = sp + 8
						} else {
							m.faultf(t, pc, "pop from unmapped %#x", sp)
						}
					default:
						d.h(m, t, i, pc, next)
					}
					k++
					if k >= r || m.fault != nil || m.icBase != base {
						break
					}
					pc = next
					off = next & (pageSize - 1)
					d = &cp.disp[off]
				}
				ran += k
				pendI += uint64(k)
				if k == int(cp.disp[start].flat) {
					pendC += uint64(cp.disp[start].runCost) + extra*uint64(k)
				} else {
					// Early exit (grant boundary, fault, or self-modifying-
					// code invalidation): the executed prefix's cost is the
					// chain's runCost minus the unexecuted suffix's. A
					// faulting instruction is charged, matching stepThread's
					// account-then-execute order.
					nxt := off + uint64(d.n)
					pendC += uint64(cp.disp[start].runCost-cp.disp[nxt].runCost) + extra*uint64(k)
				}
				if m.fault != nil {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				pc = t.PC
				if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				if m.icBase != base || pc&^(pageSize-1) != base {
					break
				}
				continue
			}

			// Single dispatch: control flow, externals, fused pairs,
			// fetch holes and illegal instructions.
			next := pc + uint64(d.n)
			switch d.retire {
			case retireFault:
				// Sentinel: faults without retiring (and without moving
				// t.PC, like a failed stepThread fetch).
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				d.h(m, t, &cp.insts[off], pc, next)
				return ran
			case retireJmp:
				// Same-page direct jump: no handler call, no fault or
				// exit checks (a jump cannot fault, block, or write
				// memory). The block hook always fires when set — the
				// jump-to-fallthrough case is excluded at compile time.
				pendI++
				pendC += uint64(d.runCost) + extra
				ran++
				pc = next + uint64(int64(cp.insts[off].Disp))
				t.PC = pc
				if m.OnBlock != nil {
					m.OnBlock(t, pc)
				}
				if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				if m.icBase != base {
					break page
				}
				continue
			case retireJcc:
				// Conditional branch, non-zero displacement: pure, so no
				// fault or exit checks. The block hook fires on both
				// edges — hJcc calls it on the untaken edge and the
				// generic fall check fires on the taken one — so inline
				// it fires unconditionally when set.
				pendI++
				pendC += uint64(d.runCost) + extra
				ran++
				if t.Eval(cp.insts[off].Cc) {
					pc = next + uint64(int64(cp.insts[off].Disp))
				} else {
					pc = next
				}
				t.PC = pc
				if m.OnBlock != nil {
					m.OnBlock(t, pc)
				}
				if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
					m.insts += pendI
					m.cycles += pendC
					t.Cycles += pendC
					return ran
				}
				if m.icBase != base || pc&^(pageSize-1) != base {
					break page
				}
				continue
			case retireCall:
				// Same-page direct call: hand-inline the return-address
				// push when the stack slot is a TLB hit outside the write
				// watch (so it cannot fault or invalidate code); fall back
				// to the generic handler dispatch otherwise.
				sp := t.Regs[mx.RSP] - 8
				mem := m.Mem
				e := &mem.tlb[(sp>>pageShift)&(tlbSize-1)]
				o := sp & (pageSize - 1)
				if e.pg != nil && e.base == sp-o && o <= pageSize-8 &&
					(mem.onWrite == nil || sp >= mem.watchHi || sp+8 <= mem.watchLo) {
					pendI++
					pendC += uint64(d.runCost) + extra
					ran++
					t.Regs[mx.RSP] = sp
					binary.LittleEndian.PutUint64(e.pg[o:], next)
					pc = next + uint64(int64(cp.insts[off].Disp))
					t.PC = pc
					if m.OnBlock != nil {
						m.OnBlock(t, pc)
					}
					if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
						m.insts += pendI
						m.cycles += pendC
						t.Cycles += pendC
						return ran
					}
					if m.icBase != base {
						break page
					}
					continue
				}
				pendI++
				pendC += uint64(d.runCost) + extra
			case retireRet:
				// Return: hand-inline the TLB-hit pop for ordinary return
				// addresses; magic host/thread-exit frames and misses take
				// the generic handler.
				sp := t.Regs[mx.RSP]
				e := &m.Mem.tlb[(sp>>pageShift)&(tlbSize-1)]
				o := sp & (pageSize - 1)
				if e.pg != nil && e.base == sp-o && o <= pageSize-8 {
					if ra := binary.LittleEndian.Uint64(e.pg[o:]); ra != magicThreadExit && ra != magicHostFrame {
						pendI++
						pendC += uint64(d.runCost) + extra
						ran++
						t.Regs[mx.RSP] = sp + 8
						if m.OnIndirect != nil {
							m.OnIndirect(t, pc, ra, KindRet)
						}
						t.PC = ra
						if ra != next && m.OnBlock != nil {
							m.OnBlock(t, ra)
						}
						pc = ra
						if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
							m.insts += pendI
							m.cycles += pendC
							t.Cycles += pendC
							return ran
						}
						if m.icBase != base || pc&^(pageSize-1) != base {
							break page
						}
						continue
					}
				}
				pendI++
				pendC += uint64(d.runCost) + extra
			case retireCallX:
				// The external may read m.cycles (clock) and charges its
				// own cost: settle all accounting through this instruction
				// before it runs, in stepThread's order.
				m.insts += pendI + 1
				m.cycles += pendC
				t.Cycles += pendC
				pendI, pendC = 0, 0
				m.charge(t, costs[mx.CALLX])
			case retireFused:
				if budget-ran >= 2 {
					// Fused pairs are pure register ops plus a direct
					// branch: they cannot fault, exit, block the thread,
					// or write memory, so the generic post-dispatch
					// checks reduce to the block hook and the page and
					// budget checks. d.mop holds the leading op's
					// micro-op code; every fusible op has one.
					pendI += 2
					pendC += uint64(d.runCost) + 2*extra
					ran += 2
					fi := &cp.insts[off]
					switch d.mop {
					case mopCmpRR:
						a, b := t.Regs[fi.Dst], t.Regs[fi.Src]
						t.setSubFlags(a, b, a-b)
					case mopCmpRI:
						a, b := t.Regs[fi.Dst], uint64(fi.Imm)
						t.setSubFlags(a, b, a-b)
					case mopTestRR:
						r := t.Regs[fi.Dst] & t.Regs[fi.Src]
						t.setZS(r)
						t.CF, t.OF = false, false
					case mopTestRI:
						r := t.Regs[fi.Dst] & uint64(fi.Imm)
						t.setZS(r)
						t.CF, t.OF = false, false
					case mopSubRR:
						a, b := t.Regs[fi.Dst], t.Regs[fi.Src]
						r := a - b
						t.setSubFlags(a, b, r)
						t.Regs[fi.Dst] = r
					case mopSubRI:
						a, b := t.Regs[fi.Dst], uint64(fi.Imm)
						r := a - b
						t.setSubFlags(a, b, r)
						t.Regs[fi.Dst] = r
					}
					// The trailing JCC, as hJcc: the untaken edge fires
					// the block hook with PC at the fallthrough, the
					// taken edge via the generic fall check below.
					off2 := next & (pageSize - 1)
					j := &cp.insts[off2]
					fall := next + uint64(cp.lens[off2])
					if t.Eval(j.Cc) {
						t.PC = fall + uint64(int64(j.Disp))
					} else {
						t.PC = fall
						if m.OnBlock != nil {
							m.OnBlock(t, fall)
						}
					}
					if t.PC != fall && m.OnBlock != nil {
						m.OnBlock(t, t.PC)
					}
					pc = t.PC
					if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
						m.insts += pendI
						m.cycles += pendC
						t.Cycles += pendC
						return ran
					}
					if m.icBase != base || pc&^(pageSize-1) != base {
						break page
					}
					continue
				}
				// The fused pair would overrun the scheduling grant (or
				// fuel); dispatch the leading instruction unfused so
				// preemption and fuel boundaries stay bit-identical to
				// per-step dispatch.
				pendI++
				pendC += costs[cp.insts[off].Op] + extra
			default:
				pendI++
				pendC += uint64(d.runCost) + extra
			}
			t.PC = next
			fall := d.h(m, t, &cp.insts[off], pc, next)
			ran++
			if m.fault != nil {
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				return ran
			}
			if t.PC != fall && m.OnBlock != nil && t.State == Runnable {
				m.OnBlock(t, t.PC)
			}
			if m.exited || t.State != Runnable {
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				return ran
			}
			pc = t.PC
			if ran >= budget && !m.extendGrant(t, &budget, ran, pendI) {
				m.insts += pendI
				m.cycles += pendC
				t.Cycles += pendC
				return ran
			}
			if m.icBase != base || pc&^(pageSize-1) != base {
				break
			}
		}
	}
	m.insts += pendI
	m.cycles += pendC
	t.Cycles += pendC
	return ran
}
