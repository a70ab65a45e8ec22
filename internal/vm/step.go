package vm

import (
	"repro/internal/mx"
)

// costs is the cycle cost model. Values are chosen so that relative costs
// resemble a modern OoO core at the granularity that matters for the paper's
// ratios: memory ops cost more than ALU ops, locked ops and fences are
// expensive, vector ops amortize over four lanes, external (library) calls
// carry a fixed dispatch cost plus per-function work.
var costs = func() [mx.NumOps]uint64 {
	var c [mx.NumOps]uint64
	for i := range c {
		c[i] = 1
	}
	mem := []mx.Op{mx.LOAD8, mx.LOAD32, mx.LOAD64, mx.STORE8, mx.STORE32,
		mx.STORE64, mx.STOREI8, mx.STOREI32, mx.STOREI64}
	for _, op := range mem {
		c[op] = 2
	}
	memIdx := []mx.Op{mx.LOADIDX8, mx.LOADIDX32, mx.LOADIDX64,
		mx.STOREIDX8, mx.STOREIDX32, mx.STOREIDX64}
	for _, op := range memIdx {
		c[op] = 2
	}
	c[mx.IMULRR], c[mx.IMULRI] = 3, 3
	c[mx.DIVRR], c[mx.MODRR] = 20, 20
	c[mx.CALL], c[mx.CALLR], c[mx.RET] = 2, 3, 2
	c[mx.PUSH], c[mx.POP] = 2, 2
	c[mx.JMPR] = 2
	c[mx.JMPM] = 4
	locked := []mx.Op{mx.LOCKADD, mx.LOCKSUB, mx.LOCKAND, mx.LOCKOR,
		mx.LOCKXOR, mx.LOCKXADD, mx.LOCKINC, mx.LOCKDEC, mx.XCHG, mx.CMPXCHG}
	for _, op := range locked {
		c[op] = 8
	}
	c[mx.MFENCE] = 12
	c[mx.CALLX] = 10 // dispatch cost; per-function work added by the ext
	c[mx.VLOAD], c[mx.VSTORE] = 4, 4
	c[mx.VADD], c[mx.VMUL] = 2, 3
	c[mx.VBCAST], c[mx.VHADD] = 2, 3
	c[mx.TLSBASE] = 1
	return c
}()

// CostOf exposes the cycle cost of an opcode (used by lifting-time models).
func CostOf(op mx.Op) uint64 { return costs[op] }

func (t *Thread) setZS(v uint64) {
	t.ZF = v == 0
	t.SF = int64(v) < 0
}

func (t *Thread) setAddFlags(a, b, r uint64) {
	t.setZS(r)
	t.CF = r < a
	t.OF = (int64(a) >= 0) == (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
}

func (t *Thread) setSubFlags(a, b, r uint64) {
	t.setZS(r)
	t.CF = a < b
	t.OF = (int64(a) >= 0) != (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
}

// Eval evaluates a condition against the thread's flags.
func (t *Thread) Eval(cc mx.Cond) bool {
	switch cc {
	case mx.CondE:
		return t.ZF
	case mx.CondNE:
		return !t.ZF
	case mx.CondL:
		return t.SF != t.OF
	case mx.CondLE:
		return t.ZF || t.SF != t.OF
	case mx.CondG:
		return !t.ZF && t.SF == t.OF
	case mx.CondGE:
		return t.SF == t.OF
	case mx.CondB:
		return t.CF
	case mx.CondBE:
		return t.CF || t.ZF
	case mx.CondA:
		return !t.CF && !t.ZF
	case mx.CondAE:
		return !t.CF
	case mx.CondS:
		return t.SF
	case mx.CondNS:
		return !t.SF
	}
	return false
}

func sx32(v uint64) uint64 { return uint64(int64(int32(v))) }

// ea computes inst's base+disp effective address.
func (t *Thread) ea(inst *mx.Inst) uint64 {
	return t.Regs[inst.Base] + uint64(int64(inst.Disp))
}

// eaIdx computes inst's base+idx*scale+disp effective address.
func (t *Thread) eaIdx(inst *mx.Inst) uint64 {
	return t.Regs[inst.Base] + t.Regs[inst.Idx]*uint64(inst.Scale) + uint64(int64(inst.Disp))
}

// ---- instruction semantics -------------------------------------------------
//
// opHandlers is the machine's one definition of instruction semantics: both
// drivers — the per-step reference driver below and the threaded batch loop
// (step_threaded.go) — execute every instruction through it. The batch
// loop's inline micro-ops are hand-inlined copies of the simplest handlers,
// held to them by the differential tests.

// handler executes one decoded instruction. pc is the instruction address,
// next the fallthrough address; t.PC == next on entry. The return value is
// the "fallthrough" the driver compares t.PC against for the generic
// OnBlock site: handlers that must suppress that check (host frame resume,
// thread exit) return the final t.PC instead.
type handler func(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64

var (
	opHandlers [mx.NumOps]handler
	// simpleOps marks instructions eligible for flat runs: always fall
	// through, never call hooks or externals, never end the step loop.
	simpleOps [mx.NumOps]bool
)

func init() {
	for i := range opHandlers {
		opHandlers[i] = hUnimplemented
	}
	reg := func(op mx.Op, h handler, simple bool) {
		opHandlers[op] = h
		simpleOps[op] = simple
	}
	reg(mx.NOP, hNop, true)
	reg(mx.MOVRR, hMovRR, true)
	reg(mx.MOVRI, hMovRI, true)
	reg(mx.LEA, hLea, true)
	reg(mx.LEAIDX, hLeaIdx, true)
	reg(mx.LOAD8, hLoad8, true)
	reg(mx.LOAD32, hLoad32, true)
	reg(mx.LOAD64, hLoad64, true)
	reg(mx.STORE8, hStore8, true)
	reg(mx.STORE32, hStore32, true)
	reg(mx.STORE64, hStore64, true)
	reg(mx.STOREI8, hStoreI8, true)
	reg(mx.STOREI32, hStoreI32, true)
	reg(mx.STOREI64, hStoreI64, true)
	reg(mx.LOADIDX8, hLoadIdx8, true)
	reg(mx.LOADIDX32, hLoadIdx32, true)
	reg(mx.LOADIDX64, hLoadIdx64, true)
	reg(mx.STOREIDX8, hStoreIdx8, true)
	reg(mx.STOREIDX32, hStoreIdx32, true)
	reg(mx.STOREIDX64, hStoreIdx64, true)
	reg(mx.ADDRR, hAddRR, true)
	reg(mx.ADDRI, hAddRI, true)
	reg(mx.SUBRR, hSubRR, true)
	reg(mx.SUBRI, hSubRI, true)
	reg(mx.CMPRR, hCmpRR, true)
	reg(mx.CMPRI, hCmpRI, true)
	reg(mx.ANDRR, hAndRR, true)
	reg(mx.ANDRI, hAndRI, true)
	reg(mx.ORRR, hOrRR, true)
	reg(mx.ORRI, hOrRI, true)
	reg(mx.XORRR, hXorRR, true)
	reg(mx.XORRI, hXorRI, true)
	reg(mx.TESTRR, hTestRR, true)
	reg(mx.TESTRI, hTestRI, true)
	reg(mx.SHLRR, hShlRR, true)
	reg(mx.SHLRI, hShlRI, true)
	reg(mx.SHRRR, hShrRR, true)
	reg(mx.SHRRI, hShrRI, true)
	reg(mx.SARRR, hSarRR, true)
	reg(mx.SARRI, hSarRI, true)
	reg(mx.IMULRR, hImulRR, true)
	reg(mx.IMULRI, hImulRI, true)
	reg(mx.DIVRR, hDivRR, true)
	reg(mx.MODRR, hModRR, true)
	reg(mx.NEG, hNeg, true)
	reg(mx.NOT, hNot, true)
	reg(mx.SETCC, hSetcc, true)
	reg(mx.JMP, hJmp, false)
	reg(mx.JCC, hJcc, false)
	reg(mx.JMPR, hJmpR, false)
	reg(mx.JMPM, hJmpM, false)
	reg(mx.CALL, hCall, false)
	reg(mx.CALLR, hCallR, false)
	reg(mx.RET, hRet, false)
	reg(mx.CALLX, hCallX, false)
	reg(mx.SYSCALL, hSyscall, false)
	reg(mx.HLT, hHlt, false)
	reg(mx.UD2, hUd2, false)
	reg(mx.PUSH, hPush, true)
	reg(mx.POP, hPop, true)
	reg(mx.LOCKADD, hLockAdd, true)
	reg(mx.LOCKSUB, hLockSub, true)
	reg(mx.LOCKAND, hLockAnd, true)
	reg(mx.LOCKOR, hLockOr, true)
	reg(mx.LOCKXOR, hLockXor, true)
	reg(mx.LOCKXADD, hLockXadd, true)
	reg(mx.LOCKINC, hLockInc, true)
	reg(mx.LOCKDEC, hLockDec, true)
	reg(mx.XCHG, hXchg, true)
	reg(mx.CMPXCHG, hCmpxchg, true)
	reg(mx.MFENCE, hMfence, true)
	reg(mx.TLSBASE, hTlsBase, true)
	reg(mx.VLOAD, hVload, true)
	reg(mx.VSTORE, hVstore, true)
	reg(mx.VADD, hVadd, true)
	reg(mx.VMUL, hVmul, true)
	reg(mx.VBCAST, hVbcast, true)
	reg(mx.VHADD, hVhadd, true)
}

// stepThread is the reference driver: it executes one instruction on t.
// Run uses it for the switch dispatch mode, for machines without the
// predecode cache, and for counter-enabled runs, whose Counters attribute
// every fetch and retirement per step.
func (m *Machine) stepThread(t *Thread) {
	pc := t.PC
	inst, n, ok := m.fetchInst(pc)
	if !ok {
		m.faultf(t, pc, "instruction fetch from unmapped or non-executable memory")
		return
	}
	if inst.Op == mx.BAD {
		m.faultf(t, pc, "illegal instruction")
		return
	}
	m.insts++
	m.charge(t, costs[inst.Op])
	if m.ctr != nil {
		m.ctr.count(t.ID, inst)
	}
	next := pc + uint64(n)
	t.PC = next // default; control flow overrides
	fall := opHandlers[inst.Op](m, t, inst, pc, next)
	if m.fault == nil && m.OnBlock != nil && t.PC != fall && t.State == Runnable {
		m.OnBlock(t, t.PC)
	}
}

// The guest data-access seam: every handler data load and store (the JMPM
// table load aside; stack traffic has push and pop below) goes through these
// width-specialized accessors. They skip Memory's generic width switch,
// report faults at the instruction's own pc, and hold a weak machine's
// store buffer (weak.go): loads forward from it, stores append to it. TSO
// threads never buffer, so their loads pay one length check.

func (m *Machine) loadMem8(t *Thread, pc, addr uint64) (uint64, bool) {
	if len(t.sbuf) > 0 {
		if v, hit := m.forward(t, addr, 1); hit {
			return v, true
		}
	}
	v, ok := m.Mem.load8(addr)
	if !ok {
		m.faultf(t, pc, "load from unmapped address %#x", addr)
	}
	return v, ok
}

func (m *Machine) loadMem32(t *Thread, pc, addr uint64) (uint64, bool) {
	if len(t.sbuf) > 0 {
		if v, hit := m.forward(t, addr, 4); hit {
			return sx32(v), true
		}
	}
	v, ok := m.Mem.load32(addr)
	if !ok {
		m.faultf(t, pc, "load from unmapped address %#x", addr)
		return 0, false
	}
	return sx32(v), true
}

func (m *Machine) loadMem64(t *Thread, pc, addr uint64) (uint64, bool) {
	if len(t.sbuf) > 0 {
		if v, hit := m.forward(t, addr, 8); hit {
			return v, true
		}
	}
	v, ok := m.Mem.load64(addr)
	if !ok {
		m.faultf(t, pc, "load from unmapped address %#x", addr)
	}
	return v, ok
}

func (m *Machine) storeMem8(t *Thread, pc, addr, v uint64) bool {
	if m.weak {
		return m.storeBuffered(t, pc, addr, v, 1)
	}
	if !m.Mem.store8(addr, v) {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	return true
}

func (m *Machine) storeMem32(t *Thread, pc, addr, v uint64) bool {
	if m.weak {
		return m.storeBuffered(t, pc, addr, v, 4)
	}
	if !m.Mem.store32(addr, v) {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	return true
}

func (m *Machine) storeMem64(t *Thread, pc, addr, v uint64) bool {
	if m.weak {
		return m.storeBuffered(t, pc, addr, v, 8)
	}
	if !m.Mem.store64(addr, v) {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	return true
}

// atomicLoad opens a locked read-modify-write: an atomic is an ordering
// point on every machine, so the store buffer drains before the load.
func (m *Machine) atomicLoad(t *Thread, pc, addr uint64) (uint64, bool) {
	m.fence(t)
	return m.loadMem64(t, pc, addr)
}

// push and pop are the stack accessors of PUSH/POP/CALL/CALLR/RET; pc is
// the executing instruction, which a fault reports. Like the data seam
// above, they hold a weak machine's store buffer: a push is a buffered
// store and a pop forwards from the buffer.
func (m *Machine) push(t *Thread, pc, v uint64) bool {
	t.Regs[mx.RSP] -= 8
	sp := t.Regs[mx.RSP]
	if m.weak && m.Mem.Mapped(sp, 8) {
		return m.storeMem64(t, pc, sp, v)
	}
	if !m.Mem.store64(sp, v) {
		m.faultf(t, pc, "stack overflow: push to unmapped %#x", sp)
		return false
	}
	return true
}

func (m *Machine) pop(t *Thread, pc uint64) (uint64, bool) {
	sp := t.Regs[mx.RSP]
	if len(t.sbuf) > 0 {
		if v, hit := m.forward(t, sp, 8); hit {
			t.Regs[mx.RSP] = sp + 8
			return v, true
		}
	}
	v, ok := m.Mem.load64(sp)
	if !ok {
		m.faultf(t, pc, "pop from unmapped %#x", sp)
		return 0, false
	}
	t.Regs[mx.RSP] = sp + 8
	return v, true
}

// ---- per-opcode handlers --------------------------------------------------
//
// RR/RI source operands are specialized into separate handlers; see the
// handler type for the fallthrough contract.

func hUnimplemented(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "unimplemented opcode %v", i.Op)
	return next
}

func hNop(_ *Machine, _ *Thread, _ *mx.Inst, _, next uint64) uint64 {
	return next
}

func hMovRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.Regs[i.Src]
	return next
}

func hMovRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = uint64(i.Imm)
	return next
}

func hLea(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.ea(i)
	return next
}

func hLeaIdx(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.eaIdx(i)
	return next
}

func hLoad8(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem8(t, pc, t.ea(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoad32(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem32(t, pc, t.ea(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoad64(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem64(t, pc, t.ea(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hStore8(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem8(t, pc, t.ea(i), t.Regs[i.Dst])
	return next
}

func hStore32(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem32(t, pc, t.ea(i), t.Regs[i.Dst])
	return next
}

func hStore64(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem64(t, pc, t.ea(i), t.Regs[i.Dst])
	return next
}

func hStoreI8(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem8(t, pc, t.ea(i), uint64(i.Imm))
	return next
}

func hStoreI32(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem32(t, pc, t.ea(i), uint64(i.Imm))
	return next
}

func hStoreI64(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem64(t, pc, t.ea(i), uint64(i.Imm))
	return next
}

func hLoadIdx8(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem8(t, pc, t.eaIdx(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoadIdx32(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem32(t, pc, t.eaIdx(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLoadIdx64(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.loadMem64(t, pc, t.eaIdx(i)); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hStoreIdx8(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem8(t, pc, t.eaIdx(i), t.Regs[i.Dst])
	return next
}

func hStoreIdx32(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem32(t, pc, t.eaIdx(i), t.Regs[i.Dst])
	return next
}

func hStoreIdx64(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.storeMem64(t, pc, t.eaIdx(i), t.Regs[i.Dst])
	return next
}

func hAddRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], t.Regs[i.Src]
	r := a + b
	t.setAddFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hAddRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], uint64(i.Imm)
	r := a + b
	t.setAddFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hSubRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], t.Regs[i.Src]
	r := a - b
	t.setSubFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hSubRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], uint64(i.Imm)
	r := a - b
	t.setSubFlags(a, b, r)
	t.Regs[i.Dst] = r
	return next
}

func hCmpRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], t.Regs[i.Src]
	t.setSubFlags(a, b, a-b)
	return next
}

func hCmpRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	a, b := t.Regs[i.Dst], uint64(i.Imm)
	t.setSubFlags(a, b, a-b)
	return next
}

func hAndRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hAndRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hOrRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] | t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hOrRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] | uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hXorRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] ^ t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hXorRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] ^ uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	t.Regs[i.Dst] = r
	return next
}

func hTestRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & t.Regs[i.Src]
	t.setZS(r)
	t.CF, t.OF = false, false
	return next
}

func hTestRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] & uint64(i.Imm)
	t.setZS(r)
	t.CF, t.OF = false, false
	return next
}

func hShlRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] << (t.Regs[i.Src] & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hShlRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] << (uint64(i.Imm) & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hShrRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] >> (t.Regs[i.Src] & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hShrRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := t.Regs[i.Dst] >> (uint64(i.Imm) & 63)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hSarRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) >> (t.Regs[i.Src] & 63))
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hSarRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) >> (uint64(i.Imm) & 63))
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hImulRR(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) * int64(t.Regs[i.Src]))
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hImulRI(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := uint64(int64(t.Regs[i.Dst]) * i.Imm)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hDivRR(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	d := int64(t.Regs[i.Src])
	if d == 0 {
		m.faultf(t, pc, "integer divide by zero")
		return next
	}
	r := uint64(int64(t.Regs[i.Dst]) / d)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hModRR(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	d := int64(t.Regs[i.Src])
	if d == 0 {
		m.faultf(t, pc, "integer divide by zero")
		return next
	}
	r := uint64(int64(t.Regs[i.Dst]) % d)
	t.setZS(r)
	t.Regs[i.Dst] = r
	return next
}

func hNeg(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	r := -t.Regs[i.Dst]
	t.setSubFlags(0, t.Regs[i.Dst], r)
	t.Regs[i.Dst] = r
	return next
}

func hNot(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = ^t.Regs[i.Dst]
	return next
}

func hSetcc(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	if t.Eval(i.Cc) {
		t.Regs[i.Dst] = 1
	} else {
		t.Regs[i.Dst] = 0
	}
	return next
}

func hJmp(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	t.PC = next + uint64(int64(i.Disp))
	return next
}

func hJcc(m *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	if t.Eval(i.Cc) {
		t.PC = next + uint64(int64(i.Disp))
	} else if m.OnBlock != nil {
		// Block-granularity tracing: the untaken edge also enters a block
		// (the fallthrough), even though PC advances linearly.
		m.OnBlock(t, next)
	}
	return next
}

func hJmpR(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	target := t.Regs[i.Dst]
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, target, KindJump)
	}
	t.PC = target
	return next
}

func hJmpM(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	// The jump-table load reads memory directly, so it drains first.
	m.fence(t)
	slot := t.Regs[i.Base] + t.Regs[i.Idx]*8 + uint64(int64(i.Disp))
	target, ok := m.Mem.load64(slot)
	if !ok {
		m.faultf(t, pc, "jump table load from unmapped %#x", slot)
		return next
	}
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, target, KindJump)
	}
	t.PC = target
	return next
}

func hCall(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if !m.push(t, pc, next) {
		return next
	}
	t.PC = next + uint64(int64(i.Disp))
	return next
}

func hCallR(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	target := t.Regs[i.Dst]
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, target, KindCall)
	}
	if !m.push(t, pc, next) {
		return next
	}
	t.PC = target
	return next
}

func hRet(m *Machine, t *Thread, _ *mx.Inst, pc, next uint64) uint64 {
	retAddr, ok := m.pop(t, pc)
	if !ok {
		return next
	}
	switch retAddr {
	case magicThreadExit:
		m.threadReturned(t)
		// stepThread returns before its OnBlock site here; suppress ours.
		return t.PC
	case magicHostFrame:
		m.resumeHostFrame(t)
		return t.PC
	}
	if m.OnIndirect != nil {
		m.OnIndirect(t, pc, retAddr, KindRet)
	}
	t.PC = retAddr
	return next
}

func hCallX(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.fence(t) // the host reads guest memory directly
	if int(i.Ext) >= len(m.exts) || m.exts[i.Ext] == nil {
		m.faultf(t, pc, "call to unbound import #%d", i.Ext)
		return next
	}
	m.charge(t, m.extCost[i.Ext])
	if err := m.exts[i.Ext](m, t); err != nil {
		m.faultf(t, pc, "external %q: %v", m.Img.Imports[i.Ext], err)
		return next
	}
	if m.OnBlock != nil && t.PC == next && t.State == Runnable {
		// The instruction after an external call starts a new block.
		m.OnBlock(t, next)
	}
	return next
}

func hSyscall(m *Machine, t *Thread, _ *mx.Inst, pc, next uint64) uint64 {
	m.fence(t)
	m.faultf(t, pc, "raw syscall executed (unsupported)")
	return next
}

func hHlt(m *Machine, t *Thread, _ *mx.Inst, _, next uint64) uint64 {
	m.fence(t)
	m.exit(int(int64(t.Regs[mx.RDI])))
	return next
}

func hUd2(m *Machine, t *Thread, _ *mx.Inst, pc, next uint64) uint64 {
	m.faultf(t, pc, "ud2 executed")
	return next
}

func hPush(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	m.push(t, pc, t.Regs[i.Dst])
	return next
}

func hPop(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	if v, ok := m.pop(t, pc); ok {
		t.Regs[i.Dst] = v
	}
	return next
}

func hLockAdd(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	r := old + t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockSub(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	r := old - t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockAnd(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	r := old & t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockOr(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	r := old | t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockXor(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	r := old ^ t.Regs[i.Dst]
	if !m.storeMem64(t, pc, addr, r) {
		return next
	}
	t.setZS(r)
	return next
}

func hLockXadd(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, old+t.Regs[i.Dst]) {
		return next
	}
	t.Regs[i.Dst] = old
	return next
}

func hLockInc(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, old+1) {
		return next
	}
	t.setZS(old + 1)
	return next
}

func hLockDec(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, old-1) {
		return next
	}
	t.setZS(old - 1)
	return next
}

func hXchg(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	if !m.storeMem64(t, pc, addr, t.Regs[i.Dst]) {
		return next
	}
	t.Regs[i.Dst] = old
	return next
}

func hCmpxchg(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	old, ok := m.atomicLoad(t, pc, addr)
	if !ok {
		return next
	}
	if old == t.Regs[mx.RAX] {
		if !m.storeMem64(t, pc, addr, t.Regs[i.Dst]) {
			return next
		}
		t.ZF = true
	} else {
		t.Regs[mx.RAX] = old
		t.ZF = false
	}
	return next
}

func hMfence(m *Machine, t *Thread, _ *mx.Inst, _, next uint64) uint64 {
	// TSO machine: interpreter execution is sequentially consistent
	// already. Weak machine: the fence drains the store buffer.
	m.fence(t)
	return next
}

func hTlsBase(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	t.Regs[i.Dst] = t.TLS
	return next
}

func hVload(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	for l := 0; l < mx.VectorWidth; l++ {
		v, ok := m.loadMem64(t, pc, addr+uint64(l*8))
		if !ok {
			return next
		}
		t.VRegs[i.Dst][l] = v
	}
	return next
}

func hVstore(m *Machine, t *Thread, i *mx.Inst, pc, next uint64) uint64 {
	addr := t.ea(i)
	for l := 0; l < mx.VectorWidth; l++ {
		if !m.storeMem64(t, pc, addr+uint64(l*8), t.VRegs[i.Dst][l]) {
			return next
		}
	}
	return next
}

func hVadd(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	for l := 0; l < mx.VectorWidth; l++ {
		t.VRegs[i.Dst][l] += t.VRegs[i.Src][l]
	}
	return next
}

func hVmul(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	for l := 0; l < mx.VectorWidth; l++ {
		t.VRegs[i.Dst][l] = uint64(int64(t.VRegs[i.Dst][l]) * int64(t.VRegs[i.Src][l]))
	}
	return next
}

func hVbcast(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	for l := 0; l < mx.VectorWidth; l++ {
		t.VRegs[i.Dst][l] = t.Regs[i.Src]
	}
	return next
}

func hVhadd(_ *Machine, t *Thread, i *mx.Inst, _, next uint64) uint64 {
	var s uint64
	for l := 0; l < mx.VectorWidth; l++ {
		s += t.VRegs[i.Src][l]
	}
	t.Regs[i.Dst] = s
	return next
}

// resumeHostFrame re-enters the topmost suspended host state machine.
func (m *Machine) resumeHostFrame(t *Thread) {
	if len(t.hostFrames) == 0 {
		m.faultf(t, t.PC, "return to host frame with no frame pending")
		return
	}
	fr := t.hostFrames[len(t.hostFrames)-1]
	done, err := fr.frame.resume(m, t, t.Regs[mx.RAX])
	if err != nil {
		m.faultf(t, t.PC, "host frame: %v", err)
		return
	}
	if done {
		t.PC = fr.cont
		t.hostFrames = t.hostFrames[:len(t.hostFrames)-1]
	}
}

// callGuest arranges for t to call the guest function at fn with the given
// register arguments, returning control to the host frame when it RETs.
func (m *Machine) callGuest(t *Thread, fn uint64, args ...uint64) {
	if m.OnGuestEntry != nil {
		m.OnGuestEntry(fn)
	}
	argRegs := []mx.Reg{mx.RDI, mx.RSI, mx.RDX, mx.RCX, mx.R8, mx.R9}
	for i, v := range args {
		t.Regs[argRegs[i]] = v
	}
	m.push(t, t.PC, magicHostFrame)
	t.PC = fn
}
