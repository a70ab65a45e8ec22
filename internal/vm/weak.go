package vm

// Weak-ordering machine mode (the MX64W target's execution model).
//
// An image whose Machine field names a weakly-ordered target runs with a
// per-thread FIFO store buffer: plain stores are buffered and become
// globally visible only when the buffer drains. Drains happen at every
// fence, atomic, external call, jump-table load, syscall/halt, when the
// buffer reaches capacity, and — crucially — whenever the scheduler runs a
// different thread. The running thread forwards its own buffered stores to
// its own loads (exact-match store-to-load forwarding; partially
// overlapping loads drain first), so single-threaded semantics are
// unchanged, while unfenced cross-thread visibility is exactly what the
// drain points allow.
//
// Because the buffer always drains before any other thread executes an
// instruction and before any host-visible access, every weak-mode execution
// is observationally equivalent to a sequentially consistent interleaving —
// the same guarantee the TSO machine gives — so a correctly fenced program
// produces byte-identical output on both machines. What changes is the
// contract: on this machine the *target's code generator* is responsible
// for ordering (emitting real fence instructions), not the machine, which
// is what makes emitted-fence counts and the fence-optimization pass
// measurable (§3.4). Instruction fetch bypasses the buffer.
//
// The buffer lives behind the handlers' width-specialized data-access seam
// (loadMem8/32/64, storeMem8/32/64 and the stack accessors push/pop in
// step.go), and each draining op's handler calls fence before its own
// semantics, so both dispatch drivers run weak machines. The threaded
// driver's inline load/store and push/pop micro-ops and its inline
// call/ret retirements skip the seam; compile() withholds them from weak
// machines.

// sbCap is the store-buffer capacity in entries; reaching it drains the
// whole buffer (modeling limited store-queue depth).
const sbCap = 8

// sbEntry is one buffered store.
type sbEntry struct {
	addr uint64
	val  uint64
	w    uint8
}

// drainSB flushes t's buffered stores to memory in FIFO order. Entries were
// validated as mapped when buffered, so the stores cannot fault.
func (m *Machine) drainSB(t *Thread) {
	for i := range t.sbuf {
		e := &t.sbuf[i]
		m.Mem.Store(e.addr, e.val, int(e.w))
	}
	t.sbuf = t.sbuf[:0]
	if m.sbOwner == t {
		m.sbOwner = nil
	}
}

// fence makes t's buffered stores globally visible: the drain the ordering
// ops (atomics, MFENCE, CALLX, JMPM, SYSCALL, HLT) perform before their own
// semantics. TSO threads never buffer, so there it is one length check.
func (m *Machine) fence(t *Thread) {
	if len(t.sbuf) > 0 {
		m.drainSB(t)
	}
}

// forward attempts store-to-load forwarding from t's buffer: hit means val
// is the newest buffered store to exactly (addr, w). A buffered store that
// intersects the loaded range without matching it exactly drains the
// buffer instead, so the caller's memory load reads the merged bytes.
func (m *Machine) forward(t *Thread, addr uint64, w int) (val uint64, hit bool) {
	end := addr + uint64(w)
	for i := len(t.sbuf) - 1; i >= 0; i-- {
		e := &t.sbuf[i]
		if e.addr == addr && int(e.w) == w {
			return e.val, true
		}
		if e.addr < end && addr < e.addr+uint64(e.w) {
			m.drainSB(t)
			return 0, false
		}
	}
	return 0, false
}

// storeBuffered is the store seam's weak-mode path: validate the target (fault
// attribution is identical to the direct path), then buffer the store.
// Stores into watched executable ranges write through after a drain, so
// self-modifying code invalidates the predecode cache at store time, in
// program order.
func (m *Machine) storeBuffered(t *Thread, pc, addr, v uint64, w int) bool {
	mem := m.Mem
	if mem.onWrite != nil && addr < mem.watchHi && addr+uint64(w) > mem.watchLo {
		m.drainSB(t)
		if !mem.Store(addr, v, w) {
			m.faultf(t, pc, "store to unmapped address %#x", addr)
			return false
		}
		return true
	}
	if !mem.Mapped(addr, uint64(w)) {
		m.faultf(t, pc, "store to unmapped address %#x", addr)
		return false
	}
	// Mask to the stored width now, so forwarded loads see exactly what a
	// memory round-trip would have produced.
	switch w {
	case 1:
		v &= 0xff
	case 4:
		v &= 0xffff_ffff
	}
	t.sbuf = append(t.sbuf, sbEntry{addr: addr, val: v, w: uint8(w)})
	m.sbOwner = t
	if len(t.sbuf) >= sbCap {
		m.drainSB(t)
	}
	return true
}
