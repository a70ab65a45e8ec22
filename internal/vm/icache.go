package vm

import (
	"repro/internal/mx"
)

// This file implements the interpreter's decode-once fast path: a predecoded
// instruction cache keyed by page base. On the first fetch into an executable
// page the machine decodes the whole page — one instruction per byte offset,
// since MX64 is variable-length and control can enter at any byte — and every
// later fetch in that page indexes a struct instead of calling mx.Decode.
//
// Code bytes are read from guest Memory, not from the image, so the cache
// (and the uncached path of DisableCache, which decodes from the same memory
// on every step) sees stores into code pages: Memory's write watcher calls
// invalidateCode for any store that lands in an executable range, and the
// page is re-decoded from the updated bytes on the next fetch. Decode windows
// are clamped to the owning section's end, so a final truncated instruction
// decodes as BAD exactly as a byte-exact uncached fetch would see it.

// codePage is the predecoded form of one executable guest page. Under
// threaded dispatch (step_threaded.go) it additionally carries a per-offset
// dispatch table, compiled lazily by compile() on the page's first threaded
// execution; the reference driver ignores it. Write invalidation drops the
// whole codePage, so fused-pair choices and flat-run metadata can never
// outlive the bytes they were compiled from.
type codePage struct {
	insts [pageSize]mx.Inst
	// lens[off] is the encoded length of insts[off]; 0 means the address
	// is outside every executable section and fetching it faults.
	lens [pageSize]uint8

	// threaded-dispatch state (see step_threaded.go)
	compiled bool
	disp     [pageSize]dispatchEnt
}

// noPage is the icBase sentinel for "no page cached" (never a page base:
// page bases are page-aligned).
const noPage = ^uint64(0)

// fetchInst returns the decoded instruction at pc and its encoded length.
// ok=false means pc is not executable (unmapped or outside every Exec
// section); a BAD instruction with ok=true is an illegal-instruction fault.
// The returned pointer aliases the cache (or the machine's uncached scratch
// slot) and is only valid until the next fetch or code-page invalidation.
func (m *Machine) fetchInst(pc uint64) (*mx.Inst, int, bool) {
	if m.nocache {
		return m.decodeUncached(pc)
	}
	base := pc &^ (pageSize - 1)
	cp := m.icPage
	if base != m.icBase {
		cp = m.icache[base]
		if cp == nil {
			cp = m.fillCodePage(base)
			m.icache[base] = cp
			if m.ctr != nil {
				m.ctr.ICacheMisses++
			}
		} else if m.ctr != nil {
			m.ctr.ICacheHits++
		}
		m.icBase, m.icPage = base, cp
	} else if m.ctr != nil {
		m.ctr.ICacheHits++
	}
	off := pc & (pageSize - 1)
	n := cp.lens[off]
	if n == 0 {
		return nil, 0, false
	}
	return &cp.insts[off], int(n), true
}

// fillCodePage predecodes the executable portions of the page at base from
// guest memory. Offsets outside every Exec section keep lens 0 (fetch
// faults there).
func (m *Machine) fillCodePage(base uint64) *codePage {
	cp := new(codePage)
	for i := range m.Img.Sections {
		s := &m.Img.Sections[i]
		if !s.Exec {
			continue
		}
		lo, hi := s.Addr, s.Addr+s.Size
		if lo < base {
			lo = base
		}
		if hi > base+pageSize {
			hi = base + pageSize
		}
		if lo >= hi {
			continue
		}
		run, ok := m.Mem.ReadBytes(lo, hi-lo)
		if !ok {
			continue // loader maps every section page; unreachable
		}
		// Tail: bytes after the page boundary that a straddling
		// instruction may need, clamped to the section end so
		// truncation semantics match an uncached fetch.
		var tail []byte
		tailEnd := s.Addr + s.Size
		if max := hi + mx.MaxEncodedLen - 1; tailEnd > max {
			tailEnd = max
		}
		if tailEnd > hi {
			if tb, ok := m.Mem.ReadBytes(hi, tailEnd-hi); ok {
				tail = tb
			}
		}
		insts, lens := mx.DecodePage(run, tail)
		copy(cp.insts[lo-base:], insts)
		copy(cp.lens[lo-base:], lens)
	}
	return cp
}

// decodeUncached is the uncached fetch path (DisableCache): find the executable section,
// read one instruction window from guest memory, and decode it. Semantically
// identical to the cached path (including window clamping at section ends),
// just without memoization.
func (m *Machine) decodeUncached(pc uint64) (*mx.Inst, int, bool) {
	s := m.Img.FindSection(pc)
	if s == nil || !s.Exec {
		return nil, 0, false
	}
	window := s.Addr + s.Size - pc
	if window > mx.MaxEncodedLen {
		window = mx.MaxEncodedLen
	}
	var buf [mx.MaxEncodedLen]byte
	got := m.Mem.readInto(pc, buf[:window])
	inst, n := mx.Decode(buf[:got])
	m.uncachedInst = inst
	return &m.uncachedInst, n, true
}

// invalidateCode drops the predecoded pages that could hold an instruction
// overlapping a written code page: the page itself and its predecessor (an
// instruction starting in the last MaxEncodedLen-1 bytes of the previous
// page straddles into this one). Registered as the Memory write watcher over
// the image's executable ranges.
func (m *Machine) invalidateCode(pageBase uint64) {
	if m.ctr != nil {
		if _, ok := m.icache[pageBase]; ok {
			m.ctr.ICacheInvalidations++
		}
		if _, ok := m.icache[pageBase-pageSize]; ok {
			m.ctr.ICacheInvalidations++
		}
	}
	delete(m.icache, pageBase)
	delete(m.icache, pageBase-pageSize)
	if m.icBase == pageBase || m.icBase == pageBase-pageSize {
		m.icBase, m.icPage = noPage, nil
	}
}

// DisableCache turns off the predecoded instruction cache for this machine:
// every step decodes its instruction from guest memory through the
// reference driver. Execution results are identical either way; the
// uncached machine is the oracle the self-modifying-code and cache
// identity tests (TestCacheIdentity) and BenchmarkStepLoop compare
// against. Call before Run.
func (m *Machine) DisableCache() { m.nocache = true }
