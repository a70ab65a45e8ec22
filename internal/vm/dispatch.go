package vm

// DispatchMode selects the interpreter's dispatch driver. Both drivers
// execute every instruction through the one handler table (opHandlers,
// step.go), so they are architecturally identical by contract: same
// results, same faults, same cycle/instruction totals, same Counters, same
// scheduler interleavings at every seed. TestDispatchIdentity and the
// randomized differential in fuzz_test.go pin that contract.
type DispatchMode uint8

const (
	// DispatchThreaded executes threaded code over predecoded pages: each
	// page carries a per-offset dispatch table (fused pairs and inline
	// micro-ops included) compiled lazily on first execution, and
	// straight-line runs of simple instructions retire with block-level
	// accounting. Every machine starts with it.
	DispatchThreaded DispatchMode = iota
	// DispatchSwitch runs the per-step reference driver (stepThread), the
	// differential oracle for the threaded driver.
	DispatchSwitch
)

func (d DispatchMode) String() string {
	if d == DispatchSwitch {
		return "switch"
	}
	return "threaded"
}

// SetDispatch selects this machine's dispatch driver (tests and
// benchmarks). Call before Run. Uncached machines (DisableCache) and
// counter-enabled runs always use the reference driver.
func (m *Machine) SetDispatch(d DispatchMode) { m.dispatch = d }
