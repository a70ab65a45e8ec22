package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// This file defines BENCH_vm.json, the interpreter-throughput record emitted
// by the internal/vm micro-benchmarks (go test -bench . ./internal/vm/...).
// The regenerated file is committed at internal/bench/BENCH_vm.json next to
// the other BENCH records, and CI both uploads the fresh file as a workflow
// artifact and asserts the threaded-over-switch ratio against the committed
// baseline.

// VMBenchEntry is one interpreter micro-benchmark measurement.
type VMBenchEntry struct {
	// Name identifies the benchmark variant, e.g. "StepLoop".
	Name string `json:"name"`
	// Dispatch is the dispatch driver measured: "threaded" (per-page
	// dispatch tables with fused pairs and inline micro-ops) or "switch"
	// (the per-step reference driver).
	Dispatch string `json:"dispatch"`
	// Cache records whether the predecoded instruction cache was on
	// (false is the uncached differential path, standing in for the
	// decode-every-step interpreter; it always runs the reference driver).
	Cache bool `json:"cache"`
	// Insts is the total number of guest instructions executed.
	Insts uint64 `json:"insts"`
	// Seconds is the wall-clock time those instructions took.
	Seconds float64 `json:"seconds"`
	// InstsPerSec is the headline throughput (Insts / Seconds).
	InstsPerSec float64 `json:"insts_per_sec"`
}

// VMBenchReport is the BENCH_vm.json document.
type VMBenchReport struct {
	Benchmarks []VMBenchEntry `json:"benchmarks"`
	// Speedups holds, per benchmark name measured in the relevant variants:
	//   "<name>/icache":   switch+cache over switch+nocache (decode-once win)
	//   "<name>/threaded": threaded+cache over switch+cache (dispatch win)
	//   "<name>/total":    threaded+cache over switch+nocache (stacked)
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

// NewVMBenchReport assembles a report, computing the per-tier speedups for
// every benchmark name measured in the variants each ratio needs.
func NewVMBenchReport(entries []VMBenchEntry) *VMBenchReport {
	r := &VMBenchReport{Benchmarks: append([]VMBenchEntry(nil), entries...)}
	sort.SliceStable(r.Benchmarks, func(i, j int) bool {
		a, b := r.Benchmarks[i], r.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Dispatch != b.Dispatch {
			return a.Dispatch < b.Dispatch
		}
		return a.Cache && !b.Cache
	})
	ips := map[string]float64{}
	for _, e := range r.Benchmarks {
		key := e.Name + "|" + e.Dispatch
		if !e.Cache {
			key += "|nocache"
		}
		ips[key] = e.InstsPerSec
	}
	add := func(name, tier string, num, den float64) {
		if num > 0 && den > 0 {
			if r.Speedups == nil {
				r.Speedups = map[string]float64{}
			}
			r.Speedups[name+"/"+tier] = num / den
		}
	}
	names := map[string]bool{}
	for _, e := range r.Benchmarks {
		names[e.Name] = true
	}
	for name := range names {
		swCache := ips[name+"|switch"]
		swNocache := ips[name+"|switch|nocache"]
		threaded := ips[name+"|threaded"]
		add(name, "icache", swCache, swNocache)
		add(name, "threaded", threaded, swCache)
		add(name, "total", threaded, swNocache)
	}
	return r
}

// WriteVMBench writes the report for entries to path as indented JSON.
func WriteVMBench(path string, entries []VMBenchEntry) error {
	data, err := json.MarshalIndent(NewVMBenchReport(entries), "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
