package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Cross-ISA comparison (BENCH_xisa.json): the same workloads recompiled for
// every lowering target, with fence optimization off and on. The record
// pins the tentpole claims of the target-parameterized backend:
//
//   - the default mx64 (TSO) backend emits zero fence instructions — the
//     machine provides the ordering;
//   - the weakly-ordered mx64w backend emits real fences (>0), and the
//     spinloop-detection fence optimization reduces that count;
//   - both targets' recompiled binaries pass their workload checks, and the
//     per-target code sizes, guest instructions and simulated cycles are
//     recorded for trend tracking.
//
// Every cell is deterministic (untimed rows: Det only), so the record and
// the printed table are identical across runs and worker counts.
//
// The regenerated file is committed at internal/bench/BENCH_xisa.json; CI
// regenerates it, asserts the fence invariants, diffs its rows against the
// committed file, and uploads the fresh file as a workflow artifact
// (cross-ISA smoke job).

// xisaWorkloads names the measured set: three Phoenix-style programs with
// distinct fence-optimization outcomes (linear_regression is provable,
// word_count is provable, histogram needs the forced-removal annotation).
var xisaWorkloads = []string{"linear_regression", "word_count", "histogram"}

// xisaTargets is the measured target sweep.
var xisaTargets = []string{"mx64", "mx64w"}

// XISATable measures every (workload × target × fence-opt) cell. Each cell
// recompiles for its own target — the sweep deliberately ignores the
// harness-wide -target setting — and runs the result once, checked.
func (h *Harness) XISATable() ([]Row, string, error) {
	defer h.trackWall(time.Now())
	cfgs := len(xisaTargets) * 2
	rows := make([]Row, len(xisaWorkloads)*cfgs)
	err := h.forEach(len(rows), func(ci int) error {
		w := workloads.ByName(xisaWorkloads[ci/cfgs])
		target := xisaTargets[(ci%cfgs)/2]
		fo := ci%2 == 1
		r, err := h.xisaCell(w, target, fo)
		if err != nil {
			return fmt.Errorf("%s target=%s fo=%v: %w", w.Name, target, fo, err)
		}
		rows[ci] = r
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return rows, formatXISA(rows), nil
}

// xisaCell recompiles w for target (full pipeline: trace, optional fence
// optimization with the perfTable forced-removal convention) and runs the
// recompiled binary once, checked.
func (h *Harness) xisaCell(w *workloads.Workload, target string, fenceOpt bool) (Row, error) {
	img, err := w.Compile(2)
	if err != nil {
		return Row{}, err
	}
	o := h.coreOptions()
	o.Target = target
	p, err := core.NewProject(img, o)
	if err != nil {
		return Row{}, err
	}
	defer h.stats.absorb(p)
	if _, err := p.Trace([]core.Input{w.Input()}); err != nil {
		return Row{}, err
	}
	if fenceOpt {
		rep, err := p.FenceOptimize([]core.Input{w.Input()})
		if err != nil {
			return Row{}, err
		}
		if !rep.FencesRemovable {
			p.ForceFenceRemoval()
		}
	}
	rec, err := p.Recompile()
	if err != nil {
		return Row{}, err
	}
	res, err := runOnce(w, rec)
	if err != nil {
		return Row{}, err
	}
	if err := w.Check(res); err != nil {
		return Row{}, err
	}
	return Row{
		Layer:  "xisa",
		Name:   w.Name,
		Params: map[string]string{"target": target, "fence_opt": strconv.FormatBool(fenceOpt)},
		Det: map[string]int64{
			"code_size": int64(p.Stats.CodeSize),
			"fences":    int64(p.Stats.Fences),
			"insts":     int64(res.Insts),
			"cycles":    int64(res.Cycles),
		},
	}, nil
}

func formatXISA(rows []Row) string {
	rows = append([]Row(nil), rows...)
	sortRows(rows)
	var sb strings.Builder
	sb.WriteString("Cross-ISA: per-target code size, emitted fences, simulated cycles\n")
	fmt.Fprintf(&sb, "%-20s %-7s %-4s %-10s %-8s %s\n",
		"Workload", "Target", "FO", "CodeSize", "Fences", "Cycles")
	fences := map[string]int64{} // per configuration: "<target>", "<target>+fo"
	for _, r := range rows {
		fo, cfg := "-", r.Params["target"]
		if r.Params["fence_opt"] == "true" {
			fo, cfg = "on", cfg+"+fo"
		}
		fences[cfg] += r.Det["fences"]
		fmt.Fprintf(&sb, "%-20s %-7s %-4s %-10d %-8d %d\n",
			r.Name, r.Params["target"], fo, r.Det["code_size"], r.Det["fences"], r.Det["cycles"])
	}
	cfgs := make([]string, 0, len(fences))
	for k := range fences {
		cfgs = append(cfgs, k)
	}
	sort.Strings(cfgs)
	sb.WriteString("\nTotal emitted fences per configuration:\n")
	for _, k := range cfgs {
		fmt.Fprintf(&sb, "  %-10s %d\n", k, fences[k])
	}
	return sb.String()
}
