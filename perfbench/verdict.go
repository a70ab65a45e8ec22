package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baselines"
	"repro/internal/image"
	"repro/internal/workloads"
)

// verdictFuel is every verdict-workload guest run's budget: a tenth of the
// paper tables' fuel, over 2000 times the largest clean run in the matrix.
const verdictFuel = 400_000_000

// verdictPasses is the least number of passes an untraced verdict run
// makes. A pass takes longer than a run's timed phase, so without it a run
// would measure one pass, and its job figures would be one pass's median
// and tail. Runs that set up once (each half of a traced run) make one
// pass, which keeps a traced run well inside its time limit.
const verdictPasses = 2

// recompilers are Table 1's columns as the verdict workload runs them.
var recompilers = []string{"polynima", "lasagne", "mcsema", "binrec"}

// expectVerdict is the pinned Table-1 ckit matrix: Polynima supports every
// lock, the Lasagne-like and BinRec-like baselines none, and the
// McSema-like one all but the three locks that livelock under its shared
// virtual state (§2.2.1) and ck_linux_spinlock.
func expectVerdict(recompiler, lock string) bool {
	switch recompiler {
	case "polynima":
		return true
	case "mcsema":
		switch lock {
		case "ck_clh", "ck_hclh", "ck_mcs", "ck_linux_spinlock":
			return false
		}
		return true
	}
	return false
}

// verdictCell is one (lock, recompiler) cell.
type verdictCell struct {
	w          *workloads.Workload
	img        *image.Image
	recompiler string
}

// cellStats is what one cell measured.
type cellStats struct {
	ok         bool
	why        string
	insts      uint64
	busy       time.Duration // inside NewWithExts + Run
	budgetHit  bool
	cycles     uint64 // Polynima cells only
	codeSize   int
	recompiled *image.Image
}

// run recompiles the lock with the cell's recompiler, runs the result
// within the budget and checks it.
func (c *verdictCell) run(rec *recorder, parent int, t *tally) cellStats {
	var st cellStats
	var img *image.Image
	var err error
	baseline := func(layer, metric string, f func() (*image.Image, error)) {
		sp := rec.begin(layer, parent)
		t0 := time.Now()
		img, err = f()
		t.add(metric, ms(time.Since(t0)))
		rec.end(sp)
	}
	switch c.recompiler {
	case "polynima":
		j := &job{w: c.w, rec: rec, parent: parent, t: t}
		// One pipeline worker: Table 1's verdicts do not depend on the
		// width, and a cell that uses one core does not slow down with
		// the host's other core.
		opts := projectOptions("", verdictFuel)
		opts.Workers = 1
		if err = j.newProject(c.img, opts); err == nil {
			if err = j.trace(); err == nil {
				img, err = j.recompile()
				st.codeSize = j.p.Stats.CodeSize
			}
		}
	case "lasagne":
		baseline("baselines", "baselines.mctoll.ms", func() (*image.Image, error) {
			out, _, err := baselines.MctollLike(c.img)
			return out, err
		})
	case "mcsema":
		baseline("baselines", "baselines.mcsema.ms", func() (*image.Image, error) {
			out, _, err := baselines.McSemaLike(c.img)
			return out, err
		})
	case "binrec":
		in := c.w.Input()
		baseline("baselines", "baselines.binrec.ms", func() (*image.Image, error) {
			br, err := baselines.BinRecLike(c.img, in.Data, in.Seed, verdictFuel, in.Exts)
			if err != nil {
				return nil, err
			}
			return br.Img, nil
		})
	}
	if err != nil {
		st.why = err.Error()
		return st
	}
	st.recompiled = img
	g, err := runImage(c.w, img, verdictFuel, rec, parent, rec != nil)
	if err == nil {
		st.insts, st.cycles = g.res.Insts, g.res.Cycles
		st.busy = g.newDur + g.runDur
		st.budgetHit = g.res.Insts >= verdictFuel
		vmAccount(t, "mx64", g)
		err = c.w.Check(g.res)
	}
	if err != nil {
		st.why = err.Error()
		return st
	}
	st.ok = true
	return st
}

// judge counts a cell whose verdict differs from the pinned matrix as a
// failed operation.
func judge(r *result, c *verdictCell, st cellStats) {
	if want := expectVerdict(c.recompiler, c.w.Name); st.ok != want {
		r.failf("%s under %s: ok=%v, Table 1 says %v (%s)", c.w.Name, c.recompiler, st.ok, want, st.why)
	}
}

func verdictLocks(tiny bool) []*workloads.Workload {
	locks := workloads.CKit()
	if tiny {
		var out []*workloads.Workload
		for _, w := range locks {
			if w.Name == "ck_cas" || w.Name == "ck_linux_spinlock" {
				out = append(out, w)
			}
		}
		return out
	}
	return locks
}

// runVerdict is the verdict workload: Table 1's support matrix for the
// ckit locks across Polynima and the Lasagne-, McSema- and BinRec-like
// baselines, each guest run within a fixed budget, in whole passes of a
// seeded cell order. A verdict that differs from the pinned matrix is a
// failed operation.
func runVerdict(e *env, rec *recorder) (*result, error) {
	r := newResult()
	t := newTally()
	root := rec.begin("bench", -1)
	locks := verdictLocks(e.tiny)
	var cells []*verdictCell
	err := timeSetup(e, r, func(int) error {
		cells = cells[:0]
		for _, w := range locks {
			img, err := compile(w, 2, rec, root, t)
			if err != nil {
				return err
			}
			for _, rc := range recompilers {
				cells = append(cells, &verdictCell{w: w, img: img, recompiler: rc})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(e.seed))
	var lat, passes []float64
	var passLat [][]float64 // per pass
	var insts, busy, spinInsts, spinBusy float64
	polyCycles := map[string]uint64{}
	code := 0
	okCount := map[string]int{}
	settle()
	t0 := time.Now()
	minPasses := verdictPasses
	if e.setups == 1 {
		minPasses = 1
	}
	for pass := 0; pass < minPasses || !e.over(t0); pass++ {
		passLat = append(passLat, nil)
		ps := time.Now()
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			r.attempted++
			r.pace.tick()
			s := time.Now()
			st := c.run(rec, root, t)
			lat = append(lat, ms(time.Since(s)))
			passLat[pass] = append(passLat[pass], lat[len(lat)-1])
			insts += float64(st.insts)
			busy += st.busy.Seconds()
			if st.budgetHit {
				spinInsts += float64(st.insts)
				spinBusy += st.busy.Seconds()
			}
			judge(r, c, st)
			if pass > 0 {
				continue
			}
			t.add("vm.insts", float64(st.insts))
			if st.ok {
				okCount[c.recompiler]++
			}
			if c.recompiler == "polynima" && st.ok {
				polyCycles[c.w.Name] = st.cycles
				code += st.codeSize
				r.output(c.w.Name, marshal(st.recompiled))
			}
			if st.budgetHit {
				t.add("verdict.budget_insts", float64(st.insts))
			}
		}
		passes = append(passes, time.Since(ps).Seconds())
	}
	elapsed := time.Since(t0)
	r.pace.tick()

	// Native runs for the cycle ratio of Polynima's column.
	var ratios []float64
	for _, c := range cells {
		if c.recompiler != "polynima" || polyCycles[c.w.Name] == 0 {
			continue
		}
		g, ok := checkedRun(r, c.w.Name+" native", c.w, c.img, verdictFuel, rec, root, false)
		if !ok {
			continue
		}
		vmAccount(t, "native", g)
		ratios = append(ratios, float64(polyCycles[c.w.Name])/float64(g.res.Cycles))
	}
	rec.end(root)

	p50, p90, q := passFigures(passLat)
	m := r.metrics
	m["job_p50_ms"] = p50
	m["job_p90_ms"] = p90
	m["jobs_per_s"] = float64(len(lat)) / elapsed.Seconds()
	m["guest_mips"] = insts / busy / 1e6
	m["cycle_ratio_gm"] = geomean(ratios)
	m["code_bytes"] = float64(code)
	m["ok_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	m["verdict_s"] = median(passes)
	pacedFigures(r, "verdict_s")
	if spinBusy > 0 {
		m["vm.spin_mips"] = spinInsts / spinBusy / 1e6
	}
	m["verdict.budget_insts"] = t.total("verdict.budget_insts")
	m["vm.insts"] = t.total("vm.insts")
	for _, k := range []string{"baselines.mcsema.ms", "baselines.mctoll.ms", "baselines.binrec.ms"} {
		m[k] = t.mean(k)
	}
	vmMetrics(r, t)
	pipelineMetrics(r, t)
	selfPct(r, rec)
	r.notes = append(r.notes, fmt.Sprintf("verdict: %d locks, ok counts polynima %d lasagne %d mcsema %d binrec %d; %d cells in %.2fs, job figures are medians over %d passes, tail q=%.3f of a pass",
		len(locks), okCount["polynima"], okCount["lasagne"], okCount["mcsema"], okCount["binrec"],
		len(lat), elapsed.Seconds(), len(passLat), q))
	return r, nil
}
