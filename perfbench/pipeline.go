package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/image"
	"repro/internal/workloads"
)

// additiveMaxLoops bounds one §3.2 session; gobmk_like needs 16.
const additiveMaxLoops = 32

// pipeJob is one cold recompile job of the pipeline workload.
type pipeJob struct {
	w        *workloads.Workload
	opt      int
	additive bool // SPEC-like: RunAdditive instead of the Table-2 job
	native   *image.Image
}

func (p *pipeJob) key() string { return fmt.Sprintf("%s/O%d", p.w.Name, p.opt) }

// pipePrograms are the Table-2 style jobs (Phoenix, ckit, apps) and the
// additive ones (SPEC-like).
func pipePrograms(tiny bool) (full, additive []*workloads.Workload) {
	if tiny {
		return []*workloads.Workload{workloads.ByName("linear_regression"), workloads.CKit()[0]},
			[]*workloads.Workload{workloads.ByName("mcf_like")}
	}
	full = append(workloads.Phoenix(), workloads.CKit()...)
	full = append(full, workloads.Apps()...)
	return full, workloads.Spec()
}

// run executes the job's public calls cold, in a fresh project.
func (p *pipeJob) run(rec *recorder, parent int, t *tally) (*image.Image, int, error) {
	j := &job{w: p.w, rec: rec, parent: parent, t: t}
	if err := j.newProject(p.native, projectOptions("", 0)); err != nil {
		return nil, 0, err
	}
	if p.additive {
		res, err := j.additive(additiveMaxLoops)
		if err != nil {
			return nil, 0, err
		}
		return res.Img, j.p.Stats.CodeSize, nil
	}
	for _, step := range []func() error{j.trace, j.prune, func() error { return j.fenceOptimize(false) }} {
		if err := step(); err != nil {
			return nil, 0, err
		}
	}
	img, err := j.recompile()
	if err != nil {
		return nil, 0, err
	}
	return img, j.p.Stats.CodeSize, nil
}

// runPipeline is the pipeline workload: the Table-2 recompile job, cold and
// serial with two pipeline workers, over every Phoenix, ckit and apps
// program at -O0 and -O2, and the §3.2 additive loop over the SPEC-like
// programs; whole passes in a seeded order. Each recompiled image is run
// and checked after the timed phase.
func runPipeline(e *env, rec *recorder) (*result, error) {
	r := newResult()
	t := newTally()
	root := rec.begin("bench", -1)
	full, add := pipePrograms(e.tiny)
	var jobs []*pipeJob
	err := timeSetup(e, r, func(int) error {
		jobs = jobs[:0]
		for _, set := range []struct {
			ws       []*workloads.Workload
			additive bool
		}{{full, false}, {add, true}} {
			for _, w := range set.ws {
				for _, opt := range []int{0, 2} {
					img, err := compile(w, opt, rec, root, t)
					if err != nil {
						return err
					}
					jobs = append(jobs, &pipeJob{w: w, opt: opt, additive: set.additive, native: img})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type done struct {
		j   *pipeJob
		img *image.Image
	}
	var outs []done
	var lat []float64
	var passLat [][]float64 // per pass
	code := 0
	rng := rand.New(rand.NewSource(e.seed))
	settle()
	t0 := time.Now()
	for pass := 0; pass == 0 || !e.over(t0); pass++ {
		passLat = append(passLat, nil)
		for _, i := range rng.Perm(len(jobs)) {
			pj := jobs[i]
			r.attempted++
			r.pace.tick()
			s := time.Now()
			img, size, err := pj.run(rec, root, t)
			d := time.Since(s)
			if err != nil {
				r.failf("%s: %v", pj.key(), err)
				continue
			}
			lat = append(lat, ms(d))
			passLat[pass] = append(passLat[pass], lat[len(lat)-1])
			if pass == 0 {
				code += size
			}
			outs = append(outs, done{pj, img})
		}
	}
	elapsed := time.Since(t0)
	r.pace.tick()

	// Check phase: run every recompiled image once, and each native image
	// once for the cycle ratio.
	chk := rec.begin("bench", -1)
	native := map[string]uint64{}
	rated := map[string]bool{}
	var ratios []float64
	var insts, busy float64
	for _, o := range outs {
		r.output(o.j.key(), marshal(o.img))
		key := o.j.key()
		r.pace.tick()
		if _, ok := native[key]; !ok {
			run, ok := checkedRun(r, key+" native", o.j.w, o.j.native, guestFuel, rec, chk, false)
			if !ok {
				continue
			}
			native[key] = run.res.Cycles
			vmAccount(t, "native", run)
		}
		run, ok := checkedRun(r, key+" recompiled", o.j.w, o.img, guestFuel, rec, chk, rec != nil)
		if !ok {
			continue
		}
		vmAccount(t, "mx64", run)
		insts += float64(run.res.Insts)
		busy += (run.newDur + run.runDur).Seconds()
		if !rated[key] {
			rated[key] = true
			t.add("vm.insts", float64(run.res.Insts))
			ratios = append(ratios, float64(run.res.Cycles)/float64(native[key]))
		}
	}
	r.pace.tick()
	rec.end(chk)
	rec.end(root)

	p50, p90, q := passFigures(passLat)
	m := r.metrics
	m["job_p50_ms"] = p50
	m["job_p90_ms"] = p90
	m["pipeline_p50_ms"] = m["job_p50_ms"]
	m["pipeline_p90_ms"] = p90
	m["jobs_per_s"] = float64(len(lat)) / elapsed.Seconds()
	m["guest_mips"] = insts / busy / 1e6
	m["cycle_ratio_gm"] = geomean(ratios)
	m["code_bytes"] = float64(code)
	m["ok_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	pacedFigures(r, "pipeline_p50_ms", "pipeline_p90_ms")
	vmMetrics(r, t)
	m["vm.insts"] = t.total("vm.insts")
	pipelineMetrics(r, t)
	selfPct(r, rec)
	r.notes = append(r.notes, fmt.Sprintf("pipeline: %d jobs per pass, %d jobs in %.2fs, job figures are medians over %d passes, tail q=%.3f of a pass, %d programs varied across passes",
		len(jobs), len(lat), elapsed.Seconds(), len(passLat), q, variants(r.outputs)))
	return r, nil
}
