package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/image"
	"repro/internal/workloads"
)

// guestImage is one image the guest-run workload executes.
type guestImage struct {
	w    *workloads.Workload
	opt  int
	kind string // native, mx64, mx64-fo or mx64w
	img  *image.Image
}

func (g *guestImage) key() string { return fmt.Sprintf("%s/O%d/%s", g.w.Name, g.opt, g.kind) }

// guestPrograms is the guest-run program set: the 7 Phoenix and 8
// 64-bit gapbs programs (Tables 2 and 3).
func guestPrograms(tiny bool) []*workloads.Workload {
	if tiny {
		return []*workloads.Workload{workloads.ByName("linear_regression"), workloads.Gapbs(64)[2]}
	}
	return append(workloads.Phoenix(), workloads.Gapbs(64)...)
}

// setupWorkers is how many programs a guest-run set-up builds at once:
// the host's two cores.
const setupWorkers = 2

// buildGuestImages compiles each program at -O0 and -O2 and recompiles it
// for mx64 with trace and prune (Tables 2 and 3); Phoenix -O2 also with
// fence optimisation, and every -O2 build also for mx64w. Programs build
// on setupWorkers goroutines; the images keep program order.
func buildGuestImages(progs []*workloads.Workload, rec *recorder, parent int, t *tally, r *result) ([]*guestImage, int, error) {
	per := make([][]*guestImage, len(progs))
	codes := make([]int, len(progs))
	errs := make([]error, len(progs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < setupWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(progs); i = int(next.Add(1) - 1) {
				per[i], codes[i], errs[i] = buildProgram(progs[i], rec, parent, t)
			}
		}()
	}
	wg.Wait()
	var out []*guestImage
	code := 0
	for i := range progs {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		for _, g := range per[i] {
			if g.kind != "native" {
				r.output(g.key(), marshal(g.img))
			}
		}
		out = append(out, per[i]...)
		code += codes[i]
	}
	return out, code, nil
}

// buildProgram builds one program's images and sums their code size.
func buildProgram(w *workloads.Workload, rec *recorder, parent int, t *tally) ([]*guestImage, int, error) {
	var out []*guestImage
	code := 0
	for _, opt := range []int{0, 2} {
		native, err := compile(w, opt, rec, parent, t)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, &guestImage{w: w, opt: opt, kind: "native", img: native})
		kinds := []string{"mx64"}
		if opt == 2 {
			if w.Family == "phoenix" {
				kinds = append(kinds, "mx64-fo")
			}
			kinds = append(kinds, "mx64w")
		}
		for _, kind := range kinds {
			target := ""
			if kind == "mx64w" {
				target = "mx64w"
			}
			j := &job{w: w, rec: rec, parent: parent, t: t}
			if err := j.newProject(native, projectOptions(target, 0)); err != nil {
				return nil, 0, err
			}
			if err := j.trace(); err != nil {
				return nil, 0, err
			}
			if err := j.prune(); err != nil {
				return nil, 0, err
			}
			if kind == "mx64-fo" {
				if err := j.fenceOptimize(true); err != nil {
					return nil, 0, err
				}
			}
			img, err := j.recompile()
			if err != nil {
				return nil, 0, fmt.Errorf("%s/O%d/%s: %w", w.Name, opt, kind, err)
			}
			code += j.p.Stats.CodeSize
			out = append(out, &guestImage{w: w, opt: opt, kind: kind, img: img})
		}
	}
	return out, code, nil
}

// runGuest is the guest-run workload: set-up builds every image; the timed
// phase runs each image on its input in a seeded order, in whole passes,
// and checks each result with Workload.Check.
func runGuest(e *env, rec *recorder) (*result, error) {
	r := newResult()
	t := newTally()
	root := rec.begin("bench", -1)
	progs := guestPrograms(e.tiny)
	var images []*guestImage
	err := timeSetup(e, r, func(int) error {
		var code int
		var err error
		images, code, err = buildGuestImages(progs, rec, root, t, r)
		r.metrics["code_bytes"] = float64(code)
		return err
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(e.seed))
	var lat []float64
	var passLat [][]float64 // per pass
	var insts, busy float64
	cycles := map[string]uint64{}
	settle()
	t0 := time.Now()
	var passMips []string
	for pass := 0; pass == 0 || !e.over(t0); pass++ {
		passLat = append(passLat, nil)
		pi, pb := insts, busy
		for _, i := range rng.Perm(len(images)) {
			g := images[i]
			r.pace.tick()
			run, ok := checkedRun(r, g.key(), g.w, g.img, guestFuel, rec, root, rec != nil)
			if !ok {
				continue
			}
			d := run.newDur + run.runDur
			lat = append(lat, ms(d))
			passLat[pass] = append(passLat[pass], lat[len(lat)-1])
			insts += float64(run.res.Insts)
			busy += d.Seconds()
			kind := g.kind
			if kind == "mx64-fo" {
				kind = "mx64"
			}
			vmAccount(t, kind, run)
			if pass == 0 {
				t.add("vm.insts", float64(run.res.Insts))
				cycles[g.key()] = run.res.Cycles
			}
		}
		passMips = append(passMips, fmt.Sprintf("%.2f", (insts-pi)/(busy-pb)/1e6))
	}
	elapsed := time.Since(t0)
	r.pace.tick()
	rec.end(root)

	var ratios []float64
	for _, g := range images {
		if g.kind != "mx64" {
			continue
		}
		nat := cycles[fmt.Sprintf("%s/O%d/native", g.w.Name, g.opt)]
		if rc := cycles[g.key()]; nat > 0 && rc > 0 {
			ratios = append(ratios, float64(rc)/float64(nat))
		}
	}
	p50, p90, q := passFigures(passLat)
	m := r.metrics
	m["job_p50_ms"] = p50
	m["job_p90_ms"] = p90
	m["jobs_per_s"] = float64(len(lat)) / elapsed.Seconds()
	m["guest_mips"] = insts / busy / 1e6
	m["cycle_ratio_gm"] = geomean(ratios)
	m["ok_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	pacedFigures(r)
	m["vm.insts"] = t.total("vm.insts")
	vmMetrics(r, t)
	pipelineMetrics(r, t)
	selfPct(r, rec)
	r.notes = append(r.notes, fmt.Sprintf("guest-run: %d images, %d runs in %.2fs, job figures are medians over %d passes, tail q=%.3f of a pass, %d cycle ratios, Minst/s by pass %v",
		len(images), len(lat), elapsed.Seconds(), len(passLat), q, len(ratios), passMips))
	return r, nil
}
