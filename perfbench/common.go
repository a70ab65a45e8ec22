package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// guestFuel bounds a guest run that is expected to finish; it matches the
// paper tables' budget.
const guestFuel = 4_000_000_000

// pipeWorkers is the pipeline's lift/opt width: the host's two cores.
const pipeWorkers = 2

// tally accumulates named sums and call counts from any goroutine.
type tally struct {
	mu  sync.Mutex
	sum map[string]float64
	n   map[string]int
}

func newTally() *tally { return &tally{sum: map[string]float64{}, n: map[string]int{}} }

func (t *tally) add(name string, v float64) {
	t.mu.Lock()
	t.sum[name] += v
	t.n[name]++
	t.mu.Unlock()
}

func (t *tally) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sum[name]
}

func (t *tally) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return perCall(t.sum[name], t.n[name])
}

// compile builds w at opt under a cc span.
func compile(w *workloads.Workload, opt int, rec *recorder, parent int, t *tally) (*image.Image, error) {
	sp := rec.begin("cc", parent)
	t0 := time.Now()
	img, err := w.Compile(opt)
	t.add("cc.compile_ms", ms(time.Since(t0)))
	rec.end(sp)
	return img, err
}

// projectOptions are the options of every benchmark recompile: defaults,
// two pipeline workers, the given target and fuel.
func projectOptions(target string, fuel uint64) core.Options {
	o := core.DefaultOptions()
	o.Workers = pipeWorkers
	o.Target = target
	if fuel > 0 {
		o.Fuel = fuel
	}
	return o
}

// job is one recompile job through core.Project's public calls, each under
// its own span, with the per-call figures tallied.
type job struct {
	w      *workloads.Workload
	rec    *recorder
	parent int
	t      *tally
	p      *core.Project
}

func (j *job) in() []core.Input { return []core.Input{j.w.Input()} }

// call times one public call as a span of layer and tallies its ms.
func (j *job) call(layer, metric string, f func() error) error {
	sp := j.rec.begin(layer, j.parent)
	t0 := time.Now()
	err := f()
	j.t.add(metric, ms(time.Since(t0)))
	j.rec.end(sp)
	return err
}

func (j *job) newProject(img *image.Image, opts core.Options) error {
	return j.call("disasm", "disasm.ms", func() error {
		p, err := core.NewProject(img, opts)
		if err == nil {
			j.p = p
			j.t.add("disasm.blocks", float64(p.Stats.Blocks))
		}
		return err
	})
}

func (j *job) trace() error {
	return j.call("tracer", "tracer.ms", func() error {
		res, err := j.p.Trace(j.in())
		if err == nil {
			j.t.add("tracer.insts", float64(res.Insts))
		}
		return err
	})
}

func (j *job) prune() error {
	return j.call("core", "prune.ms", func() error { return j.p.PruneCallbacks(j.in()) })
}

// fenceOptimize runs spindet; force applies removal despite a conservative
// verdict, as Table 2's FO columns do.
func (j *job) fenceOptimize(force bool) error {
	return j.call("spindet", "spindet.ms", func() error {
		rep, err := j.p.FenceOptimize(j.in())
		if err != nil {
			return err
		}
		if rep.FencesRemovable {
			j.t.add("spindet.removable", 1)
		} else if force {
			j.p.ForceFenceRemoval()
		}
		return nil
	})
}

// stageClocks snapshots the pipeline's stage clocks in core.Stats.
type stageClocks struct{ lift, opt, wall, lower time.Duration }

func (j *job) clocks() stageClocks {
	s := &j.p.Stats
	return stageClocks{s.LiftTime, s.OptTime, s.LiftOptWall, s.LowerTime}
}

// attribute splits a core span's interval among lifter, opt and lower by
// the core.Stats deltas of the call: lift and opt share the lift+opt wall
// time in proportion to their CPU time. The synthetic child spans carry
// true durations; only their placement inside the parent is nominal.
func (j *job) attribute(parent int, start, end time.Time, before stageClocks) {
	after := j.clocks()
	lift, opt := after.lift-before.lift, after.opt-before.opt
	wall, lower := after.wall-before.wall, after.lower-before.lower
	j.t.add("lift.ms", ms(lift))
	j.t.add("opt.ms", ms(opt))
	j.t.add("liftopt.wall_ms", ms(wall))
	j.t.add("lower.ms", ms(lower))
	if j.rec == nil || parent < 0 {
		return
	}
	if lift+opt > 0 {
		lw := time.Duration(float64(wall) * float64(lift) / float64(lift+opt))
		j.rec.add("lifter", parent, start, start.Add(lw))
		j.rec.add("opt", parent, start.Add(lw), start.Add(wall))
	}
	j.rec.add("lower", parent, end.Add(-lower), end)
}

func (j *job) recompile() (*image.Image, error) {
	sp := j.rec.begin("core", j.parent)
	before := j.clocks()
	t0 := time.Now()
	img, err := j.p.Recompile()
	t1 := time.Now()
	j.rec.end(sp)
	j.t.add("recompile.ms", ms(t1.Sub(t0)))
	if err == nil {
		j.t.add("funcs", float64(j.p.Stats.Funcs))
		j.attribute(sp, t0, t1, before)
	}
	return img, err
}

func (j *job) additive(maxLoops int) (*core.AdditiveResult, error) {
	sp := j.rec.begin("core", j.parent)
	before := j.clocks()
	t0 := time.Now()
	res, err := j.p.RunAdditive(j.w.Input(), maxLoops)
	t1 := time.Now()
	j.rec.end(sp)
	j.t.add("additive.ms", ms(t1.Sub(t0)))
	if err == nil {
		j.t.add("additive.loops", float64(len(res.Timeline)))
		for _, l := range res.Timeline {
			j.t.add("additive.hits", float64(l.CacheHits))
			j.t.add("additive.relifted", float64(l.Relifted))
		}
		j.attribute(sp, t0, t1, before)
	}
	return res, err
}

// guestRun is one NewWithExts + Run of an image on w's input.
type guestRun struct {
	res      vm.Result
	newDur   time.Duration
	runDur   time.Duration
	counters *vm.Counters
}

// runImage runs img on w's primary input under a vm span; with counters it
// enables the VM's counters first (traced runs only).
func runImage(w *workloads.Workload, img *image.Image, fuel uint64, rec *recorder, parent int, counters bool) (guestRun, error) {
	var g guestRun
	in := w.Input()
	sp := rec.begin("vm", parent)
	defer rec.end(sp)
	t0 := time.Now()
	m, err := vm.NewWithExts(img, in.Seed, in.Exts)
	if err != nil {
		return g, err
	}
	if in.Data != nil {
		m.SetInput(in.Data)
	}
	if counters {
		g.counters = m.EnableCounters()
	}
	t1 := time.Now()
	g.newDur = t1.Sub(t0)
	g.res = m.Run(fuel)
	g.runDur = time.Since(t1)
	return g, nil
}

// checkedRun runs img on w's input and checks the result with
// Workload.Check. The run is one attempted operation of r; a fault or a
// wrong result counts it as failed under key.
func checkedRun(r *result, key string, w *workloads.Workload, img *image.Image, fuel uint64,
	rec *recorder, parent int, counters bool) (guestRun, bool) {
	r.attempted++
	g, err := runImage(w, img, fuel, rec, parent, counters)
	if err == nil {
		err = w.Check(g.res)
	}
	if err != nil {
		r.failf("%s: %v", key, err)
		return g, false
	}
	return g, true
}

// vmAccount tallies one guest run of an image of kind (native, mx64 or
// mx64w), with its counters when the run had them enabled.
func vmAccount(t *tally, kind string, g guestRun) {
	t.add("vm.insts."+kind, float64(g.res.Insts))
	t.add("vm.busy."+kind, (g.newDur + g.runDur).Seconds())
	t.add("vm.new_ms", ms(g.newDur))
	c := g.counters
	if c == nil {
		return
	}
	t.add("vm.icache.hit", float64(c.ICacheHits))
	t.add("vm.icache.miss", float64(c.ICacheMisses))
	t.add("vm.tlb.hit", float64(c.TLBHits))
	t.add("vm.tlb.miss", float64(c.TLBMisses))
	t.add("vm.preemptions", float64(c.Preemptions))
	t.add("vm.lock_rmw", float64(c.LockRMW))
	t.add("vm.fences", float64(c.Fences))
	t.add("vm.spill_ops", float64(c.SpillOps))
}

// vmMetrics sets the VM's per-layer metrics from t.
func vmMetrics(r *result, t *tally) {
	for _, kind := range []string{"native", "mx64", "mx64w"} {
		if busy := t.total("vm.busy." + kind); busy > 0 {
			r.metrics["vm.mips."+kind] = t.total("vm.insts."+kind) / busy / 1e6
		}
	}
	r.metrics["vm.new_ms"] = t.mean("vm.new_ms")
	r.metrics["vm.icache_hit_ratio"] = ratio(t.total("vm.icache.hit"), t.total("vm.icache.miss"))
	r.metrics["vm.tlb_hit_ratio"] = ratio(t.total("vm.tlb.hit"), t.total("vm.tlb.miss"))
	for _, k := range []string{"vm.preemptions", "vm.lock_rmw", "vm.fences", "vm.spill_ops"} {
		r.metrics[k] = t.total(k)
	}
}

// pipelineMetrics sets the per-call pipeline figures tallied in t.
func pipelineMetrics(r *result, t *tally) {
	for _, k := range []string{"disasm.ms", "disasm.blocks", "tracer.ms", "tracer.insts",
		"prune.ms", "spindet.ms", "recompile.ms", "lift.ms", "opt.ms", "lower.ms",
		"liftopt.wall_ms", "funcs", "additive.ms", "additive.loops", "cc.compile_ms"} {
		r.metrics[k] = t.mean(k)
	}
	r.metrics["spindet.removable"] = t.total("spindet.removable")
	r.metrics["additive.cache_hit_ratio"] = ratio(t.total("additive.hits"), t.total("additive.relifted"))
}

// selfPct sets self_pct.<layer> from the recorded spans: each layer's self
// time as a share of all self time, which counts the wall time of
// concurrent spans (the daemon's two clients) once per span.
func selfPct(r *result, rec *recorder) {
	if rec == nil {
		return
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	var all time.Duration
	for _, d := range self {
		all += d
	}
	for _, l := range layers {
		r.metrics["self_pct."+l] = 100 * float64(self[l]) / float64(max(all, 1))
	}
}

// minSetupTotal is how long an untraced run's set-ups last at least: a
// cheap set-up repeats, up to maxSetups times, so that setup_s is the
// median of enough repetitions to be steady.
const (
	minSetupTotal = 2 * time.Second
	maxSetups     = 200
)

// timeSetup runs f e.setups times, or more while a short set-up has not
// yet filled minSetupTotal, and records each duration. It samples the
// host's pace between set-ups at most every paceEvery, so that a cheap
// set-up repeated many times does not fill the run's samples with its
// first two seconds.
func timeSetup(e *env, r *result, f func(rep int) error) error {
	for i := 0; i < e.setups || (e.setups > 1 && i < maxSetups && sum(r.setup) < minSetupTotal); i++ {
		r.pace.tickEvery(paceEvery)
		t0 := time.Now()
		if err := f(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0))
	}
	r.pace.tick()
	return nil
}

// pacedFigures notes the run's unpaced wall-clock end-to-end figures and
// scales them to the reference host speed: latencies (job_p50_ms,
// job_p90_ms and the workload's own, in times), jobs_per_s and guest_mips.
func pacedFigures(r *result, times ...string) {
	m := r.metrics
	times = append([]string{"job_p50_ms", "job_p90_ms"}, times...)
	note := "unpaced"
	for _, k := range append(times, "jobs_per_s", "guest_mips") {
		note += fmt.Sprintf(" %s=%.6g", k, m[k])
	}
	r.notes = append(r.notes, fmt.Sprintf("%s; pace factor %.4f over %d samples", note, r.pace.factor(), r.pace.samples()))
	paceTimes(m, r.pace, times...)
	paceRates(m, r.pace, "jobs_per_s", "guest_mips")
}

// settle collects the set-up's garbage before a timed phase starts, so
// that every timed phase begins from a collected heap.
func settle() { runtime.GC() }

// over reports whether the timed phase that began at t0 is over.
func (e *env) over(t0 time.Time) bool {
	return time.Since(t0).Seconds() >= e.seconds
}

// marshal returns img's bytes for digests and sizes.
func marshal(img *image.Image) []byte {
	data, err := img.Marshal()
	if err != nil {
		return nil
	}
	return data
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
