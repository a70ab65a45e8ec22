package main

import (
	"sync"
	"time"
)

// The host a benchmark like this runs on changes speed by tens of percent
// over seconds and minutes: neighbours on the same cores, frequency. A
// wall-clock figure then says as much about the host as about the system.
// pace samples the host's speed between the benchmark's jobs, throughout
// a run (set-up, timed phase and check phase), on a fixed kernel that
// calls nothing of the system under test, and takes the median of the
// samples' rates: a slow change of the host's speed moves every sample,
// a burst (the collector, a neighbour) only some. A sample never overlaps
// system work: it waits until no job runs and holds new ones off until it
// is done, and it warms its own table before timing it, so what the
// system did before leaves no trace in the reading. A wall-clock figure
// scaled by the kernel's rate over the same run reads as if the host had
// run at the reference rate all along.

// paceRef is the kernel's reference rate in million steps per second:
// about its reading on a quiet 2-vCPU x86-64 host at 2 GHz with a 2 MiB
// L2 per core, where the benchmark was set up. Paced figures read as if
// measured at this rate; the notes print every paced figure unpaced as
// well.
const paceRef = 48.0

// paceEvery is the least wall time between two samples where jobs run
// concurrently and a sample holds them all off, and between set-ups;
// serial timed and check phases sample between every two jobs. paceSteps is one sample's work, under two
// milliseconds at the reference rate. Every sample counts the same,
// however long the job before it ran: no sample may interrupt a long job,
// so weighting samples by the time they stand for would hand the whole
// job to the one sample after it.
const (
	paceEvery = 100 * time.Millisecond
	paceSteps = 1 << 16
)

// pace collects the kernel's rate samples over one run. Its methods are
// safe for concurrent use.
type pace struct {
	// gate is held shared by every job run through job and exclusively by
	// a sample, so that no system work runs while the kernel is timed.
	gate  sync.RWMutex
	mu    sync.Mutex
	tab   []uint64 // 1 MiB, warmed before each sample: the kernel reads it from the core's own caches
	x     uint64
	last  time.Time
	rates []float64 // million steps per second, one per sample
}

func newPace() *pace {
	p := &pace{tab: make([]uint64, 1<<17), x: 88172645463325252}
	for i := range p.tab {
		p.tab[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return p
}

// job runs f, one unit of system work of a phase whose jobs run on more
// than one goroutine; a sample waits for it and for every other job.
func (p *pace) job(f func()) {
	p.gate.RLock()
	defer p.gate.RUnlock()
	f()
}

// due reports whether every has passed since the last sample.
func (p *pace) due(every time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last.IsZero() || time.Since(p.last) >= every
}

// tick samples the host now; serial phases call it between jobs.
func (p *pace) tick() { p.tickEvery(0) }

// tickEvery samples the host if every has passed since the last sample.
// Call it between jobs, never from inside one: a due sample first waits
// for every job running through job to end, and holds new ones off.
func (p *pace) tickEvery(every time.Duration) {
	if !p.due(every) {
		return
	}
	p.gate.Lock()
	defer p.gate.Unlock()
	if p.due(every) { // another goroutine may have sampled while this one waited
		p.sample()
	}
}

// sample runs the kernel: a data-dependent walk over the table with
// loads, stores, branches and shifts, like an interpreter's inner loop.
// One untimed pass over the table first brings it into the caches, so
// that the reading does not depend on how much of it the system's last
// job evicted.
func (p *pace) sample() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var warm uint64
	for _, v := range p.tab {
		warm += v
	}
	mask := uint64(len(p.tab) - 1)
	x := p.x + warm&1
	t0 := time.Now()
	for i := 0; i < paceSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		if v := p.tab[j]; v&1 == 0 {
			p.tab[j] = v + x
		} else {
			x += v >> 3
		}
	}
	p.last = time.Now()
	p.rates = append(p.rates, paceSteps/p.last.Sub(t0).Seconds()/1e6)
	p.x = x
}

// factor is the host's speed over the run relative to the reference:
// above 1 when the host ran faster. With no sample it is 1.
func (p *pace) factor() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.rates) == 0 {
		return 1
	}
	return median(p.rates) / paceRef
}

// samples is how many samples the run took.
func (p *pace) samples() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.rates)
}

// paceTimes scales wall-time figures of m to the reference speed by p.
func paceTimes(m map[string]float64, p *pace, names ...string) {
	f := p.factor()
	for _, n := range names {
		m[n] *= f
	}
}

// paceRates scales per-second figures of m to the reference speed by p.
func paceRates(m map[string]float64, p *pace, names ...string) {
	f := p.factor()
	for _, n := range names {
		m[n] /= f
	}
}
