package main

import (
	"math"
	"testing"
	"time"
)

func TestPaceFactorIsMedianRateOverReference(t *testing.T) {
	p := newPace()
	if f := p.factor(); f != 1 {
		t.Fatalf("unsampled factor %v, want 1", f)
	}
	// A burst slows one sample of three; the median ignores it.
	p.rates = []float64{paceRef / 2, paceRef / 10, paceRef / 2}
	if f, want := p.factor(), 0.5; math.Abs(f-want) > 1e-12 {
		t.Fatalf("factor %v, want %v", f, want)
	}
	m := map[string]float64{"job_p50_ms": 10, "jobs_per_s": 10}
	paceTimes(m, p, "job_p50_ms")
	paceRates(m, p, "jobs_per_s")
	if math.Abs(m["job_p50_ms"]-5) > 1e-12 || math.Abs(m["jobs_per_s"]-20) > 1e-12 {
		t.Fatalf("paced figures %v", m)
	}
}

func TestPaceTickEverySamplesAtMostEveryInterval(t *testing.T) {
	p := newPace()
	p.tickEvery(time.Hour)
	p.tickEvery(time.Hour) // immediately after: no new sample
	if n := p.samples(); n != 1 {
		t.Fatalf("%d samples, want 1", n)
	}
	p.tick()
	if n := p.samples(); n != 2 {
		t.Fatalf("%d samples after tick, want 2", n)
	}
	if f := p.factor(); !(f > 0) {
		t.Fatalf("factor %v after a sample", f)
	}
}

func TestPaceSampleWaitsForRunningJobs(t *testing.T) {
	p := newPace()
	started, release := make(chan struct{}), make(chan struct{})
	jobDone := make(chan struct{})
	go func() {
		p.job(func() {
			close(started)
			<-release
		})
		close(jobDone)
	}()
	<-started
	sampled := make(chan struct{})
	go func() {
		p.tick()
		close(sampled)
	}()
	select {
	case <-sampled:
		t.Fatal("sampled while a job ran")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-jobDone
	<-sampled
	if p.samples() != 1 {
		t.Fatal("no sample after the job ended")
	}
}
