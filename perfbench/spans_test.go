package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{layer: "bench", parent: -1, start: d(0), end: d(10)},
		{layer: "vm", parent: 0, start: d(1), end: d(3)},
		{layer: "vm", parent: 0, start: d(2), end: d(5)}, // overlaps its sibling
		{layer: "core", parent: 0, start: d(7), end: d(8)},
		{layer: "lower", parent: 3, start: d(7), end: d(12)}, // runs past its parent
		{layer: "cc", parent: -1, start: d(20), end: d(21)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": d(10) - d(5), // children cover [1,5] and [7,8]
		"vm":    d(2) + d(3),
		"core":  0, // its child covers all of it
		"lower": d(5),
		"cc":    d(1),
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self(%s) = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestNilRecorderIsUntraced(t *testing.T) {
	var r *recorder
	id := r.begin("vm", -1)
	r.end(id)
	r.add("core", id, time.Now(), time.Now())
	if id != -1 || r.snapshot() != nil {
		t.Fatalf("nil recorder recorded span %d", id)
	}
}

func TestSelfPctSumsToHundred(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("bench", -1)
	for i := 0; i < 3; i++ {
		sp := rec.begin("vm", root)
		time.Sleep(time.Millisecond)
		rec.end(sp)
	}
	rec.end(root)
	r := newResult()
	selfPct(r, rec)
	total := 0.0
	for _, l := range layers {
		total += r.metrics["self_pct."+l]
	}
	if total < 99.999 || total > 100.001 || r.metrics["self_pct.vm"] <= 0 {
		t.Fatalf("self_pct total %v, vm %v", total, r.metrics["self_pct.vm"])
	}
}
