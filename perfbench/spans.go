package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the system.
type span struct {
	layer      string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// recorder keeps the spans of one traced run in memory. A nil recorder is
// the untraced path: begin returns -1 and end ignores it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span of layer under parent and returns its id.
func (r *recorder) begin(layer string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{layer: layer, parent: parent, start: now, end: -1})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// add records an already-measured interval, for work whose start and end
// the benchmark learns after the fact (server-side job phases).
func (r *recorder) add(layer string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{layer: layer, parent: parent,
		start: start.Sub(r.t0), end: end.Sub(r.t0)})
	r.mu.Unlock()
}

// endOf returns the wall-clock end of span id.
func (r *recorder) endOf(id int) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t0.Add(r.spans[id].end)
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover (overlapping children, as two
// workers under one parent make, are counted once). Children are found
// through parent indexes into spans.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.layer] += s.end - s.start - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of kids' intervals, clipped to p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
