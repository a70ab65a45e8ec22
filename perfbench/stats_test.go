package main

import (
	"math"
	"testing"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, k int }{
		{0, 0}, {1, 1}, {8, 5}, {15, 8}, {20, 11}, {44, 34}, {60, 50}, {100, 90}, {164, 148}, {1000, 900},
	} {
		if k := tailRank(c.n); k != c.k {
			t.Errorf("tailRank(%d) = %d, want %d", c.n, k, c.k)
		}
	}
	for n := 21; n <= 2000; n++ {
		k := tailRank(n)
		if n-k < 10 || 10*k > 9*n+9 {
			t.Fatalf("n=%d: rank %d leaves %d beyond, quantile %.3f", n, k, n-k, float64(k)/float64(n))
		}
		// Maximal: one rank higher breaks one of the two limits.
		if k1 := k + 1; n-k1 >= 10 && 10*k1 < 9*n+9 && (9*n+9)/10 >= k1 {
			t.Fatalf("n=%d: rank %d is not the highest allowed", n, k)
		}
	}
}

func TestTailPicksSortedSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	v, q := tail(xs)
	if v != 90 || q != 0.9 {
		t.Fatalf("tail = %v at q=%v, want 90 at 0.9", v, q)
	}
	if v, q := tail(nil); v != 0 || q != 0 {
		t.Fatalf("tail(nil) = %v, %v", v, q)
	}
}

func TestTailIsNeverBelowMedian(t *testing.T) {
	for n := 1; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i * i)
		}
		if v, _ := tail(xs); v < median(xs) {
			t.Fatalf("n=%d: tail %v below median %v", n, v, median(xs))
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{[]float64{1, 4}, 2}, {[]float64{2, 8, 4}, 4}, {[]float64{1.5}, 1.5}} {
		if g := geomean(c.xs); math.Abs(g-c.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, g, c.want)
		}
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if g := geomean(xs); !math.IsNaN(g) {
			t.Errorf("geomean(%v) = %v, want NaN", xs, g)
		}
	}
}

func TestPassFiguresAreMediansOverGroups(t *testing.T) {
	fast := make([]float64, 44)
	slow := make([]float64, 44)
	for i := range fast {
		fast[i] = float64(i + 1)
		slow[i] = 2 * float64(i+1)
	}
	p50, p90, q := passFigures([][]float64{fast, slow, fast, nil})
	if p50 != median(fast) || p90 != 34 || q != 34.0/44 {
		t.Fatalf("passFigures = %v, %v, q=%v", p50, p90, q)
	}
}
