package main

import (
	"reflect"
	"testing"
)

func TestPlanIsFixedBySeed(t *testing.T) {
	progs := daemonPrograms(false)
	a, b := makePlan(7, len(progs), 4000), makePlan(7, len(progs), 4000)
	if !reflect.DeepEqual(a, b) || planDigest(a, progs, len(a)) != planDigest(b, progs, len(b)) {
		t.Fatal("two plans from one seed differ")
	}
	if c := makePlan(8, len(progs), 4000); reflect.DeepEqual(a, c) {
		t.Fatal("plans from different seeds are equal")
	}
}

func TestPlanMix(t *testing.T) {
	const n, length = 21, 4000
	plan := makePlan(3, n, length)
	cold, variants := 0, map[int]bool{}
	warm := make([]int, n)
	for i, p := range plan {
		if p.cold {
			cold++
			if variants[p.variant] {
				t.Fatalf("cold variant %d sent twice", p.variant)
			}
			variants[p.variant] = true
		} else {
			warm[p.prog]++
		}
		if i%(warmPerCold+1) == warmPerCold {
			block := plan[i-warmPerCold : i+1]
			k := 0
			for _, q := range block {
				if q.cold {
					k++
				}
			}
			if k != 1 {
				t.Fatalf("block ending at %d has %d cold requests", i, k)
			}
		}
	}
	if cold != length/(warmPerCold+1) {
		t.Fatalf("%d cold requests of %d", cold, length)
	}
	hi, lo := 0, length
	for _, c := range warm {
		hi, lo = max(hi, c), min(lo, c)
	}
	if lo == 0 || hi < 5*lo {
		t.Fatalf("warm picks not skewed or not covering every program: max %d min %d", hi, lo)
	}
}
