package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestXISAFenceInvariants pins the cross-ISA contract on one workload: the
// TSO mx64 backend emits zero fences, the weakly-ordered mx64w backend
// emits real fences, fence optimization strictly reduces the mx64w count,
// and every recompiled binary passes its workload check (xisaCell checks
// before returning).
func TestXISAFenceInvariants(t *testing.T) {
	h := NewHarness(1)
	w := workloads.ByName("linear_regression")

	mx64, err := h.xisaCell(w, "mx64", false)
	if err != nil {
		t.Fatal(err)
	}
	if mx64.Det["fences"] != 0 {
		t.Fatalf("mx64 emitted %d fences; TSO needs none", mx64.Det["fences"])
	}
	weak, err := h.xisaCell(w, "mx64w", false)
	if err != nil {
		t.Fatal(err)
	}
	if weak.Det["fences"] == 0 {
		t.Fatal("mx64w emitted no fences")
	}
	weakFO, err := h.xisaCell(w, "mx64w", true)
	if err != nil {
		t.Fatal(err)
	}
	if weakFO.Det["fences"] >= weak.Det["fences"] {
		t.Fatalf("fence-opt did not reduce fences: %d -> %d", weak.Det["fences"], weakFO.Det["fences"])
	}
	if weak.Det["code_size"] <= mx64.Det["code_size"] {
		t.Fatalf("register-poor mx64w code (%d insts) not larger than mx64 (%d)",
			weak.Det["code_size"], mx64.Det["code_size"])
	}
}

// TestFormatXISAFenceTotals checks the per-configuration fence totals the
// cross-ISA table prints (and CI sums from the same rows), and that the
// table lists rows in writer order whatever order they arrive in.
func TestFormatXISAFenceTotals(t *testing.T) {
	cell := func(w, target, fo string, fences int64) Row {
		return Row{
			Layer:  "xisa",
			Name:   w,
			Params: map[string]string{"target": target, "fence_opt": fo},
			Det:    map[string]int64{"fences": fences},
		}
	}
	out := formatXISA([]Row{
		cell("b", "mx64w", "false", 3),
		cell("a", "mx64w", "true", 1),
		cell("a", "mx64", "false", 0),
		cell("a", "mx64w", "false", 2),
	})
	for _, want := range []string{
		fmt.Sprintf("  %-10s %d\n", "mx64", 0),
		fmt.Sprintf("  %-10s %d\n", "mx64w", 5),
		fmt.Sprintf("  %-10s %d\n", "mx64w+fo", 1),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing total %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "a ") || !strings.Contains(lines[2], "mx64 ") {
		t.Fatalf("first row is not workload a on mx64:\n%s", out)
	}
	if first, last := strings.Index(out, "\na "), strings.Index(out, "\nb "); first < 0 || last < first {
		t.Fatalf("rows not in writer order:\n%s", out)
	}
}
