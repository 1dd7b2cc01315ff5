package core

import (
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/tuner"
)

func TestCapGPSetUnderCap(t *testing.T) {
	xs := [][]float64{{1}, {2}}
	ys := []float64{0.1, 0.2}
	ox, oy := capGPSet(xs, ys, 10)
	if len(ox) != 2 || len(oy) != 2 {
		t.Fatalf("under-cap set modified: %d/%d", len(ox), len(oy))
	}
}

func TestCapGPSetKeepsBestAndRecent(t *testing.T) {
	n := 20
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = []float64{float64(i)}
		ys[i] = float64(i % 7) // best values scattered early and late
	}
	ys[3] = 100 // an early standout that must survive
	ox, oy := capGPSet(xs, ys, 8)
	if len(ox) > 8+1 { // halves may overlap; never exceeds cap+overlap slack
		t.Fatalf("capped set too large: %d", len(ox))
	}
	foundBest, foundLast := false, false
	for i := range ox {
		if ox[i][0] == 3 && oy[i] == 100 {
			foundBest = true
		}
		if ox[i][0] == float64(n-1) {
			foundLast = true
		}
	}
	if !foundBest {
		t.Fatal("best measurement dropped by cap")
	}
	if !foundLast {
		t.Fatal("most recent measurement dropped by cap")
	}
}

func TestTopMeasured(t *testing.T) {
	ys := []float64{5, 30, 10, 20}
	order := []int64{100, 200, 300, 400}
	top := topMeasured(ys, order, 2)
	if len(top) != 2 || top[0] != 200 || top[1] != 400 {
		t.Fatalf("topMeasured = %v want [200 400]", top)
	}
	// k larger than data.
	top = topMeasured(ys, order, 10)
	if len(top) != 4 {
		t.Fatalf("topMeasured full = %v", top)
	}
}

func TestNormalizeAndMax(t *testing.T) {
	v := tuner.Normalize([]float64{2, 4, 0})
	if v[1] != 1 || v[0] != 0.5 || v[2] != 0 {
		t.Fatalf("normalize = %v", v)
	}
	if got := tuner.Normalize([]float64{0, 0}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("normalize zeros = %v", got)
	}
	if maxOf([]float64{1, 3, 2}) != 3 {
		t.Fatal("maxOf")
	}
	if tuner.SqrtPos(-1) != 0 || math.Abs(tuner.SqrtPos(4)-2) > 1e-12 {
		t.Fatal("SqrtPos")
	}
}

func TestSortScoredDesc(t *testing.T) {
	cands := []scoredCand{{1, 0.5}, {2, 0.9}, {3, 0.1}}
	sortScoredDesc(cands)
	if cands[0].idx != 2 || cands[1].idx != 1 || cands[2].idx != 3 {
		t.Fatalf("sortScoredDesc = %v", cands)
	}
}
