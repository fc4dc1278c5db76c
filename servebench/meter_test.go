package main

import (
	"math"
	"slices"
	"testing"
)

func TestLeastStolenKeepsQuietHalf(t *testing.T) {
	got := leastStolen([]float64{0.3, 0, 0.5, 0.1, 0.2, 0})
	if want := []int{1, 3, 5}; !slices.Equal(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	if got := leastStolen([]float64{0, 0, 0}); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("equal steal kept %v, want every part", got)
	}
}

func TestSummaryIsMedianOverKeptParts(t *testing.T) {
	w := window{hs: make([]hist, 3), ops: []int64{100, 300, 200},
		wall: []float64{1, 1, 1}, cpu: []float64{0.01, 0.03, 0.04}}
	for k := range w.hs {
		for i := int64(0); i < w.ops[k]; i++ {
			w.hs[k].record((int64(k) + 1) * 1000)
		}
	}
	rate, p50, _, cpu := w.summary([]int{0, 1, 2})
	if rate != 200 {
		t.Errorf("rate %v, want the median 200", rate)
	}
	if math.Abs(p50-2000)/2000 > 0.01 {
		t.Errorf("p50 %v, want about 2000", p50)
	}
	if cpu != 1e-4 {
		t.Errorf("cpu per op %v, want the median 1e-4", cpu)
	}
}
