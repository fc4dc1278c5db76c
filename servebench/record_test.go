package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// exactQuantile is the nearest-rank quantile of sorted samples.
func exactQuantile(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestHistMatchesSortedPercentiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	shapes := map[string]func() int64{
		"uniform-us":  func() int64 { return 1000 + rng.Int64N(300_000) },
		"lognormal":   func() int64 { return int64(math.Exp(10 + 1.5*rng.NormFloat64())) },
		"bimodal":     func() int64 { return []int64{60_000, 1_200_000}[rng.IntN(2)] + rng.Int64N(5_000) },
		"small-exact": func() int64 { return rng.Int64N(128) },
	}
	for name, draw := range shapes {
		t.Run(name, func(t *testing.T) {
			h := newHist()
			samples := make([]int64, 50_000)
			for i := range samples {
				samples[i] = draw()
				h.record(samples[i])
			}
			slices.Sort(samples)
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := exactQuantile(samples, q)
				got := h.quantile(q)
				if rel := math.Abs(got-want) / math.Max(want, 1); rel > 0.01 {
					t.Errorf("q%.3f: got %.0f, exact %.0f (%.2f%% off)", q, got, want, 100*rel)
				}
			}
		})
	}
}

func TestHistMergeAndReset(t *testing.T) {
	a, b := newHist(), newHist()
	for i := int64(1); i <= 100; i++ {
		a.record(i * 1000)
		b.record(i * 1000)
	}
	a.merge(b)
	if a.n != 200 {
		t.Fatalf("merged count %d, want 200", a.n)
	}
	if got := a.quantile(0.5); math.Abs(got-50_000)/50_000 > 0.01 {
		t.Fatalf("merged median %.0f, want about 50000", got)
	}
	a.reset()
	if a.n != 0 || !math.IsNaN(a.quantile(0.5)) {
		t.Fatal("reset left samples behind")
	}
}

func TestRecordersDoNotAllocate(t *testing.T) {
	h, s, o := newHist(), newValueSet(1<<16), newRTOrder()
	v := int64(0)
	n := testing.AllocsPerRun(1000, func() {
		floor := o.begin()
		h.record(123456)
		s.add(v)
		o.end(floor, v)
		v++
	})
	if n != 0 {
		t.Fatalf("recording one operation allocates %.1f times", n)
	}
}

func TestValueSetDense(t *testing.T) {
	s := newValueSet(1 << 10)
	for _, v := range rand.New(rand.NewPCG(1, 2)).Perm(300) {
		s.add(int64(v))
	}
	if err := s.checkDense(300); err != nil {
		t.Fatalf("legal [0,300): %v", err)
	}
	if err := s.checkDense(301); err == nil {
		t.Fatal("a missing value 300 passed")
	}
	if err := s.checkDense(299); err == nil {
		t.Fatal("value 299 outside [0,299) passed")
	}
}

func TestValueSetFlagsDuplicatesAndStrays(t *testing.T) {
	s := newValueSet(256)
	s.add(5)
	s.add(5)
	if err := s.checkUnique(); err == nil {
		t.Fatal("duplicate value passed")
	}
	s.clear(1000)
	s.add(1000)
	s.add(999)
	if err := s.checkUnique(); err == nil {
		t.Fatal("value below the base passed")
	}
	s.clear(1000)
	s.add(1000)
	s.add(1001)
	if err := s.checkUnique(); err != nil {
		t.Fatalf("re-based legal values: %v", err)
	}
}

func TestRTOrderFlagsInversion(t *testing.T) {
	o := newRTOrder()
	// A completes with 5; B starts afterwards and returns 3.
	fa := o.begin()
	o.end(fa, 5)
	fb := o.begin()
	o.end(fb, 3)
	if err := o.check(); err == nil {
		t.Fatal("real-time inversion passed")
	}
}

func TestRTOrderAcceptsLegalHistory(t *testing.T) {
	o := newRTOrder()
	// A and B overlap, so either order of their values is legal.
	fa := o.begin()
	fb := o.begin()
	o.end(fa, 4)
	o.end(fb, 3)
	// D starts after A and B completed; C starts after D, and completes
	// before D does with a larger value — legal, since C and D overlap.
	fd := o.begin()
	fc := o.begin()
	o.end(fc, 7)
	o.end(fd, 6)
	if err := o.check(); err != nil {
		t.Fatalf("legal history flagged: %v", err)
	}
	// E starts after C and D completed and returns below C's value.
	fe := o.begin()
	o.end(fe, 5)
	if err := o.check(); err == nil {
		t.Fatal("inversion after a legal prefix passed")
	}
}
