package main

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// The recorders in this file are the benchmark's own bookkeeping. Every one
// is allocated and touched before the program under test starts and records
// without allocating, so the benchmark's footprint does not grow with the
// program's speed and the load generator adds no garbage of its own.

// subBits sets the log-linear histogram's resolution: each power of two is
// split into 1<<subBits equal buckets, so a bucket is at most 1/64 of its
// lower bound wide and its midpoint is within 0.8% of any value in it.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	// maxExp is the last power of two the histogram resolves (2^31 ns is
	// about 2.1 s, past the clients' 1 s attempt timeout); longer values
	// land in the last bucket.
	maxExp     = 31
	numBuckets = (maxExp - subBits + 2) * subBuckets
)

// hist is a log-linear latency histogram over nanoseconds. It is not safe
// for concurrent use: each worker owns one and they are merged after the
// workers stop.
type hist struct {
	counts [numBuckets]uint32 // a part holds far fewer than 2^32 operations
	n      uint64
}

// newHist returns a histogram whose buckets are already resident.
func newHist() *hist {
	h := new(hist)
	for i := range h.counts {
		h.counts[i] = 1 // touch every page before the run, then clear
	}
	h.reset()
	return h
}

func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v in [2^e, 2^(e+1)), e >= subBits
	if e > maxExp {
		return numBuckets - 1
	}
	sub := (v >> (e - subBits)) & (subBuckets - 1)
	return (e-subBits+1)*subBuckets + int(sub)
}

// bucketMid returns the midpoint of bucket i in nanoseconds.
func bucketMid(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	e := i/subBuckets + subBits - 1
	sub := i % subBuckets
	width := math.Ldexp(1, e-subBits)
	lo := math.Ldexp(1, e) + float64(sub)*width
	return lo + width/2
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) reset() {
	clear(h.counts[:])
	h.n = 0
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the
// smallest recorded value with at least q of the samples at or below it,
// reported as its bucket's midpoint. NaN when nothing was recorded.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(numBuckets - 1)
}

// valueSet is a bitmap over counter values [base, base+cap). It checks
// uniqueness online (a second delivery of one value is counted, never
// lost) and, once the run is quiescent, that the delivered values are
// exactly [base, base+N). Safe for concurrent use.
type valueSet struct {
	base  int64
	words []atomic.Uint64
	dups  atomic.Int64
	// outside counts values below base or at or past base+cap. A value
	// past the capacity on a run that stopped before filling it is a
	// counting error; the workload drivers stop before the bitmap fills.
	outside atomic.Int64
	first   atomic.Int64 // first offending value + 1 (0: none)
}

func newValueSet(capacity int64) *valueSet {
	s := &valueSet{words: make([]atomic.Uint64, (capacity+63)/64)}
	for i := range s.words {
		s.words[i].Store(^uint64(0)) // fault the pages in now, not mid-run
	}
	s.clear(0)
	return s
}

// clear empties the set and re-bases it; only while no worker is running.
func (s *valueSet) clear(base int64) {
	for i := range s.words {
		s.words[i].Store(0)
	}
	s.base = base
	s.dups.Store(0)
	s.outside.Store(0)
	s.first.Store(0)
}

func (s *valueSet) capacity() int64 { return int64(len(s.words)) * 64 }

func (s *valueSet) note(v int64) {
	s.first.CompareAndSwap(0, v+1)
}

// add records one delivered value.
func (s *valueSet) add(v int64) {
	off := v - s.base
	if off < 0 || off >= s.capacity() {
		s.outside.Add(1)
		s.note(v)
		return
	}
	w := &s.words[off>>6]
	bit := uint64(1) << (off & 63)
	for {
		old := w.Load()
		if old&bit != 0 {
			s.dups.Add(1)
			s.note(v)
			return
		}
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// checkDense reports whether exactly n distinct values were delivered and
// they are [base, base+n) — the counting network's step property at
// quiescence. Call only after every worker has stopped.
func (s *valueSet) checkDense(n int64) error {
	if err := s.checkUnique(); err != nil {
		return err
	}
	if n > s.capacity() {
		return fmt.Errorf("%d values delivered, past the bitmap's %d", n, s.capacity())
	}
	full := n / 64
	for i := int64(0); i < full; i++ {
		if w := s.words[i].Load(); w != ^uint64(0) {
			return fmt.Errorf("value %d missing from [%d, %d)",
				s.base+i*64+int64(bits.TrailingZeros64(^w)), s.base, s.base+n)
		}
	}
	if rem := n % 64; rem > 0 {
		want := uint64(1)<<rem - 1
		if w := s.words[full].Load(); w != want {
			if miss := ^w & want; miss != 0 {
				return fmt.Errorf("value %d missing from [%d, %d)",
					s.base+full*64+int64(bits.TrailingZeros64(miss)), s.base, s.base+n)
			}
			return fmt.Errorf("value %d delivered outside [%d, %d)",
				s.base+full*64+int64(bits.TrailingZeros64(w&^want)), s.base, s.base+n)
		}
		full++
	}
	for i := full; i < int64(len(s.words)); i++ {
		if w := s.words[i].Load(); w != 0 {
			return fmt.Errorf("value %d delivered outside [%d, %d)",
				s.base+i*64+int64(bits.TrailingZeros64(w)), s.base, s.base+n)
		}
	}
	return nil
}

// checkUnique reports duplicate or out-of-range deliveries.
func (s *valueSet) checkUnique() error {
	if d, o := s.dups.Load(), s.outside.Load(); d > 0 || o > 0 {
		return fmt.Errorf("%d duplicate and %d out-of-range values (first %d)", d, o, s.first.Load()-1)
	}
	return nil
}

// rtOrder is the online real-time-order check for linearizable counting:
// no operation may return a value below one that an operation completed
// before it started. begin reads the largest value any completed
// operation has published; end checks the new value against that floor
// and publishes it. An operation that completed but has not yet published
// is missed, which only weakens the check: it never reports a legal
// history as an inversion. Safe for concurrent use.
type rtOrder struct {
	done       atomic.Int64 // largest published value
	inversions atomic.Int64
	example    atomic.Pointer[string]
}

func newRTOrder() *rtOrder {
	o := &rtOrder{}
	o.done.Store(math.MinInt64)
	return o
}

func (o *rtOrder) begin() int64 { return o.done.Load() }

// end checks v against floor, the value begin returned when this
// operation started, and publishes v.
func (o *rtOrder) end(floor, v int64) {
	if v < floor {
		if o.inversions.Add(1) == 1 {
			msg := fmt.Sprintf("value %d returned after %d had completed", v, floor)
			o.example.Store(&msg)
		}
	}
	for {
		cur := o.done.Load()
		if v <= cur || o.done.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (o *rtOrder) check() error {
	if n := o.inversions.Load(); n > 0 {
		return fmt.Errorf("%d real-time inversions, first: %s", n, *o.example.Load())
	}
	return nil
}
