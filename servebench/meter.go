package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fault"
)

// Failure classes of one operation.
const (
	failErrCode  = iota // the program answered with an error
	failTimeout         // the operation's deadline passed
	failUnminted        // a datagram not minted within its burst deadline
	numFailKinds
)

var failNames = [numFailKinds]string{"error_code", "timeout", "unminted"}

func classify(err error) int {
	if errors.Is(err, fault.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) {
		return failTimeout
	}
	return failErrCode
}

// subWindows splits the timed window into equal parts, and each
// end-to-end metric is the median of its per-part values, so a part
// disturbed by something outside the program moves it little. The
// benchmark runs on virtual machines whose host now and then takes CPU
// time from them (the steal column of /proc/stat), and a part that lost
// CPU to the host reads slower in every metric; the median therefore runs
// over the half of the parts that lost the least time to the host (over
// all parts when steal is unreported or the same for every part).
const subWindows = 40

// meter is the shared run state the workers record into.
type meter struct {
	// slot is -1 during warm-up, the current part while measuring, and
	// subWindows once the workers must stop.
	slot    atomic.Int32
	workers []*workerRec
}

// workerRec is one worker's private tally, read only after it returns.
type workerRec struct {
	h         [subWindows]*hist
	ops       [subWindows]int64 // increments delivered in each part
	delivered int64             // increments delivered over the whole run
	attempted int64
	fails     [numFailKinds]int64
	_         [64]byte // keep neighbouring workers' tallies off one cache line
}

func newMeter(workers int) *meter {
	m := &meter{workers: make([]*workerRec, workers)}
	for i := range m.workers {
		w := &workerRec{}
		for k := range w.h {
			w.h[k] = newHist()
		}
		m.workers[i] = w
	}
	m.slot.Store(-1)
	return m
}

func (m *meter) stopped() bool { return m.slot.Load() >= subWindows }

// part returns the part an operation completing now falls in, or -1
// outside the timed window.
func (m *meter) part() int {
	k := int(m.slot.Load())
	if k >= subWindows {
		return -1
	}
	return k
}

// window is what one timed window recorded, part by part.
type window struct {
	hs    []hist
	ops   []int64
	wall  []float64 // seconds
	cpu   []float64 // process CPU seconds
	steal []float64 // share of wall time the host took, summed over CPUs
}

// timeWindow runs the timed window over the running workers: subWindows
// parts of d/subWindows each, or fewer if stop says to end early. It leaves
// the meter stopped.
func timeWindow(m *meter, d time.Duration, stop func() bool) window {
	var ts [subWindows + 1]time.Time
	var cpus [subWindows + 1]time.Duration
	var steals [subWindows + 1]float64
	parts := 0
	for parts < subWindows {
		ts[parts], cpus[parts], steals[parts] = time.Now(), cpuTime(), stealSeconds()
		m.slot.Store(int32(parts))
		parts++
		if !sleepPart(d/subWindows, stop) {
			break
		}
	}
	ts[parts], cpus[parts], steals[parts] = time.Now(), cpuTime(), stealSeconds()
	m.slot.Store(subWindows)

	w := window{hs: make([]hist, parts), ops: make([]int64, parts)}
	for k := 0; k < parts; k++ {
		wall := ts[k+1].Sub(ts[k]).Seconds()
		w.wall = append(w.wall, wall)
		w.cpu = append(w.cpu, (cpus[k+1] - cpus[k]).Seconds())
		w.steal = append(w.steal, (steals[k+1]-steals[k])/wall)
	}
	return w
}

// sleepPart waits out one part; false when stop says the window must end.
func sleepPart(d time.Duration, stop func() bool) bool {
	end := time.Now().Add(d)
	for {
		left := time.Until(end)
		if left <= 0 {
			return true
		}
		time.Sleep(min(20*time.Millisecond, left))
		if stop() {
			return false
		}
	}
}

// collect merges the workers' tallies into w; only after they returned.
func (w *window) collect(m *meter) error {
	for k := range w.hs {
		for _, r := range m.workers {
			w.hs[k].merge(r.h[k])
			w.ops[k] += r.ops[k]
		}
		if w.ops[k] == 0 {
			return fmt.Errorf("no operation completed in part %d of the timed window", k+1)
		}
	}
	return nil
}

// summary is the median, over the kept parts, of each part's throughput,
// latency percentiles and CPU per increment.
func (w *window) summary(keep []int) (rate, p50, p95, cpuPerOp float64) {
	var rates, p50s, p95s, cpus []float64
	for _, k := range keep {
		rates = append(rates, float64(w.ops[k])/w.wall[k])
		p50s = append(p50s, w.hs[k].quantile(0.50))
		p95s = append(p95s, w.hs[k].quantile(0.95))
		cpus = append(cpus, w.cpu[k]/float64(w.ops[k]))
	}
	return median(rates), median(p50s), median(p95s), median(cpus)
}

// leastStolen returns the indices of the half of the parts with the least
// steal, in time order; every index when steal does not vary.
func leastStolen(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	if len(idx) < 2 || slices.Min(steal) == slices.Max(steal) {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:len(idx)/2]
	slices.Sort(idx)
	return idx
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
}
