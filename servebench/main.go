// Command servebench is the counting service's end-to-end benchmark. One
// process runs the program's own packages — runtime, server, wire, client,
// packetio and cluster — serving over real loopback sockets, drives one
// closed-loop workload against them, checks the outputs the method must
// produce, and prints one JSON result line.
//
//	servebench --workload sc-tcp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same workload runs with the program's public seams wrapped (server
// Backend, client Dialer, server LINForward, cluster Dial) and the result
// carries the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	stdruntime "runtime"
	"runtime/debug"
	"time"
)

// workload is one traffic mix. setup builds a fresh instance of the
// program and returns once the first operation has succeeded on every
// connection; the benchmark times it as setup_s.
type workload struct {
	name      string
	workers   int
	setupReps int   // set-ups per run; setup_s is their median
	capacity  int64 // value-bitmap size; 0: the workload checks no bitmap
	setup     func(c *config) (instance, error)
}

var workloads = []workload{
	{name: "sc-tcp", workers: tcpConns * tcpWorkers, setupReps: 25, capacity: 1 << 27,
		setup: func(c *config) (instance, error) { return setupTCP(c, modeSC) }},
	{name: "lin-tcp", workers: tcpConns * tcpWorkers, setupReps: 25, capacity: 1 << 25,
		setup: func(c *config) (instance, error) { return setupTCP(c, modeLIN) }},
	{name: "udp-gso", workers: 1, setupReps: 25, setup: setupUDP},
	{name: "cluster-lin", workers: clusterConns * clusterWorkers, setupReps: 3, capacity: 1 << 24,
		setup: setupCluster},
}

// warmup runs the load before the timed window so connections, pools and
// caches reach their steady state first.
const warmup = time.Second

// config is what a workload's set-up needs from the harness.
type config struct {
	seed uint64
	tr   *tracer   // nil: untraced run, the program configured as countd
	vals *valueSet // nil when the workload has no bitmap
	rt   *rtOrder  // fresh per set-up
	m    *meter
}

// instance is one set-up copy of the program under load.
type instance interface {
	// start launches the workers; they run until the meter says stop.
	start()
	// wait returns once every worker has returned.
	wait()
	// issued is how many values the program has handed out so far.
	issued() int64
	// check verifies the program's outputs; called at quiescence.
	check() error
	// counters reads the program's own counters for the per-layer metrics.
	counters() progCounters
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sc-tcp, lin-tcp, udp-gso or cluster-lin")
	seed := flag.Uint64("seed", 1, "input seed: each connection's wire and the UDP dedup-id high bits")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: wrap the program's seams and report per-layer metrics")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		warnf("bad arguments (workload %q, seconds %d, trace %d)", *name, *seconds, *trace)
		os.Exit(2)
	}
	stdruntime.GOMAXPROCS(stdruntime.NumCPU())
	res, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		warnf("%s: %v", wl.name, err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// setupOnce builds one instance of the workload with fresh checkers and
// reports how long that took.
func setupOnce(wl *workload, cfg *config) (instance, float64, error) {
	if cfg.vals != nil {
		cfg.vals.clear(0)
	}
	cfg.rt = newRTOrder()
	// Every set-up starts from a collected heap with its free memory handed
	// back to the OS, so the garbage of the one before decides neither when
	// this one pays for a collection nor whether its buffers come recycled.
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, err := wl.setup(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return inst, time.Since(t0).Seconds(), nil
}

func run(wl *workload, seed uint64, length time.Duration, traced bool) (result, error) {
	// Every buffer the benchmark records into exists, resident, before the
	// program under test is built.
	m := newMeter(wl.workers)
	cfg := &config{seed: seed, m: m}
	if wl.capacity > 0 {
		cfg.vals = newValueSet(wl.capacity)
	}
	if traced {
		cfg.tr = &tracer{}
	}
	printHost(wl.name, seed)

	// The measured instance is set up first. The remaining set-ups, timed
	// for setup_s only, follow the measured window, so the garbage of
	// torn-down instances cannot lift the window's peak RSS.
	setups := make([]float64, 0, wl.setupReps)
	inst, d, err := setupOnce(wl, cfg)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, d)

	inst.start()
	time.Sleep(warmup)
	c0, tr0 := inst.counters(), cfg.tr.load()
	// The window ends early once the value bitmap nears full: a program
	// fast enough to fill it still gets an exact uniqueness check, over a
	// shorter window.
	full := func() bool {
		if wl.capacity > 0 && inst.issued() >= wl.capacity-wl.capacity/8 {
			warnf("value bitmap nearly full; window cut short")
			return true
		}
		return false
	}
	win := timeWindow(m, length, full)
	tr1, c1 := cfg.tr.load(), inst.counters()

	done := make(chan struct{})
	go func() { inst.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return result{}, errors.New("workers still blocked 30s after the window closed")
	}
	if err := win.collect(m); err != nil {
		return result{}, err
	}

	res := result{Correct: true}
	var fails [numFailKinds]int64
	for _, w := range m.workers {
		res.Attempted += w.attempted
		for k := range fails {
			fails[k] += w.fails[k]
		}
	}
	for k, n := range fails {
		res.Failed += n
		if n > 0 {
			warnf("%d operations failed: %s", n, failNames[k])
		}
	}
	if err := inst.check(); err != nil {
		res.Correct = false
		warnf("%s: output check failed: %v", wl.name, err)
	}
	peak := peakRSSMB()
	inst.close()
	for len(setups) < wl.setupReps {
		extra, d, err := setupOnce(wl, cfg)
		if err != nil {
			return result{}, err
		}
		extra.close()
		setups = append(setups, d)
	}

	keep := leastStolen(win.steal)
	rate, p50, p95, cpu := win.summary(keep)
	res.Metrics = map[string]metric{
		"ops_per_s":     {rate, "1/s"},
		"p50_us":        {p50 / 1e3, "us"},
		"p95_us":        {p95 / 1e3, "us"},
		"cpu_us_per_op": {cpu * 1e6, "us"},
		"peak_rss_mb":   {peak, "MB"},
		"setup_s":       {median(setups), "s"},
	}
	printRun(wl.name, &win, keep, setups, fails)
	if traced {
		line, _ := json.Marshal(res.Metrics)
		fmt.Println("traced end-to-end:", string(line))
		var all int64
		for _, n := range win.ops {
			all += n
		}
		res.Metrics = layerMetrics(all, c1.sub(c0), tr1.sub(tr0))
	}
	return res, nil
}

// printRun prints the run's details on one line: every part's throughput,
// p95 and steal, which parts were kept, the set-up times and the failures
// by class.
func printRun(name string, w *window, keep []int, setups []float64, fails [numFailKinds]int64) {
	all := new(hist)
	rate := make([]float64, len(w.hs))
	p95 := make([]float64, len(w.hs))
	for k := range w.hs {
		all.merge(&w.hs[k])
		rate[k] = float64(w.ops[k]) / w.wall[k]
		p95[k] = w.hs[k].quantile(0.95) / 1e3
	}
	failed := map[string]int64{}
	for k, n := range fails {
		failed[failNames[k]] = n
	}
	line, _ := json.Marshal(map[string]any{
		"workload": name, "samples": all.n, "setups_s": setups, "failed": failed,
		"parts": map[string]any{"ops_per_s": rate, "p95_us": p95, "steal": w.steal, "kept": keep},
		"whole_window_us": map[string]float64{"p50": all.quantile(0.5) / 1e3, "p95": all.quantile(0.95) / 1e3,
			"p99": all.quantile(0.99) / 1e3, "p999": all.quantile(0.999) / 1e3, "max": all.quantile(1) / 1e3},
	})
	fmt.Println("run:", string(line))
}
