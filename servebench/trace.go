package main

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/runtime"
	"repro/internal/server"
)

// tracer wraps the program's public seams from outside and counts the work
// that crosses each one. A nil tracer is the untraced run: every method
// then hands back the program's own default, so the untraced run serves
// exactly as countd does.
type tracer struct {
	calls, callNS     atomic.Int64 // backend calls into the runtime layer
	writes, wireBytes atomic.Int64 // client transport writes; bytes both ways
	fwds, fwdNS       atomic.Int64 // server LINForward hook → Node.ForwardLIN
	dials, dialNS     atomic.Int64 // cluster forward-lane dials
}

// traceCounts is a copy of a tracer's counters.
type traceCounts struct {
	calls, callNS, writes, wireBytes, fwds, fwdNS, dials, dialNS int64
}

func (t *tracer) load() traceCounts {
	if t == nil {
		return traceCounts{}
	}
	return traceCounts{t.calls.Load(), t.callNS.Load(), t.writes.Load(), t.wireBytes.Load(),
		t.fwds.Load(), t.fwdNS.Load(), t.dials.Load(), t.dialNS.Load()}
}

func (a traceCounts) sub(b traceCounts) traceCounts {
	return traceCounts{a.calls - b.calls, a.callNS - b.callNS, a.writes - b.writes,
		a.wireBytes - b.wireBytes, a.fwds - b.fwds, a.fwdNS - b.fwdNS, a.dials - b.dials, a.dialNS - b.dialNS}
}

func (t *tracer) call(t0 time.Time) {
	t.callNS.Add(int64(time.Since(t0)))
	t.calls.Add(1)
}

// backend returns rt as the server's Backend, wrapped when tracing.
func (t *tracer) backend(rt *runtime.Network) server.Backend {
	if t == nil {
		return rt
	}
	return tracedNet{rt, t}
}

// tracedNet times every call the server makes into the runtime layer. It
// keeps IncBatchAppend, so the server still takes its allocation-free
// sweep path.
type tracedNet struct {
	n *runtime.Network
	t *tracer
}

func (b tracedNet) Shape() network.Shape { return b.n.Shape() }

func (b tracedNet) Inc(w int) int64 {
	t0 := time.Now()
	v := b.n.Inc(w)
	b.t.call(t0)
	return v
}

func (b tracedNet) IncBatch(w, k int) []runtime.Range {
	t0 := time.Now()
	rs := b.n.IncBatch(w, k)
	b.t.call(t0)
	return rs
}

func (b tracedNet) IncBatchAppend(dst []runtime.Range, w, k int) []runtime.Range {
	t0 := time.Now()
	rs := b.n.IncBatchAppend(dst, w, k)
	b.t.call(t0)
	return rs
}

// minterBackend returns a cluster node's minter as the server's Backend,
// wrapped when tracing.
func (t *tracer) minterBackend(m *cluster.Minter) server.Backend {
	if t == nil {
		return m
	}
	return tracedMinter{m, t}
}

// tracedMinter is tracedNet for a cluster node's minter; it keeps
// TryIncBatch, so the server still takes its fail-fast path.
type tracedMinter struct {
	m *cluster.Minter
	t *tracer
}

func (b tracedMinter) Shape() network.Shape { return b.m.Shape() }

func (b tracedMinter) Inc(w int) int64 {
	t0 := time.Now()
	v := b.m.Inc(w)
	b.t.call(t0)
	return v
}

func (b tracedMinter) IncBatch(w, k int) []runtime.Range {
	t0 := time.Now()
	rs := b.m.IncBatch(w, k)
	b.t.call(t0)
	return rs
}

func (b tracedMinter) TryIncBatch(w, k int) ([]runtime.Range, error) {
	t0 := time.Now()
	rs, err := b.m.TryIncBatch(w, k)
	b.t.call(t0)
	return rs, err
}

// dialer is the client.Options.Dialer of a traced client: the client's
// default TCP dial, with the connection's writes and bytes counted.
func (t *tracer) dialer(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return countingConn{nc, t}, nil
}

type countingConn struct {
	net.Conn
	t *tracer
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.writes.Add(1)
	c.t.wireBytes.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.wireBytes.Add(int64(n))
	return n, err
}

// linForward returns the server's LINForward hook for node, timed when
// tracing.
func (t *tracer) linForward(node *cluster.Node) func(uint64, int64, int64) ([]runtime.Range, error) {
	if t == nil {
		return node.ForwardLIN
	}
	return func(conn uint64, w, k int64) ([]runtime.Range, error) {
		t0 := time.Now()
		rs, err := node.ForwardLIN(conn, w, k)
		t.fwdNS.Add(int64(time.Since(t0)))
		t.fwds.Add(1)
		return rs, err
	}
}

// clusterDial returns cluster.Config.Dial: nil (the node's default TCP
// dial) untraced; traced, the same dial with forward-lane dials timed.
func (t *tracer) clusterDial(timeout time.Duration) func(cluster.Lane, uint64) cluster.Dialer {
	if t == nil {
		return nil
	}
	return func(lane cluster.Lane, _ uint64) cluster.Dialer {
		return func(addr string) (net.Conn, error) {
			t0 := time.Now()
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if lane == cluster.LaneForward {
				t.dialNS.Add(int64(time.Since(t0)))
				t.dials.Add(1)
			}
			return nc, err
		}
	}
}

// progCounters is what the program itself counts: the server stats of
// every serving node, and the cluster stats of every cluster node.
type progCounters struct {
	srv         server.Snapshot
	linForwards uint64 // cluster.Stats.LinForwards over every node
	// packetio work, from the server's UDP histograms: ReadBatch calls,
	// datagrams read and wire frames carried.
	reads, datagrams uint64
	stages           map[string]stageSum
}

type stageSum struct{ n, ns uint64 }

// addServer folds one server's snapshot into c.
func (c *progCounters) addServer(s server.Snapshot) {
	c.srv.FramesIn += s.FramesIn
	c.srv.Sweeps += s.Sweeps
	c.srv.SweepReqs += s.SweepReqs
	c.srv.Flushes += s.Flushes
	c.srv.UDPDatagrams += s.UDPDatagrams
	c.srv.UDPSegmentsSum += s.UDPSegmentsSum
	for _, n := range s.UDPBatchSizes {
		c.reads += n
	}
	for _, n := range s.UDPSegments {
		c.datagrams += n
	}
	if c.stages == nil {
		c.stages = map[string]stageSum{}
	}
	for k, ls := range s.Stages {
		st := c.stages[k]
		st.n += ls.Count
		st.ns += uint64(ls.Sum)
		c.stages[k] = st
	}
}

func serverCounters(srvs ...*server.Server) progCounters {
	var c progCounters
	for _, s := range srvs {
		c.addServer(s.Stats().Snapshot())
	}
	return c
}

func (a progCounters) sub(b progCounters) progCounters {
	d := progCounters{
		reads:     a.reads - b.reads,
		datagrams: a.datagrams - b.datagrams,
		stages:    map[string]stageSum{},
	}
	d.srv.FramesIn = a.srv.FramesIn - b.srv.FramesIn
	d.srv.Sweeps = a.srv.Sweeps - b.srv.Sweeps
	d.srv.SweepReqs = a.srv.SweepReqs - b.srv.SweepReqs
	d.srv.Flushes = a.srv.Flushes - b.srv.Flushes
	d.srv.UDPDatagrams = a.srv.UDPDatagrams - b.srv.UDPDatagrams
	d.srv.UDPSegmentsSum = a.srv.UDPSegmentsSum - b.srv.UDPSegmentsSum
	d.linForwards = a.linForwards - b.linForwards
	for k, s := range a.stages {
		o := b.stages[k]
		d.stages[k] = stageSum{s.n - o.n, s.ns - o.ns}
	}
	return d
}

// ratio is num/den, 0 when the layer did no work (den 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stageUS is the mean time in µs the window's requests spent in the named
// server stages.
func (c progCounters) stageUS(names ...string) float64 {
	var s stageSum
	for _, n := range names {
		s.n += c.stages[n].n
		s.ns += c.stages[n].ns
	}
	return ratio(float64(s.ns)/1e3, float64(s.n))
}

// layerMetrics turns one window's counter deltas into the per-layer
// metrics. A layer the workload does not pass through reads 0.
func layerMetrics(ops int64, c progCounters, t traceCounts) map[string]metric {
	o := float64(ops)
	count := func(v float64) metric { return metric{v, "count"} }
	us := func(v float64) metric { return metric{v, "us"} }
	frames := float64(c.srv.FramesIn + c.srv.UDPDatagrams)
	return map[string]metric{
		"client.ops_per_frame":         count(ratio(o, frames)),
		"client.writes_per_op":         count(ratio(float64(t.writes), o)),
		"wire.bytes_per_op":            metric{ratio(float64(t.wireBytes), o), "B"},
		"server.reqs_per_sweep":        count(ratio(float64(c.srv.SweepReqs), float64(c.srv.Sweeps))),
		"server.flushes_per_op":        count(ratio(float64(c.srv.Flushes), o)),
		"server.mailbox_us":            us(c.stageUS("mailbox/sc")),
		"server.lin_wait_us":           us(c.stageUS("lin_wait/lin")),
		"server.traverse_us":           us(c.stageUS("traverse/sc", "traverse/lin")),
		"runtime.calls_per_op":         count(ratio(float64(t.calls), o)),
		"runtime.ns_per_call":          metric{ratio(float64(t.callNS), float64(t.calls)), "ns"},
		"packetio.datagrams_per_read":  count(ratio(float64(c.datagrams), float64(c.reads))),
		"packetio.frames_per_datagram": count(ratio(float64(c.srv.UDPSegmentsSum), float64(c.datagrams))),
		"cluster.forward_us":           us(ratio(float64(t.fwdNS)/1e3, float64(t.fwds))),
		"cluster.dial_us":              us(ratio(float64(t.dialNS)/1e3, float64(t.dials))),
		"cluster.dials_per_forward":    count(ratio(float64(t.dials), float64(c.linForwards))),
		"cluster.forwards_per_op":      count(ratio(float64(c.linForwards), o)),
	}
}
