package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/construct"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// sc-tcp and lin-tcp: two client connections, each with tcpWorkers
// closed-loop worker goroutines, against one server over a width-8 bitonic
// network. SC increments meet in the client's per-wire re-batcher and the
// server's combiner; LIN increments each cross the wire alone and are
// served one at a time in the server's linearizing section.
const (
	tcpConns   = 2
	tcpWorkers = 32
	netWidth   = 8
)

const (
	modeSC  = wire.ModeSC
	modeLIN = wire.ModeLIN
)

// workerWires gives each of conns connections one wire, used by all of
// its workers so the client's per-wire re-batcher can fold their
// increments. The seed picks an offset in the first 1/conns of the width
// and connection c takes offset + c·width/conns: the connections sit evenly
// spread and in the same relative position whatever the seed. (Wire pairs
// in other relative positions ran at different speeds: on width 8 the pair
// (1, 4) gave sc-tcp 1.1–1.3M ops/s against about 0.85M for the others.)
func workerWires(seed uint64, conns, workers, width int) [][]int {
	span := max(width/conns, 1)
	off := rand.New(rand.NewPCG(seed, 0x5eed)).IntN(span)
	out := make([][]int, conns)
	for c := range out {
		out[c] = make([]int, workers)
		for i := range out[c] {
			out[c][i] = (off + c*span) % width
		}
	}
	return out
}

// clientOptions mirror countload's: one window slot per worker and a
// one-second per-attempt timeout.
func clientOptions(workers int, tr *tracer) client.Options {
	o := client.Options{Window: workers, OpTimeout: time.Second}
	if tr != nil {
		o.Dialer = tr.dialer
	}
	return o
}

type tcpInst struct {
	c     *config
	mode  wire.Mode
	srv   *server.Server
	clis  []*client.Client
	wires [][]int
	setup int64 // increments delivered while setting up
	wg    sync.WaitGroup
}

func setupTCP(c *config, mode wire.Mode) (instance, error) {
	spec, _, err := construct.Bitonic(netWidth)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.Compile(spec)
	if err != nil {
		return nil, err
	}
	// Configured the way countd configures it by default: stats on,
	// tracing off.
	srv := server.New(c.tr.backend(rt), server.Options{Stats: server.NewStats(0)})
	in := &tcpInst{c: c, mode: mode, srv: srv, wires: workerWires(c.seed, tcpConns, tcpWorkers, netWidth)}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	for range tcpConns {
		cli, err := client.Dial(addr.String(), clientOptions(tcpWorkers, c.tr))
		if err != nil {
			in.close()
			return nil, err
		}
		in.clis = append(in.clis, cli)
	}
	for i, cli := range in.clis {
		if err := in.firstOp(cli, in.wires[i][0]); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *tcpInst) firstOp(cli *client.Client, w int) error {
	floor := in.c.rt.begin()
	v, err := cli.IncMode(context.Background(), w, in.mode)
	if err != nil {
		return fmt.Errorf("first operation: %w", err)
	}
	in.c.vals.add(v)
	in.c.rt.end(floor, v)
	in.setup++
	return nil
}

func (in *tcpInst) start() {
	for ci, cli := range in.clis {
		for wi, w := range in.wires[ci] {
			rec := in.c.m.workers[ci*tcpWorkers+wi]
			in.wg.Add(1)
			go func() {
				defer in.wg.Done()
				incLoop(in.c, rec, cli, w, in.mode)
			}()
		}
	}
}

// incLoop is one closed-loop worker: the next increment goes out when the
// previous one has returned. It allocates nothing of its own per
// operation. LIN values pass the real-time-order check; every value enters
// the uniqueness bitmap.
func incLoop(c *config, rec *workerRec, cli *client.Client, w int, mode wire.Mode) {
	lin := mode == modeLIN
	ctx := context.Background()
	for !c.m.stopped() {
		var floor int64
		if lin {
			floor = c.rt.begin()
		}
		rec.attempted++
		t0 := time.Now()
		v, err := cli.IncMode(ctx, w, mode)
		d := time.Since(t0)
		if err != nil {
			rec.fails[classify(err)]++
			continue
		}
		c.vals.add(v)
		if lin {
			c.rt.end(floor, v)
		}
		rec.delivered++
		if k := c.m.part(); k >= 0 {
			rec.h[k].record(int64(d))
			rec.ops[k]++
		}
	}
}

func (in *tcpInst) wait() { in.wg.Wait() }

func (in *tcpInst) issued() int64 { return in.srv.Issued() }

// check: every value unique, and at quiescence exactly [0, N) for the N
// increments delivered — the counting network's step property; LIN values
// also respect real-time order.
func (in *tcpInst) check() error {
	n := in.setup
	for _, w := range in.c.m.workers {
		n += w.delivered
	}
	if got := in.srv.Issued(); got != n {
		return fmt.Errorf("server issued %d values, clients received %d", got, n)
	}
	if err := in.c.vals.checkDense(n); err != nil {
		return err
	}
	return in.c.rt.check()
}

func (in *tcpInst) counters() progCounters {
	return serverCounters(in.srv)
}

func (in *tcpInst) close() {
	for _, cli := range in.clis {
		_ = cli.Close() // closing the load's own connections; nothing to report
	}
	_ = in.srv.Close()
}
