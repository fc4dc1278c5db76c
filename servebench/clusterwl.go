package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

// cluster-lin: three cluster nodes, each behind its own server as countd
// wires them. Once a LIN increment has succeeded on every node, two client
// connections with clusterWorkers workers each attach to the two followers,
// so every measured increment is a LIN op forwarded to the leader.
const (
	clusterNodes   = 3
	clusterConns   = clusterNodes - 1 // one per follower
	clusterWorkers = 8
	// clusterSetupLimit bounds gossip, election and the first LIN op.
	clusterSetupLimit = 30 * time.Second
	// rpcTimeout is cluster.Config's default RPCTimeout, which the default
	// dial uses as its timeout; the traced dial keeps it.
	rpcTimeout = 2 * time.Second
)

type clusterInst struct {
	c     *config
	nodes []*cluster.Node
	stats []*cluster.Stats
	srvs  []*server.Server
	addrs []string // client-facing server addresses, by node
	clis  []*client.Client
	wires [][]int
	setup int64
	wg    sync.WaitGroup
}

func setupCluster(c *config) (instance, error) {
	in := &clusterInst{c: c, wires: workerWires(c.seed, clusterConns, clusterWorkers, netWidth)}
	lns := make([]net.Listener, clusterNodes)
	peers := make([]string, clusterNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close() // unused listeners of an aborted set-up
			}
			return nil, err
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	for i, ln := range lns {
		st := cluster.NewStats()
		node, err := cluster.Start(cluster.Config{
			NodeID: uint64(i + 1),
			Addr:   peers[i],
			Seeds:  peers,
			Width:  netWidth,
			Stats:  st,
			Listen: func(string) (net.Listener, error) { return ln, nil },
			Dial:   c.tr.clusterDial(rpcTimeout),
		})
		if err != nil {
			for _, l := range lns[i:] {
				_ = l.Close()
			}
			in.close()
			return nil, err
		}
		in.nodes = append(in.nodes, node)
		in.stats = append(in.stats, st)
		srv := server.New(c.tr.minterBackend(node.Minter()), server.Options{
			Stats:      server.NewStats(0),
			LINForward: c.tr.linForward(node),
			NodeInfo:   node.Advertise,
			ConnClosed: node.ReleaseConn,
		})
		in.srvs = append(in.srvs, srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			in.close()
			return nil, err
		}
		in.addrs = append(in.addrs, addr.String())
	}

	// Wait for a LIN increment to succeed on every node: gossip has met,
	// a leader holds its lease, and both followers can forward to it.
	deadline := time.Now().Add(clusterSetupLimit)
	for i, addr := range in.addrs {
		if err := in.probe(addr, deadline, i == 0); err != nil {
			in.close()
			return nil, fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	var followers []string
	for i, node := range in.nodes {
		if !node.IsLeader() {
			followers = append(followers, in.addrs[i])
		}
	}
	if len(followers) != clusterConns {
		in.close()
		return nil, fmt.Errorf("%d followers after election, want %d", len(followers), clusterConns)
	}
	for i, addr := range followers {
		cli, err := client.Dial(addr, clientOptions(clusterWorkers, c.tr))
		if err != nil {
			in.close()
			return nil, err
		}
		in.clis = append(in.clis, cli)
		if err := in.linOp(cli, in.wires[i][0]); err != nil {
			in.close()
			return nil, fmt.Errorf("first forwarded operation: %w", err)
		}
	}
	return in, nil
}

// probe retries one LIN increment against addr until it succeeds. The
// first successful probe re-bases the value bitmap: LIN values grow from
// the leader's stripe, and every later value is above this one.
func (in *clusterInst) probe(addr string, deadline time.Time, rebase bool) error {
	cli, err := client.Dial(addr, clientOptions(1, nil))
	if err != nil {
		return err
	}
	defer cli.Close()
	for {
		floor := in.c.rt.begin()
		v, err := cli.IncMode(context.Background(), 0, modeLIN)
		if err == nil {
			if rebase {
				in.c.vals.clear(v)
			}
			in.c.vals.add(v)
			in.c.rt.end(floor, v)
			in.setup++
			return nil
		}
		if !errors.Is(err, wire.ErrNotLeader) && !errors.Is(err, wire.ErrNoRange) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no LIN increment within %v: %w", clusterSetupLimit, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (in *clusterInst) linOp(cli *client.Client, w int) error {
	floor := in.c.rt.begin()
	v, err := cli.IncMode(context.Background(), w, modeLIN)
	if err != nil {
		return err
	}
	in.c.vals.add(v)
	in.c.rt.end(floor, v)
	in.setup++
	return nil
}

func (in *clusterInst) start() {
	for ci, cli := range in.clis {
		for wi, w := range in.wires[ci] {
			rec := in.c.m.workers[ci*clusterWorkers+wi]
			in.wg.Add(1)
			go func() {
				defer in.wg.Done()
				incLoop(in.c, rec, cli, w, modeLIN)
			}()
		}
	}
}

func (in *clusterInst) wait() { in.wg.Wait() }

func (in *clusterInst) issued() int64 {
	var n int64
	for _, s := range in.srvs {
		n += s.Issued()
	}
	return n
}

// check: no value delivered twice, and no LIN value below one completed
// before its operation started. Values are not dense: they come from the
// leader's epoch stripe in LIN blocks.
func (in *clusterInst) check() error {
	if err := in.c.vals.checkUnique(); err != nil {
		return err
	}
	return in.c.rt.check()
}

func (in *clusterInst) counters() progCounters {
	c := serverCounters(in.srvs...)
	for _, st := range in.stats {
		c.linForwards += st.LinForwards.Load()
	}
	return c
}

func (in *clusterInst) close() {
	for _, cli := range in.clis {
		_ = cli.Close() // the load's own connections; nothing to report
	}
	// Servers first: they drain in-flight LIN forwards before the nodes
	// hand their unminted blocks back, the order countd closes them in.
	for _, s := range in.srvs {
		_ = s.Close()
	}
	for _, n := range in.nodes {
		_ = n.Close() // hand-back failures only burn ids of a torn-down cluster
	}
}
