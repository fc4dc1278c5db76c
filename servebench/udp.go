package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	stdruntime "runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/construct"
	"repro/internal/packetio"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/wire"
)

// udp-gso: one packetio flow sends bursts of udpSupers GSO super-datagrams,
// each packing udpFrames unique-id increment frames, to the server's own
// UDP endpoint. The next burst goes once the server's issued count has
// risen by the whole burst, so the load is closed loop: it measures the
// packetio and ingest path, not the kernel's receive-buffer drops that an
// open-loop sender would hit.
const (
	udpSupers = 16
	udpFrames = 64
	udpBurst  = udpSupers * udpFrames
	// udpDeadline bounds how long a burst may take to be minted before
	// its missing frames count as failed.
	udpDeadline = time.Second
	// udpNap is how long the sender sleeps between looks at the server's
	// issued count while a burst is in flight.
	udpNap = 10 * time.Microsecond
)

// The sender waits for a burst in short kernel naps, not a spin and not a
// Go timer. A spinning goroutine holds a CPU that the server's ingest and
// combiner goroutines, and the kernel's softirq work carrying loopback
// datagrams, need: with 2 CPUs that showed as bursts stalled for several
// milliseconds. A Go timer rounds a sub-millisecond sleep up to the
// netpoller's 1 ms. A nanosleep frees the CPU and, with the thread's timer
// slack cut from its 50 µs default, wakes on time.
const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

// withLowSlack runs fn on a locked OS thread whose timer slack is 1 µs.
func withLowSlack(fn func()) {
	stdruntime.LockOSThread()
	defer stdruntime.UnlockOSThread()
	// Both prctl calls only tune this thread's timer precision; on failure
	// the naps merely run long.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	defer syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0) // 0: back to the default
	fn()
}

type udpInst struct {
	c    *config
	srv  *server.Server
	conn packetio.Conn
	b    *packetio.Batch
	wire int64
	id   uint64 // next dedup id
	nap  syscall.Timespec
	// failErr describes the first burst that failed; overMint the first
	// burst that minted more values than it carried frames.
	failErr, overMint error
	wg                sync.WaitGroup
}

// udpIDBase puts a seed-chosen 16-bit tag above a 40-bit sequence, with
// bit 56 always set: every id then encodes to the same uvarint length,
// which keeps the frames of one super-datagram equal-stride.
func udpIDBase(seed uint64) uint64 {
	tag := rand.New(rand.NewPCG(seed, 0x1d)).Uint64() & 0xffff
	return 1<<56 | tag<<40
}

func setupUDP(c *config) (instance, error) {
	if !packetio.Segmentation() {
		return nil, errors.New("kernel lacks UDP GSO/GRO; udp-gso measures only the segmented path")
	}
	spec, _, err := construct.Bitonic(netWidth)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.Compile(spec)
	if err != nil {
		return nil, err
	}
	srv := server.New(c.tr.backend(rt), server.Options{Stats: server.NewStats(0), UDPGSO: true})
	in := &udpInst{c: c, srv: srv, b: packetio.NewBatch(udpSupers),
		wire: int64(rand.New(rand.NewPCG(c.seed, 0x5eed)).IntN(netWidth)), id: udpIDBase(c.seed),
		nap: syscall.NsecToTimespec(int64(udpNap))}
	addr, err := srv.ListenPacket("127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	if srv.Stats().Snapshot().GSOActive != 1 {
		in.close()
		return nil, errors.New("server UDP endpoint came up without GRO")
	}
	in.conn, err = packetio.Dial(addr.String(), packetio.Options{GSO: true})
	if err != nil {
		in.close()
		return nil, err
	}
	if !in.conn.Segmented() {
		in.close()
		return nil, errors.New("sender socket came up without GSO")
	}
	var scratch workerRec
	var ok bool
	withLowSlack(func() { ok = in.burst(&scratch) })
	if !ok {
		in.close()
		return nil, fmt.Errorf("first burst: %v", in.failErr)
	}
	return in, nil
}

// burst sends one burst and waits until the server has minted all of it.
// It reports false when the burst was not minted whole in time.
func (in *udpInst) burst(rec *workerRec) bool {
	b := in.b
	b.Reset()
	for b.Len() < udpSupers {
		if !b.AppendSegments(in.pack) {
			in.fail(rec, udpBurst, errors.New("super-datagram does not fit a send slot"))
			return false
		}
	}
	before := in.srv.Issued()
	target := before + udpBurst
	rec.attempted += udpBurst
	t0 := time.Now()
	n, err := in.conn.WriteBatch(b)
	if err != nil || n != udpSupers {
		in.fail(rec, udpBurst, fmt.Errorf("sent %d of %d super-datagrams: %v", n, udpSupers, err))
		return false
	}
	deadline := t0.Add(udpDeadline)
	for in.srv.Issued() < target {
		if time.Now().After(deadline) {
			got := in.srv.Issued() - before
			in.fail(rec, udpBurst-got, fmt.Errorf("%d of %d frames minted within %v", got, udpBurst, udpDeadline))
			return false
		}
		_ = syscall.Nanosleep(&in.nap, nil) // an interrupted nap only polls sooner
	}
	d := time.Since(t0)
	if got := in.srv.Issued() - before; got != udpBurst && in.overMint == nil {
		in.overMint = fmt.Errorf("burst of %d frames minted %d values", udpBurst, got)
	}
	if in.c.tr != nil {
		in.c.tr.writes.Add(1)
		for i := 0; i < b.Len(); i++ {
			in.c.tr.wireBytes.Add(int64(len(b.Packet(i))))
		}
	}
	rec.delivered += udpBurst
	if k := in.c.m.part(); k >= 0 {
		rec.h[k].record(int64(d))
		rec.ops[k] += udpBurst
	}
	return true
}

func (in *udpInst) fail(rec *workerRec, frames int64, err error) {
	rec.fails[failUnminted] += frames
	if in.failErr == nil {
		in.failErr = err
	}
}

// pack fills one send slot with udpFrames frames and declares their
// stride; the kernel splits the slot into udpFrames datagrams.
func (in *udpInst) pack(dst []byte) ([]byte, int) {
	stride := 0
	for j := 0; j < udpFrames; j++ {
		f := wire.Frame{Type: wire.TInc, ID: in.id, Wire: in.wire}
		in.id++
		before := len(dst)
		dst, _ = wire.AppendFrame(dst, &f) // a TInc frame always encodes
		if stride == 0 {
			stride = len(dst) - before
		}
	}
	return dst, stride
}

func (in *udpInst) start() {
	rec := in.c.m.workers[0]
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		withLowSlack(func() {
			for !in.c.m.stopped() {
				if !in.burst(rec) {
					// Resynchronise on the next burst; late frames of
					// this one would show as an over-mint there.
					time.Sleep(10 * time.Millisecond)
				}
			}
		})
	}()
}

func (in *udpInst) wait() { in.wg.Wait() }

func (in *udpInst) issued() int64 { return in.srv.Issued() }

// check: every burst minted exactly its frames, and the server rejected
// and dropped no datagram. Bursts that were not minted in time are
// failures, counted apart.
func (in *udpInst) check() error {
	if in.failErr != nil {
		warnf("first failed burst: %v", in.failErr)
	}
	if in.overMint != nil {
		return in.overMint
	}
	s := in.srv.Stats().Snapshot()
	if s.UDPRejected != 0 || s.UDPDropped != 0 {
		return fmt.Errorf("server rejected %d and dropped %d datagrams (%v)", s.UDPRejected, s.UDPDropped, s.UDPRejects)
	}
	return nil
}

func (in *udpInst) counters() progCounters { return serverCounters(in.srv) }

func (in *udpInst) close() {
	if in.conn != nil {
		_ = in.conn.Close() // the sender's own socket; nothing to report
	}
	_ = in.srv.Close()
}
