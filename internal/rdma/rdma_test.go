package rdma

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

type pair struct {
	eng    *sim.Engine
	fab    *simnet.Fabric
	client *Stack
	server *Stack
}

func newPair(t *testing.T, p Params) *pair {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	fab := simnet.New(eng, cfg)
	client := New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "c", 4), nil, p)
	server := New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "s", 4), nil, p)
	return &pair{eng, fab, client, server}
}

func echo(src uint32, req *transport.Message, reply func(*transport.Response)) {
	if req.Op == wire.RPCReadReq {
		reply(&transport.Response{Data: make([]byte, req.ReadLen)})
		return
	}
	// req.Data is the frame's slab, valid only until reply returns.
	reply(&transport.Response{Data: append([]byte(nil), req.Data...)})
}

func TestRPCRoundTrip(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(echo)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 3)
	}
	var got []byte
	var at sim.Time
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: data},
		func(r *transport.Response) { got = slices.Clone(r.Data); at = p.eng.Now() })
	p.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted")
	}
	// RDMA 4KB RPC: close to base RTT + small per-message CPU: 10–30µs.
	if d := at.Duration(); d < 5*time.Microsecond || d > 35*time.Microsecond {
		t.Fatalf("latency = %v", d)
	}
}

func TestLargeMessageSegmentation(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(echo)
	data := make([]byte, 128<<10)
	for i := range data {
		data[i] = byte(i * 11)
	}
	var got []byte
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: data},
		func(r *transport.Response) { got = slices.Clone(r.Data) })
	p.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("128K payload corrupted")
	}
}

func TestGoBackNRecovery(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(echo)
	p.fab.Spine(0, 0, 0).SetDropRate(0.1)
	p.fab.Spine(0, 0, 1).SetDropRate(0.1)
	const n = 30
	done := 0
	for i := 0; i < n; i++ {
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 32<<10)},
			func(r *transport.Response) { done++ })
	}
	p.eng.RunFor(30 * time.Second)
	if done != n {
		t.Fatalf("done %d/%d under loss", done, n)
	}
	if p.client.Retransmits == 0 {
		t.Fatal("no go-back-N retransmissions under loss")
	}
}

func TestManyConcurrentMessages(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(echo)
	done := 0
	const n = 100
	for i := 0; i < n; i++ {
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCReadReq, ReadLen: 16384},
			func(r *transport.Response) {
				if len(r.Data) == 16384 {
					done++
				}
			})
	}
	p.eng.Run()
	if done != n {
		t.Fatalf("done %d/%d", done, n)
	}
}

func TestQPCacheCliff(t *testing.T) {
	// With a tiny QP cache, alternating across many peers must thrash,
	// adding the context-fetch penalty per packet.
	eng := sim.NewEngine(2)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 4
	cfg.HostsPerRack = 4
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	fab := simnet.New(eng, cfg)

	params := DefaultParams()
	params.QPCacheSize = 4 // force thrash with >4 peers
	client := New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "c", 4), nil, params)

	var servers []*Stack
	for rack := 0; rack < 4; rack++ {
		for hi := 0; hi < 4; hi++ {
			s := New(eng, fab.Host(0, 1, rack, hi), sim.NewServer(eng, "s", 4), nil, params)
			s.SetHandler(echo)
			servers = append(servers, s)
		}
	}
	done := 0
	for round := 0; round < 5; round++ {
		for _, s := range servers {
			s := s
			client.Call(s.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
				func(r *transport.Response) { done++ })
		}
	}
	eng.Run()
	if done != 80 {
		t.Fatalf("done %d/80", done)
	}
	if client.CacheMisses < 20 {
		t.Fatalf("cache misses = %d; cliff not exercised", client.CacheMisses)
	}
}

func TestCacheHitNoPenalty(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(echo)
	// Warm.
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
		func(r *transport.Response) {})
	p.eng.Run()
	missesAfterWarm := p.client.CacheMisses
	for i := 0; i < 20; i++ {
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
			func(r *transport.Response) {})
	}
	p.eng.Run()
	if p.client.CacheMisses != missesAfterWarm {
		t.Fatalf("extra cache misses on a hot QP: %d → %d", missesAfterWarm, p.client.CacheMisses)
	}
}

func TestContextFetchSerializes(t *testing.T) {
	// With a 1-entry cache and alternating peers, every packet fetches
	// context; the single fetch engine must serialize the data path, and
	// throughput collapses toward 1/penalty.
	eng := sim.NewEngine(9)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	fab := simnet.New(eng, cfg)

	params := DefaultParams()
	params.QPCacheSize = 1
	// Exaggerated for clarity: at the real penalty the thrash costs too
	// little next to the wire to tell serialized fetches apart.
	const penalty = 10 * time.Microsecond

	server := New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "s", 8), nil, params)
	server.missPenalty = penalty
	server.SetHandler(echo)

	done := 0
	var last sim.Time
	for i := 0; i < 2; i++ {
		client := New(eng, fab.Host(0, 0, 0, i), sim.NewServer(eng, "c", 2), nil, params)
		client.missPenalty = penalty
		var issue func()
		n := 0
		issue = func() {
			if n >= 50 {
				return
			}
			n++
			client.Call(server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
				func(*transport.Response) { done++; last = eng.Now(); issue() })
		}
		issue()
	}
	eng.RunFor(time.Second)
	if done != 100 {
		t.Fatalf("done %d/100", done)
	}
	if server.CacheMisses < 100 {
		t.Fatalf("misses = %d; 1-entry cache should thrash", server.CacheMisses)
	}
	// 100 RPCs × ≥2 server fetches × 10µs serialized ≥ 2ms of virtual time.
	if last.Duration() < 2*time.Millisecond {
		t.Fatalf("last RPC completed at %v; fetch engine not serializing", last.Duration())
	}
}

func TestHotQPPathUnaffectedByColdPeers(t *testing.T) {
	// A hot QP within the cache must not pay fetch penalties even while a
	// cold crowd thrashes: misses are charged to the missing QPs.
	eng := sim.NewEngine(10)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 4
	fab := simnet.New(eng, cfg)
	params := DefaultParams()
	params.QPCacheSize = 5000 // no pressure
	server := New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "s", 8), nil, params)
	server.SetHandler(echo)
	client := New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "c", 2), nil, params)
	var last sim.Time
	done := 0
	var issue func()
	issue = func() {
		if done >= 20 {
			return
		}
		client.Call(server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
			func(*transport.Response) { done++; last = eng.Now(); issue() })
	}
	issue()
	eng.Run()
	// Warm path: ~20 RPCs in well under a millisecond.
	if last.Duration() > time.Millisecond {
		t.Fatalf("hot path took %v", last.Duration())
	}
	if server.CacheMisses > 2 {
		t.Fatalf("hot QP missed %d times", server.CacheMisses)
	}
}

// TestRewindRateLimitedPerRTT is the go-back-N regression test: a burst of
// duplicate NAKs landing within one RTT must trigger exactly one rewind.
// In-flight packets beyond a gap each provoke a NAK from the receiver;
// without the lastRewind clamp every one of them would restart the window
// from sndUna, turning a single drop into a retransmission storm.
func TestRewindRateLimitedPerRTT(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(echo)
	done := false
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 256<<10)},
		func(r *transport.Response) { done = true })
	p.eng.RunFor(5 * time.Microsecond) // mid-transfer: window full, acks pending

	var q *qp
	for _, cq := range p.client.qps {
		q = cq
	}
	if q == nil || q.inflight() == 0 {
		t.Fatal("no in-flight QP to NAK")
	}
	before := p.client.Retransmits
	for i := 0; i < 5; i++ { // the NAK burst one gap produces
		q.packetArrived(wire.TCPSeg{Ack: q.sndUna, Flags: wire.TCPFlagACK | wire.TCPFlagRST},
			&simnet.Packet{Payload: make([]byte, wire.TCPSegSize)})
	}
	if got := p.client.Retransmits - before; got != 1 {
		t.Fatalf("NAK burst within one RTT caused %d rewinds, want exactly 1", got)
	}
	p.eng.Run()
	if !done {
		t.Fatal("transfer did not complete after the rewind")
	}
}

// TestFixedWindowBoundsInflight pins the RC hardware window: a 256 KiB
// (64-packet) message never has more than windowPkts (32) packets in
// flight, and does reach 32.
func TestFixedWindowBoundsInflight(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(echo)
	data := make([]byte, 256<<10)
	var got []byte
	dst := p.server.LocalAddr()
	p.client.Call(dst, &transport.Message{Op: wire.RPCWriteReq, Data: data},
		func(r *transport.Response) { got = slices.Clone(r.Data) })
	q := p.client.qpTo(dst)
	peak := 0
	for p.eng.Step() {
		if n := q.inflight(); n > peak {
			peak = n
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("256K write did not complete intact")
	}
	if peak != 32 {
		t.Fatalf("peak inflight = %d packets, want exactly the 32-packet window", peak)
	}
}
