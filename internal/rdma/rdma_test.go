package rdma

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/cc"
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
		func(r *transport.Response) { got = r.Data; at = p.eng.Now() })
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
		func(r *transport.Response) { got = r.Data })
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
	params.CacheMissPenalty = 10 * time.Microsecond // exaggerated for clarity

	server := New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "s", 8), nil, params)
	server.SetHandler(echo)

	done := 0
	for i := 0; i < 2; i++ {
		client := New(eng, fab.Host(0, 0, 0, i), sim.NewServer(eng, "c", 2), nil, params)
		var issue func()
		n := 0
		issue = func() {
			if n >= 50 {
				return
			}
			n++
			client.Call(server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
				func(*transport.Response) { done++; issue() })
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
	if eng.Now().Duration() < 2*time.Millisecond {
		t.Fatalf("completed in %v; fetch engine not serializing", eng.Now().Duration())
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

// TestDCQCNReactsToCNP drives a transfer under the DCQCN controller and
// injects a CNP mid-flight: the sender's rate must drop below line rate
// and the stack counters must record the notification.
func TestDCQCNReactsToCNP(t *testing.T) {
	params := DefaultParams()
	params.CC = cc.KindDCQCN
	p := newPair(t, params)
	p.server.SetHandler(echo)
	done := false
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 256<<10)},
		func(r *transport.Response) { done = true })
	p.eng.RunFor(5 * time.Microsecond)

	var q *qp
	for _, cq := range p.client.qps {
		q = cq
	}
	if q == nil {
		t.Fatal("no client QP")
	}
	line := q.ctrl.Rate()
	if line <= 0 {
		t.Fatalf("DCQCN rate = %v, want line rate before congestion", line)
	}
	var frame [wire.TCPSegSize + wire.CNPSize]byte
	cnp := wire.CNP{QPN: 1, PSN: uint32(q.sndUna), TSNanos: uint64(p.eng.Now())}
	cnp.Encode(frame[wire.TCPSegSize:])
	q.packetArrived(wire.TCPSeg{Flags: wire.TCPFlagACK | wire.TCPFlagECE}, &simnet.Packet{Payload: frame[:]})
	if got := q.ctrl.Rate(); got >= line {
		t.Fatalf("rate %v after CNP, want < %v", got, line)
	}
	if p.client.CNPsRecv != 1 {
		t.Fatalf("CNPsRecv = %d, want 1", p.client.CNPsRecv)
	}
	p.eng.Run()
	if !done {
		t.Fatal("transfer did not complete under DCQCN")
	}
}

// swiftIncastMaxQueue drives a many-to-one incast (6 compute-pod senders
// into one storage host) under Swift and returns the fabric's deepest
// output-queue high-water mark. Each sender first completes one small
// warm-up RPC so the delay target — and therefore the pacing rate — is
// established before the bulk writes land together.
func swiftIncastMaxQueue(t *testing.T, noPacing bool) int {
	t.Helper()
	eng := sim.NewEngine(1)
	fab := simnet.New(eng, simnet.DefaultConfig())
	p := DefaultParams()
	p.CC = cc.KindSwift
	p.SwiftBaseTarget = 200 * time.Microsecond
	server := New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "srv", 4), nil, p)
	server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		reply(&transport.Response{})
	})
	const senders = 6
	done := 0
	for i := 0; i < senders; i++ {
		c := New(eng, fab.Host(0, 0, i/4, i%4), sim.NewServer(eng, "cl", 4), nil, p)
		dst := server.LocalAddr()
		if noPacing {
			c.qpTo(dst).ctrl.(*cc.Swift).SetPacing(false)
		}
		c.Call(dst, &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
			func(*transport.Response) {
				c.Call(dst, &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 1<<20)},
					func(*transport.Response) { done++ })
			})
	}
	eng.RunFor(5 * time.Second)
	if done != senders {
		t.Fatalf("incast completed %d/%d writes (noPacing=%v)", done, senders, noPacing)
	}
	return fab.MaxQueuedBytes()
}

// TestSwiftPacingTamesIncast locks in the Rate-driven pacer: spreading each
// QP's window over the hop-scaled delay target must cut the incast queue
// high-water mark well below the window-only burst behaviour.
func TestSwiftPacingTamesIncast(t *testing.T) {
	paced := swiftIncastMaxQueue(t, false)
	burst := swiftIncastMaxQueue(t, true)
	t.Logf("incast max queued bytes: paced=%d window-only=%d", paced, burst)
	if paced >= burst {
		t.Fatalf("paced incast queue %d >= window-only %d", paced, burst)
	}
	if paced*2 > burst {
		t.Fatalf("paced incast queue %d not well under window-only %d", paced, burst)
	}
}
