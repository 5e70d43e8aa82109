package tcpstack

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// lunaParams is a fast, ECN-enabled configuration for tests.
func lunaParams() Params {
	return Params{
		StackName: "luna", MSS: 4096, UseECN: true,
		MinRTO: 2 * time.Millisecond, MaxRTO: 500 * time.Millisecond,
		PerRPCTxCPU: time.Microsecond, PerRPCRxCPU: time.Microsecond,
		PerPktTxCPU: 300 * time.Nanosecond, PerPktRxCPU: 300 * time.Nanosecond,
		TSOBatch: 4,
	}
}

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
	ch := fab.Host(0, 0, 0, 0)
	sh := fab.Host(0, 1, 0, 0)
	ccores := sim.NewServer(eng, "client-cpu", 4)
	scores := sim.NewServer(eng, "server-cpu", 4)
	return &pair{
		eng:    eng,
		fab:    fab,
		client: New(eng, ch, ccores, nil, p),
		server: New(eng, sh, scores, nil, p),
	}
}

func echoHandler(src uint32, req *transport.Message, reply func(*transport.Response)) {
	if req.Op == wire.RPCReadReq {
		reply(&transport.Response{Data: make([]byte, req.ReadLen)})
		return
	}
	reply(&transport.Response{Data: req.Data})
}

func TestSingleRPCRoundTrip(t *testing.T) {
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	var got []byte
	var doneAt sim.Time
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: data},
		func(r *transport.Response) { got = r.Data; doneAt = p.eng.Now() })
	p.eng.Run()
	if got == nil {
		t.Fatal("no response")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted through the stream")
	}
	d := doneAt.Duration()
	if d < 5*time.Microsecond || d > 60*time.Microsecond {
		t.Fatalf("4KB RPC latency = %v, want 5–60µs", d)
	}
}

func TestManyConcurrentRPCs(t *testing.T) {
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		payload := make([]byte, 4096)
		payload[0] = byte(i)
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: payload},
			func(r *transport.Response) { done++ })
	}
	p.eng.Run()
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	// One persistent connection per peer, both sides.
	if p.client.Conns() != 1 || p.server.Conns() != 1 {
		t.Fatalf("conns: client=%d server=%d", p.client.Conns(), p.server.Conns())
	}
}

func TestLargeRPCSegmentsAndReassembles(t *testing.T) {
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)
	data := make([]byte, 128<<10) // 32 segments
	for i := range data {
		data[i] = byte(i * 7)
	}
	var got []byte
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: data},
		func(r *transport.Response) { got = r.Data })
	p.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("128K payload corrupted")
	}
}

func TestReadRPC(t *testing.T) {
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)
	var got []byte
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCReadReq, ReadLen: 16384},
		func(r *transport.Response) { got = r.Data })
	p.eng.Run()
	if len(got) != 16384 {
		t.Fatalf("read returned %d bytes", len(got))
	}
}

func TestRecoversFromPacketLoss(t *testing.T) {
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)
	// 20% loss at both ToRs of the client rack.
	p.fab.ToR(0, 0, 0, 0).SetDropRate(0.2)
	p.fab.ToR(0, 0, 0, 1).SetDropRate(0.2)
	const n = 50
	done := 0
	for i := 0; i < n; i++ {
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 8192)},
			func(r *transport.Response) { done++ })
	}
	p.eng.RunFor(10 * time.Second)
	if done != n {
		t.Fatalf("completed %d/%d under 20%% loss", done, n)
	}
	if p.client.Retransmits == 0 && p.server.Retransmits == 0 {
		t.Fatal("no retransmissions recorded despite loss")
	}
}

func TestRecoversFromSevereLoss(t *testing.T) {
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)
	p.fab.Spine(0, 0, 0).SetDropRate(0.75)
	p.fab.Spine(0, 0, 1).SetDropRate(0.75)
	done := 0
	for i := 0; i < 10; i++ {
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
			func(r *transport.Response) { done++ })
	}
	p.eng.RunFor(60 * time.Second)
	if done != 10 {
		t.Fatalf("completed %d/10 under 75%% loss", done)
	}
	if p.client.Timeouts == 0 {
		t.Fatal("expected RTO-driven recovery under severe loss")
	}
}

func TestPinnedFlowStallsOnHungToR(t *testing.T) {
	// A TCP connection's 5-tuple is fixed: when the ToR it hashes through
	// hangs (links up), the connection can only wait — the Table 2 failure
	// mode. Completion requires the switch to be repaired.
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)

	// Warm up the connection so its path is established.
	warm := false
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
		func(r *transport.Response) { warm = true })
	p.eng.Run()
	if !warm {
		t.Fatal("warmup failed")
	}

	// Find the ToR carrying the flow and hang it.
	var pinned *simnet.Switch
	for _, idx := range []int{0, 1} {
		tor := p.fab.ToR(0, 0, 0, idx)
		if tor.Forwarded() > 0 {
			pinned = tor
		}
	}
	if pinned == nil {
		t.Fatal("could not locate the pinned ToR")
	}
	pinned.Fail()

	done := false
	start := p.eng.Now()
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
		func(r *transport.Response) { done = true })
	p.eng.RunFor(5 * time.Second)
	if done {
		t.Fatal("RPC completed through a hung ToR without repair")
	}
	// Repair: the connection must eventually recover via RTO retransmit.
	pinned.Repair()
	p.eng.RunFor(10 * time.Second)
	if !done {
		t.Fatal("RPC never completed after repair")
	}
	if p.eng.Now().Sub(start) < time.Second {
		t.Fatal("recovery accounting suspicious")
	}
	_ = start
}

func TestKernelParamsSlower(t *testing.T) {
	kernel := Params{
		StackName: "kernel", MSS: 1448,
		MinRTO: 200 * time.Millisecond, MaxRTO: 2 * time.Second,
		PerRPCTxCPU: 2 * time.Microsecond, PerRPCRxCPU: 2 * time.Microsecond,
		PerPktTxCPU: time.Microsecond, PerPktRxCPU: time.Microsecond,
		CopyPer4K:     500 * time.Nanosecond,
		PerRPCTxDelay: 15 * time.Microsecond, PerRPCRxDelay: 10 * time.Microsecond,
	}
	kp := newPair(t, kernel)
	kp.server.SetHandler(echoHandler)
	var kernelDone sim.Time
	kp.client.Call(kp.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
		func(r *transport.Response) { kernelDone = kp.eng.Now() })
	kp.eng.Run()

	lp := newPair(t, lunaParams())
	lp.server.SetHandler(echoHandler)
	var lunaDone sim.Time
	lp.client.Call(lp.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
		func(r *transport.Response) { lunaDone = lp.eng.Now() })
	lp.eng.Run()

	if kernelDone == 0 || lunaDone == 0 {
		t.Fatal("an RPC did not complete")
	}
	if kernelDone.Duration() < 3*lunaDone.Duration() {
		t.Fatalf("kernel (%v) should be much slower than luna (%v)", kernelDone, lunaDone)
	}
}

func TestPCIeChannelCapsThroughput(t *testing.T) {
	// With a narrow internal PCIe crossed twice, bulk transfer throughput
	// must cap near rate/2 regardless of fabric capacity.
	eng := sim.NewEngine(1)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 1
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 1
	cfg.CoresPerDC = 1
	fab := simnet.New(eng, cfg)
	pcie := sim.NewChannel(eng, "pcie", 10e9) // 10 Gbit/s
	p := lunaParams()
	client := New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "c", 8), pcie, p)
	server := New(eng, fab.Host(0, 0, 0, 1), sim.NewServer(eng, "s", 8), nil, p)
	server.SetHandler(echoHandler)

	const rpcs = 64
	const size = 64 << 10
	done := 0
	for i := 0; i < rpcs; i++ {
		client.Call(server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, size)},
			func(r *transport.Response) { done++ })
	}
	eng.Run()
	if done != rpcs {
		t.Fatalf("done %d/%d", done, rpcs)
	}
	elapsed := eng.Now().Duration().Seconds()
	// Request payloads cross PCIe twice on tx, and echoed responses cross
	// twice on rx → effective goodput ≤ 10G/4 = 2.5 Gbit/s ≈ 312 MB/s.
	goodput := float64(rpcs*size) / elapsed / 1e6
	if goodput > 340 {
		t.Fatalf("goodput %.0f MB/s exceeds the PCIe ceiling", goodput)
	}
	if goodput < 150 {
		t.Fatalf("goodput %.0f MB/s suspiciously low", goodput)
	}
}

func TestParseRecordsPartial(t *testing.T) {
	payload := []byte("hello")
	rec := make([]byte, recordHdrSize+len(payload))
	rpc := wire.RPC{RPCID: 7, MsgType: wire.RPCWriteReq, NumPkts: 1}
	ebs := wire.EBS{Version: wire.EBSVersion, Op: wire.RPCWriteReq}
	if err := wire.EncodeRecordHeader(rec, len(rec), &rpc, &ebs); err != nil {
		t.Fatal(err)
	}
	copy(rec[recordHdrSize:], payload)
	var got []record
	// Feed in two halves: nothing emitted until complete.
	buf := parseRecords(rec[:10], func(r record) { got = append(got, r) })
	if len(got) != 0 {
		t.Fatal("emitted from partial record")
	}
	buf = append(buf, rec[10:]...)
	buf = parseRecords(buf, func(r record) { got = append(got, r) })
	if len(got) != 1 || string(got[0].payload) != "hello" || got[0].rpc.RPCID != 7 {
		t.Fatalf("bad record: %+v", got)
	}
	if len(buf) != 0 {
		t.Fatalf("%d leftover bytes", len(buf))
	}
}

func TestSeqWraparound(t *testing.T) {
	if !seqLT(0xffffffff, 1) {
		t.Fatal("wraparound compare broken")
	}
	if seqLT(1, 0xffffffff) {
		t.Fatal("wraparound compare broken (reverse)")
	}
}

// TestOneClientConnPerPeer pins connTo's index: repeated Calls to one peer
// share one connection, and a host that is both server and client of the
// same peer — a kernel-era block server, whose FN and BN share the stack —
// never sends its own requests down the connection that peer opened to it.
func TestOneClientConnPerPeer(t *testing.T) {
	p := newPair(t, lunaParams())
	p.client.SetHandler(echoHandler)
	p.server.SetHandler(echoHandler)
	a, b := p.client, p.server
	done := 0
	count := func(*transport.Response) { done++ }
	read := &transport.Message{Op: wire.RPCReadReq, ReadLen: 512}
	a.Call(b.LocalAddr(), read, count)
	a.Call(b.LocalAddr(), read, count)
	p.eng.Run()
	if a.Conns() != 1 || b.Conns() != 1 {
		t.Fatalf("two Calls to one peer: %d client-side and %d server-side conns, want 1 and 1", a.Conns(), b.Conns())
	}
	inbound := b.conns[connKey{peer: a.LocalAddr(), localPort: ListenPort, remotePort: a.clients[b.LocalAddr()].key.localPort}]
	if inbound == nil {
		t.Fatal("server has no inbound conn from the client")
	}
	b.Call(a.LocalAddr(), read, count)
	p.eng.Run()
	if done != 3 {
		t.Fatalf("%d of 3 calls completed", done)
	}
	out := b.clients[a.LocalAddr()]
	if out == inbound || out.key.remotePort != ListenPort {
		t.Fatalf("client conn to the peer is %+v; the inbound conn from it is %+v", out.key, inbound.key)
	}
	if a.Conns() != 2 || b.Conns() != 2 {
		t.Fatalf("after the reverse Call: %d and %d conns, want 2 and 2", a.Conns(), b.Conns())
	}
}
