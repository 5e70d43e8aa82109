package tcpstack

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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
		MSS: 4096, InitCwnd: 10 * 4096, MaxCwnd: 1 << 20, UseECN: true,
		MinRTO: 2 * time.Millisecond, MaxRTO: 500 * time.Millisecond,
		PerRPCTxCPU: time.Microsecond, PerRPCRxCPU: time.Microsecond,
		PerPktTxCPU: 300 * time.Nanosecond, PerPktRxCPU: 300 * time.Nanosecond,
		TSOBatch: 4, RxBufferSegs: 256,
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

// echoHandler answers a write with its own payload, by reference: the
// request's pooled slab rides back as the response's Payload, which the
// stack retains past reply.
func echoHandler(src uint32, req *transport.Message, reply func(*transport.Response)) {
	if req.Op == wire.RPCReadReq {
		reply(&transport.Response{Data: make([]byte, req.ReadLen)})
		return
	}
	reply(&transport.Response{Data: req.Data, Payload: req.Payload})
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
	if len(p.client.conns) != 1 || len(p.server.conns) != 1 {
		t.Fatalf("conns: client=%d server=%d", len(p.client.conns), len(p.server.conns))
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
		MSS: 1448, InitCwnd: 10 * 1448, MaxCwnd: 1 << 20,
		MinRTO: 200 * time.Millisecond, MaxRTO: 2 * time.Second,
		PerRPCTxCPU: 2 * time.Microsecond, PerRPCRxCPU: 2 * time.Microsecond,
		PerPktTxCPU: time.Microsecond, PerPktRxCPU: time.Microsecond,
		CopyPer4K:     500 * time.Nanosecond,
		PerRPCTxDelay: 15 * time.Microsecond, PerRPCRxDelay: 10 * time.Microsecond,
		RxBufferSegs: 256,
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
	rec := encodeRecord(7, []byte("hello"))
	// Feed in two halves, the cut inside the headers: nothing emitted until
	// the record is complete, and nothing left over after it.
	r := recordReader{pool: new(simnet.PacketPool)}
	got := readPieces(&r, [][]byte{rec[:10]})
	if len(got) != 0 {
		t.Fatal("emitted from partial record")
	}
	got = readPieces(&r, [][]byte{rec[10:]})
	if len(got) != 1 || string(got[0].payload) != "hello" || got[0].rpc.RPCID != 7 {
		t.Fatalf("bad record: %+v", got)
	}
	if r.nhdr != 0 || r.pay != nil || r.npay != 0 {
		t.Fatalf("reader holds %d header and %d payload bytes after a complete record", r.nhdr, r.npay)
	}
	got[0].slab.Release()
	if n := r.pool.Outstanding(); n != 0 {
		t.Fatalf("%d slab references outstanding after the request record was released", n)
	}
}

// parseRecords is the record framing the reader replaced, kept as its
// reference: each delivery was appended to one in-order stream buffer and
// every complete record parsed out of it, returning the bytes left over.
func parseRecords(buf []byte, emit func(record)) []byte {
	for {
		if len(buf) < 4 {
			return buf
		}
		total := int(binary.BigEndian.Uint32(buf))
		if total < recordHdrSize {
			// Corrupt framing: drop the stream content (connection would
			// reset in production; the simulation re-frames on retransmit).
			return nil
		}
		if len(buf) < total {
			return buf
		}
		var rec record
		if err := rec.rpc.Decode(buf[4:]); err != nil {
			return nil
		}
		if err := rec.ebs.Decode(buf[4+wire.RPCSize:]); err != nil {
			return nil
		}
		rec.payload = append([]byte(nil), buf[recordHdrSize:total]...)
		emit(rec)
		buf = buf[total:]
	}
}

// encodeRecord frames one RPC as it travels on the stream: a request for
// an odd id, whose payload the reader pools, and a response for an even one.
func encodeRecord(id uint64, payload []byte) []byte {
	b := make([]byte, recordHdrSize+len(payload))
	rpc := wire.RPC{RPCID: id, MsgType: wire.RPCWriteReq, NumPkts: 1}
	if id%2 == 0 {
		rpc.MsgType = wire.RPCWriteResp
	}
	ebs := wire.EBS{Version: wire.EBSVersion, Op: wire.RPCWriteReq, LBA: id << 12, BlockLen: uint32(len(payload))}
	if err := wire.EncodeRecordHeader(b, len(b), &rpc, &ebs); err != nil {
		panic(err)
	}
	copy(b[recordHdrSize:], payload)
	return b
}

// readPieces feeds each piece to r as processData feeds one delivery:
// records in stream order, and the rest of the piece dropped once the
// framing breaks.
func readPieces(r *recordReader, pieces [][]byte) []record {
	var out []record
	for _, b := range pieces {
		for len(b) > 0 {
			rec, rest, ok, err := r.next(b)
			if err != nil {
				break
			}
			if ok {
				out = append(out, rec)
			}
			b = rest
		}
	}
	return out
}

// parsePieces feeds the same pieces through the reference.
func parsePieces(pieces [][]byte) []record {
	var buf []byte
	var out []record
	for _, b := range pieces {
		buf = parseRecords(append(buf, b...), func(rec record) { out = append(out, rec) })
	}
	return out
}

// Ways recordStream can corrupt one record.
const (
	corruptNone    = iota
	corruptLength  // a total length shorter than the record header
	corruptVersion // an EBS header that does not decode
)

// recordStream frames one record per payload size and, unless kind is
// corruptNone, corrupts record bad. It returns the stream, where each
// record ends, and the offset from which the corruption is detectable.
func recordStream(sizes []int, kind, bad int) (stream []byte, ends []int, detect int) {
	for i, n := range sizes {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(i*31 + j*7)
		}
		start := len(stream)
		stream = append(stream, encodeRecord(uint64(i+1), payload)...)
		ends = append(ends, len(stream))
		if i != bad {
			continue
		}
		switch kind {
		case corruptLength:
			binary.BigEndian.PutUint32(stream[start:], uint32(n%recordHdrSize))
			detect = start + 4
		case corruptVersion:
			stream[start+4+wire.RPCSize] = wire.EBSVersion + 1
			detect = len(stream)
		}
	}
	return stream, ends, detect
}

// splitStream cuts stream into pieces of the given lengths, the last piece
// taking whatever remains. After a corruption both framings drop the rest
// of the delivery that exposed it; the piece that does is made to end with
// the record after the corrupt one, so that the next delivery starts on a
// record boundary, as a retransmission re-framed from sndUna would.
func splitStream(stream []byte, ends []int, kind, bad, detect int, lens []int) [][]byte {
	resync := len(stream)
	if kind != corruptNone && bad+1 < len(ends) {
		resync = ends[bad+1]
	}
	var pieces [][]byte
	at := 0
	for _, n := range lens {
		if at >= len(stream) {
			break
		}
		cut := at + n
		if kind != corruptNone && at < detect && cut >= detect {
			cut = resync
		}
		if cut > len(stream) {
			cut = len(stream)
		}
		pieces = append(pieces, stream[at:cut])
		at = cut
	}
	if at < len(stream) {
		pieces = append(pieces, stream[at:])
	}
	return pieces
}

// checkReader runs one split stream through the reader and the reference
// and requires the same records, in the same order, with the same bytes.
// Every request record holds a reference on a pooled payload; once the
// harness releases them, none may be outstanding — a corrupt record's
// included.
func checkReader(t *testing.T, pieces [][]byte) {
	t.Helper()
	r := recordReader{pool: new(simnet.PacketPool)}
	got, want := readPieces(&r, pieces), parsePieces(pieces)
	defer func() {
		for _, rec := range got {
			rec.slab.Release()
		}
		if n := r.pool.Outstanding(); n != 0 {
			t.Errorf("%d slab references outstanding once every record was released", n)
		}
	}()
	if len(got) != len(want) {
		t.Fatalf("reader emitted %d records, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].rpc != want[i].rpc || got[i].ebs != want[i].ebs || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("record %d differs: reader id %d, %d B; reference id %d, %d B",
				i, got[i].rpc.RPCID, len(got[i].payload), want[i].rpc.RPCID, len(want[i].payload))
		}
	}
}

// TestRecordReaderMatchesParseRecords is the reader's differential: random
// record sequences, payloads from 0 to 3 × MSS with header-only records
// among them, cut at random points — single bytes, cuts inside the length
// word and the headers, multi-record pieces — some with one corrupt record.
func TestRecordReaderMatchesParseRecords(t *testing.T) {
	mss := lunaParams().MSS
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		sizes := make([]int, 1+rng.Intn(8))
		for i := range sizes {
			if rng.Intn(4) != 0 {
				sizes[i] = rng.Intn(3*mss + 1)
			}
		}
		kind, bad := rng.Intn(3), rng.Intn(len(sizes))
		stream, ends, detect := recordStream(sizes, kind, bad)
		var lens []int
		for total := 0; total < len(stream); {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = 1
			case 1:
				n = 1 + rng.Intn(recordHdrSize)
			case 2:
				n = 1 + rng.Intn(2*mss)
			default:
				n = 1 + rng.Intn(len(stream))
			}
			lens = append(lens, n)
			total += n
		}
		checkReader(t, splitStream(stream, ends, kind, bad, detect, lens))
	}
}

// FuzzRecordReader drives the same differential from fuzzed record sizes
// (two bytes each), piece lengths (one byte each) and a corruption
// selector.
func FuzzRecordReader(f *testing.F) {
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, 0x00, 0x05}, []byte{1, 1, 1, 1, 60, 200}, byte(0))
	f.Add([]byte{0x30, 0x00, 0x00, 0x00, 0x10, 0x00}, []byte{3, 70, 255, 2}, byte(1))
	f.Add([]byte{0x00, 0x40, 0x20, 0x00, 0x00, 0x00, 0x08, 0x00}, []byte{68, 68, 4, 4}, byte(5))
	f.Add([]byte{0xff, 0xff, 0x00, 0x01}, []byte{}, byte(2))
	mss := lunaParams().MSS
	f.Fuzz(func(t *testing.T, sizeBytes, lenBytes []byte, sel byte) {
		var sizes []int
		for i := 0; i+1 < len(sizeBytes) && len(sizes) < 16; i += 2 {
			sizes = append(sizes, int(binary.BigEndian.Uint16(sizeBytes[i:]))%(3*mss+1))
		}
		if len(sizes) == 0 {
			return
		}
		kind, bad := int(sel)%3, int(sel/3)%len(sizes)
		stream, ends, detect := recordStream(sizes, kind, bad)
		lens := make([]int, len(lenBytes))
		for i, b := range lenBytes {
			lens[i] = 1 + int(b)
			if b >= 0x80 {
				lens[i] = int(b-0x7f) * 64
			}
		}
		checkReader(t, splitStream(stream, ends, kind, bad, detect, lens))
	})
}

// TestNoStaleOutOfOrderEntries: an RTO rewind re-cuts segments from sndUna,
// so a buffered out-of-order segment can start below rcvNxt once the gap
// before it is filled by differently cut bytes. No drain ever reaches such
// an entry; after a lossy run drains, none may be left.
func TestNoStaleOutOfOrderEntries(t *testing.T) {
	p := newPair(t, lunaParams())
	p.server.SetHandler(echoHandler)
	p.fab.ToR(0, 0, 0, 0).SetDropRate(0.05)
	p.fab.ToR(0, 0, 0, 1).SetDropRate(0.05)
	const n = 60
	done := 0
	for i := 0; i < n; i++ {
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: make([]byte, 4096)},
			func(*transport.Response) { done++ })
	}
	p.eng.RunFor(30 * time.Second)
	if done != n {
		t.Fatalf("completed %d/%d under 5%% loss", done, n)
	}
	stale := 0
	for _, s := range []*Stack{p.client, p.server} {
		for _, c := range s.conns {
			for seq := range c.ooo {
				if seqLT(seq, c.rcvNxt) {
					stale++
				}
			}
		}
	}
	if stale != 0 {
		t.Fatalf("%d out-of-order entries start below rcvNxt after the run drained", stale)
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
	if len(a.conns) != 1 || len(b.conns) != 1 {
		t.Fatalf("two Calls to one peer: %d client-side and %d server-side conns, want 1 and 1", len(a.conns), len(b.conns))
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
	if len(a.conns) != 2 || len(b.conns) != 2 {
		t.Fatalf("after the reverse Call: %d and %d conns, want 2 and 2", len(a.conns), len(b.conns))
	}
}
