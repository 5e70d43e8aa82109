package core

import (
	"reflect"
	"testing"

	"lunasolar/internal/cc"
	"lunasolar/internal/dpu"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// emptyResp is a shared zero response so the handler below never allocates.
var emptyResp transport.Response

// TestWritePathAllocsPerPacketBounded measures the full Solar write data
// path (16 blocks + 16 acks per RPC) in steady state. Per-RPC bookkeeping
// (the RPC record, map inserts) is allowed to allocate; the
// per-packet cost must stay near zero, so the amortized figure per packet is
// required to be below one object.
func TestWritePathAllocsPerPacketBounded(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	// Replace the rig's allocating store with a no-op handler: this test
	// measures the stack, not the application.
	r.server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		reply(&emptyResp)
	})

	data := fill(64<<10, 3) // 16 blocks → 32 packets + 1 probe-sized reply path
	msg := &transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: data}
	onDone := func(*transport.Response) {}
	write := func() {
		r.client.Call(r.server.LocalAddr(), msg, onDone)
		r.eng.Run()
	}
	for i := 0; i < 64; i++ {
		write()
	}
	const pktsPerRPC = 32 // 16 data packets + 16 acks
	allocs := testing.AllocsPerRun(100, write)
	perPacket := allocs / pktsPerRPC
	t.Logf("write RPC: %.1f allocs total, %.3f per packet", allocs, perPacket)
	if perPacket >= 1.0 {
		t.Fatalf("steady-state write path allocates %.2f objects per packet, want < 1", perPacket)
	}
	if n := r.fab.Pool().Outstanding(); n != 0 {
		t.Fatalf("pool reports %d leaked packets", n)
	}
}

// TestFailoverRekeysPathInPlace: a failover allocates nothing. The path
// keeps its slot, its send queue and its in-flight bytes, and takes a new
// source port; every other field is a new path's.
func TestFailoverRekeysPathInPlace(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: fill(64<<10, 5)},
		func(*transport.Response) {})
	r.eng.Run()
	pe := r.client.peers[r.server.LocalAddr()]
	p := pe.paths[0]
	p.consecTO = pathFailThreshold
	p.inflightBytes = 3 * maxPktSize
	p.outstanding = append(p.outstanding, outRef{e: &outPkt{}, gen: 1})
	p.ctrl.OnTimeout()

	fresh := path{
		rtt:  *transport.NewRTT(minRTO, maxRTO),
		ctrl: *cc.NewHPCC(maxPktSize, initCwnd, maxCwnd, baseRTT),
	}
	// Warm-up must have moved every field a failover resets, or the
	// comparison below could not tell a reset from a field left alone.
	if p.rtt == fresh.rtt || p.ctrl == fresh.ctrl || p.seq == 0 ||
		p.maxAckedSeq == 0 || p.sent == 0 || p.acked == 0 || p.tele == (pathTelemetry{}) {
		t.Fatalf("warm-up left path %d partly fresh: %+v", p.id, *p)
	}

	queue, inflight := p.outstanding, p.inflightBytes
	allocs := testing.AllocsPerRun(100, func() { r.client.failover(p) })
	if allocs != 0 {
		t.Fatalf("failover allocates %.1f objects, want 0", allocs)
	}
	if pe.paths[0] != p {
		t.Fatal("failover replaced the path record instead of re-keying it")
	}
	want := fresh
	want.id, want.outstanding, want.inflightBytes = p.id, queue, inflight
	if !reflect.DeepEqual(*p, want) {
		t.Fatalf("re-keyed path\n%+v\nwant a new path's state\n%+v", *p, want)
	}
	if r.client.PathFailovers != 101 {
		t.Fatalf("%d failovers counted, want 101", r.client.PathFailovers)
	}
	evs := r.client.Recorder().Events()
	last := evs[len(evs)-1]
	if last.Kind != trace.EvFailover || last.Arg1 != uint64(p.id)-1 || last.Arg2 != uint64(p.id) {
		t.Fatalf("last recorded event %+v, want a failover from port %d to %d", last, p.id-1, p.id)
	}
}

// TestBacklogDrainsInOrderWithoutAllocating: on paths whose windows hold
// one block each, most of a 16-block write waits in the peer's backlog.
// The blocks still reach the server in the order they were queued, and
// once warm a write allocates nothing: the backlog keeps its array.
func TestBacklogDrainsInOrderWithoutAllocating(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	dst := r.server.LocalAddr()
	pe := r.client.peerFor(dst)
	for _, p := range pe.paths {
		p.ctrl = *cc.NewHPCC(maxPktSize, maxPktSize, maxPktSize, baseRTT)
	}
	inflight := len(pe.paths) // one block per path

	const blocks = 16
	order := make([]uint64, 0, blocks)
	queued := 0
	r.server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		order = append(order, req.LBA)
		queued = max(queued, len(pe.backlog))
		reply(&emptyResp)
	})
	msg := &transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: fill(blocks*wire.BlockSize, 7)}
	onDone := func(*transport.Response) {}
	write := func() {
		order = order[:0]
		r.client.Call(dst, msg, onDone)
		r.eng.Run()
	}
	for i := 0; i < 16; i++ {
		write()
	}
	allocs := testing.AllocsPerRun(50, write)

	if queued < blocks-inflight {
		t.Fatalf("at most %d blocks waited in the backlog, want %d", queued, blocks-inflight)
	}
	if r.client.Retransmits != 0 {
		t.Fatalf("%d retransmits: a resent block may overtake the queue", r.client.Retransmits)
	}
	if len(order) != blocks {
		t.Fatalf("the server saw %d blocks of the last write, want %d", len(order), blocks)
	}
	for i, lba := range order {
		if lba != uint64(i*wire.BlockSize) {
			t.Fatalf("arrival %d is the block at LBA %#x, want %#x: the backlog is not FIFO", i, lba, i*wire.BlockSize)
		}
	}
	if len(pe.backlog) != 0 {
		t.Fatalf("%d packets left in the backlog", len(pe.backlog))
	}
	if allocs != 0 {
		t.Fatalf("a window-blocked write allocates %.1f objects, want 0", allocs)
	}
}
