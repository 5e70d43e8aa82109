package core

import (
	"testing"

	"lunasolar/internal/dpu"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// TestProbeRoundTripAllocFree drives the pure packet path — probe out, ack
// back, timer armed and cancelled, HPCC and RTT updated — and asserts it is
// allocation-free in steady state. This is the tightest loop in the
// simulator: every experiment pays it once per packet.
func TestProbeRoundTripAllocFree(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)

	// One write establishes the peer and its paths.
	done := false
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: fill(4096, 1)},
		func(*transport.Response) { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("warmup write failed")
	}
	pe := r.client.peers[r.server.LocalAddr()]
	if pe == nil || len(pe.paths) == 0 {
		t.Fatal("no peer paths after warmup")
	}

	probe := func() {
		r.client.sendProbe(pe, pe.paths[0])
		r.eng.Run()
	}
	for i := 0; i < 64; i++ {
		probe()
	}
	if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
		t.Fatalf("steady-state probe/ack round trip allocates %.1f objects, want 0", allocs)
	}
	if n := r.fab.Pool().Outstanding(); n != 0 {
		t.Fatalf("pool reports %d leaked packets", n)
	}
}

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
