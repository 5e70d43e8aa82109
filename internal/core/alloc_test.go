package core

import (
	"testing"

	"lunasolar/internal/dpu"
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
