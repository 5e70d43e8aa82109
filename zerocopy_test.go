package lunasolar

import (
	"testing"

	"lunasolar/ebs"
	"lunasolar/internal/sa"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/wire"
)

// gate is one steady-state acceptance row, enforced as a test so it runs on
// every `go test`. Once its rig is warm, an op of size bytes (4 KiB when
// zero) must make no pool miss — every packet, buffer and slab header comes
// from the engine-owned pools — and no more than allocs heap allocations; it
// must make exactly copies payload copies on the network path, moving
// exactly copied bytes (the device store's copy is not a network copy); and
// it must take exactly events engine events. Events are simulator cost, not
// simulated output: a port's serializer departures take places in the
// firing order without being events, so a count can fall while every table
// stays byte-identical. A pinned count makes any change to it deliberate.
type gate struct {
	test, sub string // the test, and subtest, the row runs under
	build     func() *rig
	size      int
	read      bool
	allocs    float64
	events    float64
	copies    float64
	copied    float64
}

func lunaRig(p tcpstack.Params) func() *rig {
	return func() *rig { return newLunaRig(p) }
}

// The Solar and Luna rigs behind a storage agent, as ebs pairs them.
func solarSARig() *rig { return newSolarRig().withAgent(sa.OffloadedParams()) }

func lunaSARig() *rig {
	return newLunaRig(ebs.LunaStackParams()).withAgent(sa.SoftwareParams())
}

var gates = []gate{
	// The Solar FN half, into a server that answers at once. A write
	// allocates nothing; a read allocates only the guest buffer its Data is
	// handed over in — the server serves it from one pooled record.
	{test: "TestWritePath4KZeroCopySteadyState", build: newSolarRig, allocs: 0, events: 29},
	{test: "TestReadPath4KSteadyState", build: newSolarRig, read: true, allocs: 1, events: 54},
	// At 64 KiB the RPC record's per-block slices keep their arrays across
	// reuse, and a window-blocked packet leaves its peer's backlog in place,
	// so sixteen blocks cost what one does.
	{test: "TestSolarWrite64KSteadyState", build: newSolarRig, size: 64 << 10, allocs: 0, events: 419},
	{test: "TestSolarRead64KSteadyState", build: newSolarRig, size: 64 << 10, read: true, allocs: 1, events: 459},
	// The BN hop every I/O makes three times under every FN stack: an RDMA
	// client into a chunk-server service. The store recycles the block each
	// overwrite replaces, the chunk server reads into a pooled slab, and
	// every inbound message lands in pooled memory — a one-packet one by
	// reference to its frame's slab, a multi-packet one reassembled into a
	// pooled slab — so nothing allocates, and only a multi-packet message
	// is copied.
	{test: "TestBNWritePath4KSteadyState", build: newBNRig, allocs: 0, events: 50},
	{test: "TestBNReadPath4KSteadyState", build: newBNRig, read: true, allocs: 0, events: 50},
	{test: "TestBNWrite64KSteadyState", build: newBNRig, size: 64 << 10, allocs: 0, events: 410, copies: 16, copied: 64 << 10},
	{test: "TestBNRead64KSteadyState", build: newBNRig, size: 64 << 10, read: true, allocs: 0, events: 410, copies: 16, copied: 64 << 10},
	// The whole storage-server side: RDMA FN into a block server, its
	// three-replica (or primary) fan-out over the RDMA BN into chunk
	// servers. A write allocates nothing. A read's block travels from the
	// chunk server's slab through the BN frame and the block server's FN
	// reply to the FN client by reference: no allocation, no copy.
	{test: "TestBlockServerWrite4KSteadyState", build: newBlockServerRig, allocs: 0, events: 151},
	{test: "TestBlockServerRead4KSteadyState", build: newBlockServerRig, read: true, allocs: 0, events: 83},
	// The host-side FN stack, tcpstack, under Luna's and the kernel's
	// presets. A write's request record lands in a pooled slab, so it
	// allocates nothing; a read allocates the response record's payload,
	// which the receiver materialises. Each stream byte — the payload and
	// two record headers — is gathered once, one copy per data segment: the
	// record that carries the block takes two segments at Luna's 4 KiB MSS
	// and three at the kernel's 1448 bytes, the other record one.
	{test: "TestLunaPath4KSteadyState", sub: "luna", build: lunaRig(ebs.LunaStackParams()), allocs: 0, events: 86, copies: 3, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaPath4KSteadyState", sub: "kernel", build: lunaRig(ebs.KernelStackParams()), allocs: 0, events: 112, copies: 4, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaRead4KSteadyState", sub: "luna", build: lunaRig(ebs.LunaStackParams()), read: true, allocs: 1, events: 86, copies: 3, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaRead4KSteadyState", sub: "kernel", build: lunaRig(ebs.KernelStackParams()), read: true, allocs: 1, events: 112, copies: 4, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaWrite64KSteadyState", sub: "luna", build: lunaRig(ebs.LunaStackParams()), size: 64 << 10, allocs: 0, events: 476, copies: 18, copied: 64<<10 + 2*wire.RecordHeaderSize},
	{test: "TestLunaWrite64KSteadyState", sub: "kernel", build: lunaRig(ebs.KernelStackParams()), size: 64 << 10, allocs: 0, events: 1230, copies: 47, copied: 64<<10 + 2*wire.RecordHeaderSize},
	// A guest I/O through the storage agent, over the Solar and Luna FN
	// halves: the agent's record, its pieces and their bound callbacks are
	// pooled, so it adds no allocation to the stack's. A one-piece read
	// hands the guest the buffer its response arrived in.
	{test: "TestSAWrite4KSteadyState", sub: "solar", build: solarSARig, allocs: 0, events: 31},
	{test: "TestSAWrite4KSteadyState", sub: "luna", build: lunaSARig, allocs: 0, events: 89, copies: 3, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestSARead4KSteadyState", sub: "solar", build: solarSARig, read: true, allocs: 1, events: 56},
	{test: "TestSARead4KSteadyState", sub: "luna", build: lunaSARig, read: true, allocs: 1, events: 89, copies: 3, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
}

// runGates runs every row filed under the calling test.
func runGates(t *testing.T) {
	for _, g := range gates {
		switch {
		case g.test != t.Name():
		case g.sub == "":
			g.check(t)
		default:
			t.Run(g.sub, g.check)
		}
	}
}

func (g gate) check(t *testing.T) {
	const ops = 50
	r := g.build()
	if g.size != 0 {
		r.setSize(g.size)
	}
	op := r.writeOne
	if g.read {
		op = r.readOne
	}
	r.warm()
	for i := 0; i < 64; i++ {
		op()
	}
	type counters struct{ copies, copied, misses, events uint64 }
	snap := func() counters {
		return counters{r.pool.Copies(), r.pool.CopiedBytes(), r.pool.News(), r.eng.Processed()}
	}
	start := snap()
	for i := 0; i < ops; i++ {
		op()
	}
	end := snap()
	perOp := func(end, start uint64) float64 { return float64(end-start) / ops }
	allocs := testing.AllocsPerRun(100, op)
	if err := r.check(); err != nil {
		t.Fatal(err)
	}

	if n := end.misses - start.misses; n != 0 {
		t.Errorf("%d pool misses over %d steady-state ops, want 0", n, ops)
	}
	if allocs > g.allocs {
		t.Errorf("%.1f heap allocs/op in steady state, want <= %.0f", allocs, g.allocs)
	}
	if got := perOp(end.copies, start.copies); got != g.copies {
		t.Errorf("%.2f payload copies/op, want %.0f", got, g.copies)
	}
	if got := perOp(end.copied, start.copied); got != g.copied {
		t.Errorf("%.1f payload bytes copied/op, want %.0f", got, g.copied)
	}
	if got := perOp(end.events, start.events); got != g.events {
		t.Errorf("%.2f events/op, want %.0f", got, g.events)
	}
}

func TestWritePath4KZeroCopySteadyState(t *testing.T) { runGates(t) }
func TestReadPath4KSteadyState(t *testing.T)          { runGates(t) }
func TestSolarWrite64KSteadyState(t *testing.T)       { runGates(t) }
func TestSolarRead64KSteadyState(t *testing.T)        { runGates(t) }
func TestBNWritePath4KSteadyState(t *testing.T)       { runGates(t) }
func TestBNReadPath4KSteadyState(t *testing.T)        { runGates(t) }
func TestBlockServerWrite4KSteadyState(t *testing.T)  { runGates(t) }
func TestBlockServerRead4KSteadyState(t *testing.T)   { runGates(t) }
func TestLunaPath4KSteadyState(t *testing.T)          { runGates(t) }
func TestLunaRead4KSteadyState(t *testing.T)          { runGates(t) }
func TestBNWrite64KSteadyState(t *testing.T)          { runGates(t) }
func TestBNRead64KSteadyState(t *testing.T)           { runGates(t) }
func TestLunaWrite64KSteadyState(t *testing.T)        { runGates(t) }
func TestSAWrite4KSteadyState(t *testing.T)           { runGates(t) }
func TestSARead4KSteadyState(t *testing.T)            { runGates(t) }
