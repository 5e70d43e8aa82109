package lunasolar

import (
	"testing"

	"lunasolar/ebs"
	"lunasolar/internal/sa"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/wire"
	"lunasolar/internal/writebench"
)

// gate is one steady-state acceptance row, enforced as a test so it runs on
// every `go test` (the benchmarks only report). Once its rig is warm, an op
// of size bytes (4 KiB when zero) must make no pool miss — every packet,
// buffer and slab header comes from the engine-owned pools — and no more
// than allocs heap allocations; it must copy exactly copied payload bytes on the network
// path (the device store's copy is not a network copy); and it must take
// exactly events engine events. Events are simulator cost, not simulated
// output: a port's serializer departures take places in the firing order
// without being events, so a count can fall while every table stays
// byte-identical. A pinned count makes any change to it deliberate.
type gate struct {
	test, sub string // the test, and subtest, the row runs under
	rig       func(seed int64) *writebench.Rig
	size      int
	read      bool
	allocs    float64
	events    float64
	copied    float64
}

func lunaRig(p tcpstack.Params) func(int64) *writebench.Rig {
	return func(seed int64) *writebench.Rig { return writebench.NewLunaRig(seed, p) }
}

// The Solar and Luna rigs behind a storage agent, as ebs pairs them.
func solarSARig(seed int64) *writebench.Rig {
	return writebench.NewRig(seed).WithAgent(sa.OffloadedParams())
}

func lunaSARig(seed int64) *writebench.Rig {
	return writebench.NewLunaRig(seed, ebs.LunaStackParams()).WithAgent(sa.SoftwareParams())
}

var gates = []gate{
	// The Solar FN half, into a server that answers at once. A write
	// allocates nothing; a read allocates only the guest buffer its Data is
	// handed over in — the server serves it from one pooled record.
	{test: "TestWritePath4KZeroCopySteadyState", rig: writebench.NewRig, allocs: 0, events: 29},
	{test: "TestReadPath4KSteadyState", rig: writebench.NewRig, read: true, allocs: 1, events: 54},
	// At 64 KiB the RPC record's per-block slices keep their arrays across
	// reuse, and a window-blocked packet leaves its peer's backlog in place,
	// so sixteen blocks cost what one does.
	{test: "TestSolarWrite64KSteadyState", rig: writebench.NewRig, size: 64 << 10, allocs: 0, events: 419},
	{test: "TestSolarRead64KSteadyState", rig: writebench.NewRig, size: 64 << 10, read: true, allocs: 1, events: 459},
	// The BN hop every I/O makes three times under every FN stack: an RDMA
	// client into a chunk-server service. The store recycles the block each
	// overwrite replaces, the chunk server reads into a pooled slab, and
	// every inbound message lands in pooled memory — a one-packet one by
	// reference to its frame's slab, a multi-packet one reassembled into a
	// pooled slab — so nothing allocates, and only a multi-packet message
	// is copied.
	{test: "TestBNWritePath4KSteadyState", rig: writebench.NewBNRig, allocs: 0, events: 50},
	{test: "TestBNReadPath4KSteadyState", rig: writebench.NewBNRig, read: true, allocs: 0, events: 50},
	{test: "TestBNWrite64KSteadyState", rig: writebench.NewBNRig, size: 64 << 10, allocs: 0, events: 410, copied: 64 << 10},
	{test: "TestBNRead64KSteadyState", rig: writebench.NewBNRig, size: 64 << 10, read: true, allocs: 0, events: 410, copied: 64 << 10},
	// The whole storage-server side: RDMA FN into a block server, its
	// three-replica (or primary) fan-out over the RDMA BN into chunk
	// servers. A write allocates nothing. A read's block travels from the
	// chunk server's slab through the BN frame and the block server's FN
	// reply to the FN client by reference: no allocation, no copy.
	{test: "TestBlockServerWrite4KSteadyState", rig: writebench.NewBlockServerRig, allocs: 0, events: 151},
	{test: "TestBlockServerRead4KSteadyState", rig: writebench.NewBlockServerRig, read: true, allocs: 0, events: 83},
	// The host-side FN stack, tcpstack, under Luna's and the kernel's
	// presets. A write's request record lands in a pooled slab, so it
	// allocates nothing; a read allocates the response record's payload,
	// which the receiver materialises. Each stream byte — the payload and
	// two record headers — is gathered once.
	{test: "TestLunaPath4KSteadyState", sub: "luna", rig: lunaRig(ebs.LunaStackParams()), allocs: 0, events: 86, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaPath4KSteadyState", sub: "kernel", rig: lunaRig(ebs.KernelStackParams()), allocs: 0, events: 112, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaRead4KSteadyState", sub: "luna", rig: lunaRig(ebs.LunaStackParams()), read: true, allocs: 1, events: 86, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaRead4KSteadyState", sub: "kernel", rig: lunaRig(ebs.KernelStackParams()), read: true, allocs: 1, events: 112, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestLunaWrite64KSteadyState", sub: "luna", rig: lunaRig(ebs.LunaStackParams()), size: 64 << 10, allocs: 0, events: 476, copied: 64<<10 + 2*wire.RecordHeaderSize},
	{test: "TestLunaWrite64KSteadyState", sub: "kernel", rig: lunaRig(ebs.KernelStackParams()), size: 64 << 10, allocs: 0, events: 1230, copied: 64<<10 + 2*wire.RecordHeaderSize},
	// A guest I/O through the storage agent, over the Solar and Luna FN
	// halves: the agent's record, its pieces and their bound callbacks are
	// pooled, so it adds no allocation to the stack's. A one-piece read
	// hands the guest the buffer its response arrived in.
	{test: "TestSAWrite4KSteadyState", sub: "solar", rig: solarSARig, allocs: 0, events: 31},
	{test: "TestSAWrite4KSteadyState", sub: "luna", rig: lunaSARig, allocs: 0, events: 89, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
	{test: "TestSARead4KSteadyState", sub: "solar", rig: solarSARig, read: true, allocs: 1, events: 56},
	{test: "TestSARead4KSteadyState", sub: "luna", rig: lunaSARig, read: true, allocs: 1, events: 89, copied: wire.BlockSize + 2*wire.RecordHeaderSize},
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
	r := g.rig(1)
	if g.size != 0 {
		r.SetSize(g.size)
	}
	op := r.WriteOne
	if g.read {
		op = r.ReadOne
	}
	r.Warm()
	for i := 0; i < 64; i++ {
		op()
	}
	start := r.Snapshot()
	for i := 0; i < ops; i++ {
		op()
	}
	d := r.Snapshot().Delta(start)
	allocs := testing.AllocsPerRun(100, op)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	if d.PoolMisses != 0 {
		t.Errorf("%d pool misses over %d steady-state ops, want 0", d.PoolMisses, ops)
	}
	if allocs > g.allocs {
		t.Errorf("%.1f heap allocs/op in steady state, want <= %.0f", allocs, g.allocs)
	}
	if got := float64(d.CopiedBytes) / ops; got != g.copied {
		t.Errorf("%.1f payload bytes copied/op, want %.0f", got, g.copied)
	}
	if got := float64(d.Events) / ops; got != g.events {
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
