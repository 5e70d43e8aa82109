package lunasolar

import (
	"testing"

	"lunasolar/ebs"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/wire"
	"lunasolar/internal/writebench"
)

// TestWritePath4KZeroCopySteadyState is the zero-copy acceptance gate for
// the 4 KiB write path, enforced as a test so it runs on every `go test`
// (the benchmark only reports). In steady state the data path must make at
// most one payload copy per write (the block is CRC'd once at ingress and
// never duplicated again) and zero payload allocations: every buffer, slab
// header and packet comes from the engine-owned pool, so the pool-miss
// counter must not move. The one heap allocation left is the client's RPC
// record, and the event count, which fixes the simulated timeline, stays
// what it was before the record replaced the client's closures.
func TestWritePath4KZeroCopySteadyState(t *testing.T) {
	const ops = 50
	r := writebench.NewRig(1)
	for i := 0; i < 64; i++ {
		r.WriteOne()
	}
	start := r.Snapshot()
	for i := 0; i < ops; i++ {
		r.WriteOne()
	}
	d := r.Snapshot().Delta(start)
	allocs := testing.AllocsPerRun(100, r.WriteOne)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	if copies := float64(d.Copies) / ops; copies > 1 {
		t.Errorf("write path: %.2f payload copies/op, want <= 1", copies)
	}
	if d.PoolMisses != 0 {
		t.Errorf("write path: %d pool misses over %d steady-state ops, want 0 payload allocs", d.PoolMisses, ops)
	}
	if allocs > 1 {
		t.Errorf("write path: %.1f heap allocs/op in steady state, want <= 1", allocs)
	}
	if got := float64(d.Events) / ops; got != 41 {
		t.Errorf("write path: %.2f events/op, want 41", got)
	}
}

// TestReadPath4KSteadyState is the Solar read twin: a 4 KiB read from a
// server that answers at once with the rig's block. It makes no pool miss;
// its heap allocations are the client's RPC record and guest buffer and
// the server's per-read serve state; and its event count stays pinned.
func TestReadPath4KSteadyState(t *testing.T) {
	const ops = 50
	r := writebench.NewRig(1)
	for i := 0; i < 64; i++ {
		r.ReadOne()
	}
	start := r.Snapshot()
	for i := 0; i < ops; i++ {
		r.ReadOne()
	}
	d := r.Snapshot().Delta(start)
	allocs := testing.AllocsPerRun(100, r.ReadOne)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	if d.PoolMisses != 0 {
		t.Errorf("read path: %d pool misses over %d steady-state ops, want 0", d.PoolMisses, ops)
	}
	if allocs > 4 {
		t.Errorf("read path: %.1f heap allocs/op in steady state, want <= 4", allocs)
	}
	if got := float64(d.Events) / ops; got != 78 {
		t.Errorf("read path: %.2f events/op, want 78", got)
	}
}

// TestBNWritePath4KSteadyState is the same gate for the backend half of a
// write — the RDMA hop into a chunk server that every I/O makes three times
// under every FN stack. Once each of the rig's 1 024 LBAs has been written,
// a 4 KiB write must cross it without a payload copy on the network path
// (the request is delivered by reference; the device-store copy is not a
// network copy and is not counted), without a pool miss, and — the store
// recycling the block each overwrite replaces — without a payload
// allocation: what is left is the response the handler and the client each
// build fresh, and per-call bookkeeping.
func TestBNWritePath4KSteadyState(t *testing.T) {
	const ops = 50
	r := writebench.NewBNRig(1)
	r.Warm()
	start := r.Snapshot()
	for i := 0; i < ops; i++ {
		r.WriteOne()
	}
	d := r.Snapshot().Delta(start)
	allocs := testing.AllocsPerRun(100, r.WriteOne)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}

	if d.Copies != 0 {
		t.Errorf("BN write path: %d payload copies over %d ops, want 0", d.Copies, ops)
	}
	if d.PoolMisses != 0 {
		t.Errorf("BN write path: %d pool misses over %d steady-state ops, want 0", d.PoolMisses, ops)
	}
	if allocs > 8 {
		t.Errorf("BN write path: %.1f heap allocs/op in steady state, want <= 8", allocs)
	}
}

// TestLunaPath4KSteadyState is the gate for the FN stack that runs on the
// host — tcpstack, under Luna's preset and the kernel baseline's — from a
// client into a server that acknowledges at once. In steady state a 4 KiB
// write makes no pool miss and at most four heap allocations (what remains
// is the request record's payload, which the receiver materialises, and
// the response envelope); each stream byte — the block and two record
// headers — is gathered into a frame exactly once; and the event count,
// which fixes the simulated timeline, stays what it was before the
// stack's per-packet closures became pooled records.
func TestLunaPath4KSteadyState(t *testing.T) {
	for _, tc := range []struct {
		params tcpstack.Params
		events float64
	}{
		{ebs.LunaStackParams(), 122},
		{ebs.KernelStackParams(), 160},
	} {
		t.Run(tc.params.StackName, func(t *testing.T) {
			const ops = 50
			r := writebench.NewLunaRig(1, tc.params)
			for i := 0; i < 64; i++ {
				r.WriteOne()
			}
			start := r.Snapshot()
			for i := 0; i < ops; i++ {
				r.WriteOne()
			}
			d := r.Snapshot().Delta(start)
			allocs := testing.AllocsPerRun(100, r.WriteOne)
			if err := r.Check(); err != nil {
				t.Fatal(err)
			}

			if d.PoolMisses != 0 {
				t.Errorf("%d pool misses over %d steady-state ops, want 0", d.PoolMisses, ops)
			}
			if allocs > 4 {
				t.Errorf("%.1f heap allocs/op in steady state, want <= 4", allocs)
			}
			if got, want := d.CopiedBytes, uint64(ops*(wire.BlockSize+2*wire.RecordHeaderSize)); got != want {
				t.Errorf("%d bytes gathered over %d ops, want %d: each stream byte once", got, ops, want)
			}
			if got := float64(d.Events) / ops; got != tc.events {
				t.Errorf("%.2f events/op, want %.0f", got, tc.events)
			}
		})
	}
}
