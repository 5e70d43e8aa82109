package lunasolar

import (
	"testing"

	"lunasolar/internal/writebench"
)

// TestWritePath4KZeroCopySteadyState is the zero-copy acceptance gate for
// the 4 KiB write path, enforced as a test so it runs on every `go test`
// (the benchmark only reports). In steady state the data path must make at
// most one payload copy per write (the block is CRC'd once at ingress and
// never duplicated again) and zero payload allocations: every buffer, slab
// header and packet comes from the engine-owned pool, so the pool-miss
// counter must not move.
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
	// Per-RPC bookkeeping (the outstanding-write record, timer nodes) may
	// allocate a handful of small objects; a 4 KiB payload alloc would blow
	// straight through this bound.
	if allocs > 8 {
		t.Errorf("write path: %.1f heap allocs/op in steady state, want <= 8", allocs)
	}
}
