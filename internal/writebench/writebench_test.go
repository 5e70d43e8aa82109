package writebench

import (
	"testing"

	"lunasolar/internal/crc"
)

// TestWrongCarriedCRCFailsAtFNClient: a write whose carried block CRC does
// not match its bytes is rejected by each chunk server's device-boundary
// check (Fig. 11's corruption detector). The rejection must cross the BN and
// FN hops and fail the write at the FN client, not come back as durable.
func TestWrongCarriedCRCFailsAtFNClient(t *testing.T) {
	r := NewBlockServerRig(1)
	r.msg.BlockCRCs = []uint32{^crc.Raw(r.payload)}
	r.WriteOne()
	if r.completed != 1 || r.failed != 1 {
		t.Fatalf("%d of 1 writes completed, %d failed; want it to fail", r.completed, r.failed)
	}
	if n, m := r.Pool.Outstanding(), r.Eng.PoolOutstanding(); n != 0 || m != 0 {
		t.Fatalf("%d pooled packets/slab refs and %d pooled records leaked", n, m)
	}
}
