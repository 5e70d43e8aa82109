package simnet

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
)

// TestForwardingAllocFree drives a pooled data packet across the fabric
// (host → ToR → spine → ToR → host) and asserts the steady-state forwarding
// path performs zero heap allocations: packets, link transfers, switch
// forwarding nodes and timer events all come from engine-owned free lists.
// Two rows change the fabric around each packet, so every pick rebuilds
// its group's cached members: a link flap, and a hung spine whose
// detection deadline the clock crosses. The cache is sized when the
// fabric is built, so neither allocates.
func TestForwardingAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(fab *Fabric, send func()) func() // one op: a send and what surrounds it
	}{
		{"steady", func(_ *Fabric, send func()) func() { return send }},
		{"link flap", func(fab *Fabric, send func()) func() {
			uplink := fab.ToR(0, 0, 0, 0).ports[0]
			return func() {
				fab.FailLink(uplink)
				send()
				fab.RepairLink(uplink)
				send()
			}
		}},
		{"hung spine's deadline", func(fab *Fabric, send func()) func() {
			spine := fab.Spine(0, 0, 0)
			return func() {
				spine.Fail()
				send()
				fab.Eng.RunFor(DetectDelay)
				send()
				spine.Repair()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(7)
			cfg := DefaultConfig()
			cfg.RacksPerPod = 2
			cfg.HostsPerRack = 2
			cfg.SpinesPerPod = 2
			cfg.CoresPerDC = 2
			fab := New(eng, cfg)

			a := fab.Host(0, 0, 0, 0)
			b := fab.Host(0, 1, 0, 0)
			a.Handler = func(pkt *Packet) { pkt.Release() }
			b.Handler = func(pkt *Packet) { pkt.Release() }

			send := func() {
				pkt := a.PacketPool().Get(4096)
				pkt.Dst = b.Addr()
				pkt.Proto = 17
				pkt.SrcPort = 30001
				pkt.DstPort = 7010
				pkt.Overhead = EthOverhead
				pkt.SentAt = eng.Now()
				if !a.Send(pkt) {
					pkt.Release()
				}
				eng.Run()
			}
			op := tc.op(fab, send)

			// Warm the pools (packet buffers, xfer/fwd nodes, event free
			// list) and the drop counters' keys.
			for i := 0; i < 64; i++ {
				op()
			}
			if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
				t.Fatalf("fabric forwarding allocates %.1f objects per op, want 0", allocs)
			}
			if n := fab.Pool().Outstanding(); n != 0 {
				t.Fatalf("pool reports %d leaked packets", n)
			}
		})
	}
}

// TestBulkTransferAllocFree: a warm bulk service allocates nothing per
// transfer (the sender record comes back to its pool after the last
// packet), a drained engine holds no record, and the returned record is
// wiped, so a recycled one carries nothing of its last transfer: a long
// transfer at another pace after a short one still lands on the closed
// form.
func TestBulkTransferAllocFree(t *testing.T) {
	eng, fab := smallFabric(t)
	bulk := NewBulkService(fab)
	src, dst := fab.Host(0, 0, 0, 0), fab.Host(0, 1, 0, 0)
	transfer := func() {
		bulk.Transfer(src, dst, 4*4096, 4096, 20e9, eng.Now())
		eng.Run()
	}
	// Warm the pools; the first completion opens the only completion block
	// this test fills (8 + 201 records of complBlock).
	for i := 0; i < 8; i++ {
		transfer()
	}
	if allocs := testing.AllocsPerRun(200, transfer); allocs != 0 {
		t.Fatalf("a warm bulk transfer allocates %.1f objects, want 0", allocs)
	}
	if n := len(bulk.Completions()); n != 209 {
		t.Fatalf("completions = %d, want 209", n)
	}
	if n := eng.PoolOutstanding(); n != 0 {
		t.Fatalf("drained engine holds %d pooled records", n)
	}
	if n := fab.Pool().Outstanding(); n != 0 {
		t.Fatalf("drained fabric holds %d pooled packets", n)
	}
	f := bulk.flows.Get()
	if f == nil || *f != (bulkFlow{}) {
		t.Fatalf("the returned sender record is not wiped: %+v", f)
	}
	bulk.flows.Put(f)

	// Recycled-record check, on a fresh service: the 128-chunk transfer
	// reuses the 4-chunk transfer's record.
	eng, fab = smallFabric(t)
	bulk = NewBulkService(fab)
	src, dst = fab.Host(0, 0, 0, 0), fab.Host(0, 1, 0, 0)
	bulk.Transfer(src, dst, 4*4096, 4096, 20e9, 0)
	eng.Run()
	bulk.Transfer(src, dst, 512<<10, 4096, 5e9, eng.Now().Add(time.Millisecond))
	eng.Run()
	c := bulk.Completions()
	if misses := bulk.flows.Misses(); misses != 1 {
		t.Fatalf("two sequential transfers built %d sender records, want 1", misses)
	}
	want := BulkCompletion{ID: 1, Lat: closedFormLat(fab.Config(), 128, 4096, 5e9), Bytes: 512 << 10}
	if len(c) != 2 || c[1] != want {
		t.Fatalf("completions %+v, want the second to be %+v", c, want)
	}
}

// TestLargeBufClasses: a payload above the data class is served from a
// power-of-two class up to one segment, a released buffer returns to its
// class (LIFO), and a warm class allocates nothing; above the largest class
// GetBuf falls back to a plain allocation PutBuf drops.
func TestLargeBufClasses(t *testing.T) {
	var pp PacketPool
	for _, c := range []struct{ n, cap int }{
		{bufClassData + 1, 8 << 10},
		{8 << 10, 8 << 10},
		{8<<10 + 1, 16 << 10},
		{12 << 10, 16 << 10},
		{64 << 10, 64 << 10},
		{128<<10 - 5, 128 << 10},
		{2 << 20, 2 << 20},
	} {
		b := pp.GetBuf(c.n)
		if len(b) != c.n || cap(b) != c.cap {
			t.Fatalf("GetBuf(%d): len %d cap %d, want cap %d", c.n, len(b), cap(b), c.cap)
		}
		pp.PutBuf(b)
		if again := pp.GetBuf(c.n); &again[:1][0] != &b[:1][0] {
			t.Fatalf("GetBuf(%d) after PutBuf did not reuse the buffer", c.n)
		}
	}
	if b := pp.GetBuf(2<<20 + 1); cap(b) != 2<<20+1 {
		t.Fatalf("above the largest class: cap %d", cap(b))
	}

	s := pp.GetSlab(64 << 10)
	s.Release()
	allocs := testing.AllocsPerRun(100, func() { pp.GetSlab(64 << 10).Release() })
	if allocs != 0 || pp.Outstanding() != 0 {
		t.Fatalf("warm 64 KiB slab: %.1f allocs/op, %d outstanding; want 0, 0", allocs, pp.Outstanding())
	}
	// A buffer of a capacity that is no class size is not adopted.
	pp.PutBuf(make([]byte, 12<<10))
	if b := pp.GetBuf(12 << 10); cap(b) != 16<<10 {
		t.Fatalf("a 12 KiB-capacity buffer was filed into a class: cap %d", cap(b))
	}
}
