package ebs

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/core"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sa"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
)

func smallConfig(fn StackKind) Config {
	cfg := DefaultConfig(fn)
	cfg.Fabric.RacksPerPod = 2
	cfg.Fabric.HostsPerRack = 4
	cfg.Fabric.SpinesPerPod = 2
	cfg.Fabric.CoresPerDC = 2
	cfg.ComputeServers = 2
	cfg.BlockServers = 2
	cfg.ChunkServers = 4
	return cfg
}

func testCluster(t *testing.T, fn StackKind) *Cluster {
	t.Helper()
	return New(smallConfig(fn))
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed ^ byte(i*31)
	}
	return b
}

// TestEmptyIOCompletesWithError: a zero-length guest I/O must complete
// exactly once with an error instead of hanging, on both paper stacks.
func TestEmptyIOCompletesWithError(t *testing.T) {
	for _, fn := range []StackKind{Luna, Solar} {
		c := testCluster(t, fn)
		vd := c.MustProvision(0, 64<<20, DefaultQoS())
		fired := 0
		check := func(res IOResult) {
			fired++
			if res.Err == nil {
				t.Errorf("%v: empty I/O succeeded", fn)
			}
		}
		vd.Write(0x8000, nil, check)
		vd.Read(0x8000, 0, check)
		c.Run()
		if fired != 2 {
			t.Fatalf("%v: %d of 2 empty I/Os completed", fn, fired)
		}
	}
}

// TestOversizedSolarReadFails: a Solar read needing more Addr-table entries
// than the DPU holds completes once with an error instead of hanging, and a
// read that fits still completes after it.
func TestOversizedSolarReadFails(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.DPU.MaxAddrEntries = 8
	c := New(cfg)
	vd := c.MustProvision(0, 64<<20, DefaultQoS())
	var big, small []IOResult
	vd.Read(0, 64<<10, func(res IOResult) { big = append(big, res) })
	vd.Read(0, 4096, func(res IOResult) { small = append(small, res) })
	c.Run()
	if len(big) != 1 || big[0].Err == nil {
		t.Fatalf("64 KiB read with 8 Addr entries: %d completions, want 1 with an error", len(big))
	}
	if len(small) != 1 || small[0].Err != nil {
		t.Fatalf("4 KiB read after it: %d completions, want 1 without error", len(small))
	}
}

func TestWriteReadAllStacks(t *testing.T) {
	for _, fn := range []StackKind{KernelTCP, Luna, RDMA, Solar, SolarStar} {
		fn := fn
		t.Run(fn.String(), func(t *testing.T) {
			c := testCluster(t, fn)
			vd := c.MustProvision(0, 64<<20, DefaultQoS())
			data := fill(16<<10, byte(fn))
			var wres, rres IOResult
			vd.Write(0x8000, data, func(res IOResult) {
				wres = res
				vd.Read(0x8000, len(data), func(res IOResult) { rres = res })
			})
			c.Run()
			if wres.Err != nil || rres.Err != nil {
				t.Fatalf("errs: %v %v", wres.Err, rres.Err)
			}
			if !bytes.Equal(rres.Data, data) {
				t.Fatal("read-back mismatch")
			}
			if wres.Latency <= 0 || rres.Latency <= 0 {
				t.Fatal("non-positive latency")
			}
			if wres.Latency != wres.Span.Total() || rres.Latency != rres.Span.Total() {
				t.Fatalf("Latency %v/%v is not the span total %v/%v",
					wres.Latency, rres.Latency, wres.Span.Total(), rres.Span.Total())
			}
			// Every component should be populated on writes.
			if wres.Span.Get(trace.SSD) == 0 || wres.Span.Get(trace.BN) == 0 {
				t.Fatalf("write span missing components: %v %v",
					wres.Span.Get(trace.BN), wres.Span.Get(trace.SSD))
			}
		})
	}
}

func TestReadBeforeWriteReturnsZeros(t *testing.T) {
	c := testCluster(t, Solar)
	vd := c.MustProvision(0, 16<<20, DefaultQoS())
	var got []byte
	vd.Read(0, 8192, func(res IOResult) { got = res.Data })
	c.Run()
	if len(got) != 8192 {
		t.Fatalf("len=%d", len(got))
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten disk not zero")
		}
	}
}

func TestUnprovisionedRangeErrors(t *testing.T) {
	c := testCluster(t, Luna)
	vd := c.MustProvision(0, 4<<20, DefaultQoS())
	var res IOResult
	res.Err = nil
	done := false
	vd.Read(64<<20, 4096, func(r IOResult) { res = r; done = true })
	c.Run()
	if !done || res.Err == nil {
		t.Fatal("out-of-range read did not error")
	}
}

func TestCrossSegmentWriteSplits(t *testing.T) {
	c := testCluster(t, Solar)
	vd := c.MustProvision(0, 64<<20, DefaultQoS())
	// Straddle the 2 MiB segment boundary.
	lba := uint64(2<<20) - 8192
	data := fill(16<<10, 77)
	var wres IOResult
	vd.Write(lba, data, func(res IOResult) { wres = res })
	c.Run()
	if wres.Err != nil {
		t.Fatal(wres.Err)
	}
	var rres IOResult
	vd.Read(lba, len(data), func(res IOResult) { rres = res })
	c.Run()
	if !bytes.Equal(rres.Data, data) {
		t.Fatal("cross-segment read-back mismatch")
	}
}

// TestReadBackSurvivesRetransmission: on every FN stack, under 30 % loss
// on both of pod 0's spines, two interleaved 32 KiB writes — one crossing a
// segment boundary, so it has two pieces, and the next issued from its done,
// so it runs on the agent's record the first just recycled — then a
// read-back of both, issued together from the second write's done. Every
// I/O completes exactly once, the reads return the written bytes, and the
// drained cluster holds no pooled record, packet or slab. In the second
// case the guest overwrites each write's buffer inside its done, as the
// workload driver reuses a slot's buffer: no stack may still read it then,
// retransmissions included.
func TestReadBackSurvivesRetransmission(t *testing.T) {
	for _, fn := range []StackKind{KernelTCP, Luna, RDMA, Solar} {
		t.Run(fn.String(), func(t *testing.T) {
			for _, scribble := range []bool{false, true} {
				name := "buffer kept"
				if scribble {
					name = "buffer overwritten in done"
				}
				t.Run(name, func(t *testing.T) { readBackUnderLoss(t, testCluster(t, fn), scribble) })
			}
		})
	}
}

func readBackUnderLoss(t *testing.T, c *Cluster, scribble bool) {
	c.Fabric.Spine(0, 0, 0).SetDropRate(0.3)
	c.Fabric.Spine(0, 0, 1).SetDropRate(0.3)
	vd := c.MustProvision(0, 16<<20, DefaultQoS())
	const size = 32 << 10
	lbas := [2]uint64{sa.SegmentBytes - size/2, sa.SegmentBytes + size}
	data := [2][]byte{fill(size, 99), fill(size, 7)}
	want := [2][]byte{fill(size, 99), fill(size, 7)}
	var fired [4]int
	var res [4]IOResult
	record := func(i int, next func()) func(IOResult) {
		return func(r IOResult) {
			fired[i]++
			res[i] = r
			if scribble && i < 2 {
				for j := range data[i] {
					data[i][j] = 0xee
				}
			}
			if next != nil {
				next()
			}
		}
	}
	readBack := func() {
		vd.Read(lbas[0], size, record(2, nil))
		vd.Read(lbas[1], size, record(3, nil))
	}
	vd.Write(lbas[0], data[0], record(0, func() {
		vd.Write(lbas[1], data[1], record(1, readBack))
	}))
	c.Run()
	for i, n := range fired {
		if n != 1 || res[i].Err != nil {
			t.Fatalf("I/O %d: done fired %d times, err %v", i, n, res[i].Err)
		}
	}
	for i := range want {
		if !bytes.Equal(res[2+i].Data, want[i]) {
			t.Fatalf("read-back of range %d at %#x does not match its write", i, lbas[i])
		}
	}
	if n := c.Leaked(); n != 0 {
		t.Fatalf("%d pooled packets, slab references or records leaked", n)
	}
	if retransmits(c.Compute(0).Stack) == 0 {
		t.Fatal("no retransmission under 30 % spine loss: the test exercises nothing")
	}
}

// retransmits reads an FN stack's retransmission counter.
func retransmits(st transport.Stack) uint64 {
	switch s := st.(type) {
	case *core.Stack:
		return s.Retransmits
	case *tcpstack.Stack:
		return s.Retransmits
	case *rdma.Stack:
		return s.Retransmits
	}
	return 0
}

func TestStackLatencyOrdering(t *testing.T) {
	// The paper's headline shape: kernel ≫ luna > solar for 4 KiB writes.
	medians := map[StackKind]time.Duration{}
	for _, fn := range []StackKind{KernelTCP, Luna, Solar} {
		c := testCluster(t, fn)
		vd := c.MustProvision(0, 64<<20, DefaultQoS())
		n := 0
		var issue func()
		issue = func() {
			if n >= 200 {
				return
			}
			lba := uint64(n%1000) << 12
			n++
			vd.Write(lba, fill(4096, byte(n)), func(IOResult) {
				c.Eng.Schedule(20*time.Microsecond, issue)
			})
		}
		issue()
		c.Run()
		medians[fn] = c.Collector().E2E("write").Median()
	}
	t.Logf("write medians: kernel=%v luna=%v solar=%v",
		medians[KernelTCP], medians[Luna], medians[Solar])
	if !(medians[KernelTCP] > medians[Luna] && medians[Luna] > medians[Solar]) {
		t.Fatalf("latency ordering violated: %v", medians)
	}
	// Kernel should be several times Luna (paper: FN cut ~80%).
	if medians[KernelTCP] < 2*medians[Luna] {
		t.Fatalf("kernel (%v) should be ≫ luna (%v)", medians[KernelTCP], medians[Luna])
	}
}

func TestSolarReducesSAComponent(t *testing.T) {
	// §4.7: Solar reduces the median SA latency by ~95% vs Luna.
	sa := map[StackKind]time.Duration{}
	for _, fn := range []StackKind{Luna, Solar} {
		c := testCluster(t, fn)
		vd := c.MustProvision(0, 64<<20, DefaultQoS())
		for i := 0; i < 100; i++ {
			vd.Write(uint64(i)<<12, fill(4096, byte(i)), nil)
			c.RunFor(time.Millisecond)
		}
		c.Run()
		sa[fn] = c.Collector().Component("write", trace.SA).Median()
	}
	t.Logf("SA medians: luna=%v solar=%v", sa[Luna], sa[Solar])
	if sa[Solar] >= sa[Luna]/5 {
		t.Fatalf("solar SA %v not ≪ luna SA %v", sa[Solar], sa[Luna])
	}
}

func TestQoSThrottling(t *testing.T) {
	c := testCluster(t, Solar)
	vd := c.MustProvision(0, 64<<20, DefaultQoS())
	// A second disk with a tight service level.
	slow := c.MustProvision(1, 64<<20, QoS(1000, 10e6))
	_ = vd
	done := 0
	for i := 0; i < 100; i++ {
		slow.Write(uint64(i)<<12, fill(4096, 1), func(IOResult) { done++ })
	}
	c.Run()
	if done != 100 {
		t.Fatalf("done %d/100", done)
	}
	// 100 I/Os at 1000 IOPS with a 10ms burst window: ≥ ~80ms of pacing.
	if c.Now() < 80*time.Millisecond {
		t.Fatalf("QoS pacing absent: finished in %v", c.Now())
	}
}

func TestMultiTenantIsolation(t *testing.T) {
	// Two disks on different compute servers: a heavily-throttled tenant
	// must not stall the other.
	c := testCluster(t, Solar)
	fast := c.MustProvision(0, 64<<20, DefaultQoS())
	slow := c.MustProvision(1, 64<<20, QoS(500, 5e6))
	for i := 0; i < 50; i++ {
		slow.Write(uint64(i)<<12, fill(4096, 2), nil)
	}
	var fastLat time.Duration
	fast.Write(0, fill(4096, 3), func(res IOResult) { fastLat = res.Latency })
	c.Run()
	if fastLat > time.Millisecond {
		t.Fatalf("fast tenant saw %v behind throttled tenant", fastLat)
	}
}
