package ebs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"lunasolar/internal/sa"
	"lunasolar/internal/simnet"
	"lunasolar/internal/stats"
	"lunasolar/internal/transport"
	"lunasolar/internal/workload"
)

func TestControlPlanePlacementSpreadsRacks(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.Fabric.HostsPerRack = 2 // 2 block servers land in 2 racks
	cfg.Fabric.RacksPerPod = 3  // room for 2 block + 4 chunk servers
	c := New(cfg)
	cp := c.ControlPlane()
	vd, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	refs := c.segs.Refs(vd.ID)
	if len(refs) != 4 {
		t.Fatalf("segments = %d", len(refs))
	}
	// With one block server per rack, consecutive segments must alternate
	// failure domains.
	if refs[0].Server == refs[1].Server || refs[2].Server == refs[3].Server {
		t.Fatalf("placement did not spread: %+v", refs)
	}
}

// driveWrites issues count sequential 4 KiB writes on vd spaced interval
// apart, collecting errors and completions.
func driveWrites(c *Cluster, vd *VDisk, count int, interval time.Duration, errs *int, done *int) {
	var issue func(i int)
	issue = func(i int) {
		if i == count {
			return
		}
		lba := (uint64(i) * 4096) % vd.Size()
		vd.Write(lba, fill(4096, byte(i)), func(r IOResult) {
			if r.Err != nil {
				*errs++
			}
			*done++
		})
		c.Eng.Schedule(interval, func() { issue(i + 1) })
	}
	issue(0)
}

func TestMigrateSegmentUnderLoad(t *testing.T) {
	c := testCluster(t, Solar)
	cp := c.ControlPlane()
	vd, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	refs := c.segs.Refs(vd.ID)
	from := refs[0].Server
	var to uint32
	for _, a := range c.BlockServerAddrs() {
		if a != from {
			to = a
			break
		}
	}
	errs, done := 0, 0
	driveWrites(c, vd, 200, 10*time.Microsecond, &errs, &done)
	// Cut segment 0 over mid-storm.
	c.Eng.Schedule(500*time.Microsecond, func() {
		if err := cp.MigrateSegment(vd.ID, 0, to); err != nil {
			t.Error(err)
		}
	})
	c.Run()
	if done != 200 || errs != 0 {
		t.Fatalf("done=%d errs=%d", done, errs)
	}
	if got := c.segs.Refs(vd.ID)[0].Server; got != to {
		t.Fatalf("segment still at %d", got)
	}
	// Data written before and after the cutover reads back intact.
	var rres IOResult
	vd.Read(0, 4096, func(r IOResult) { rres = r })
	c.Run()
	if rres.Err != nil {
		t.Fatal(rres.Err)
	}
}

// TestDrainChunkServerUnderLoad drains chunk server 0 under a 4 KiB write
// storm on both generations the paper's evolution spans: no foreground
// I/O fails, every drained replica is copied and cut over, and the seeded
// data reads back.
func TestDrainChunkServerUnderLoad(t *testing.T) {
	for _, fn := range []StackKind{Luna, Solar} {
		t.Run(fn.String(), func(t *testing.T) {
			c := testCluster(t, fn)
			cp := c.ControlPlane()
			vd, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
			if err != nil {
				t.Fatal(err)
			}
			// Seed every segment so the drained replicas have blocks to copy.
			seed := fill(16<<10, 9)
			var werr error
			for off := uint64(0); off < vd.Size(); off += sa.SegmentBytes {
				vd.Write(off, seed, func(r IOResult) {
					if r.Err != nil {
						werr = r.Err
					}
				})
			}
			c.Run()
			if werr != nil {
				t.Fatal(werr)
			}

			errs, done := 0, 0
			driveWrites(c, vd, 300, 20*time.Microsecond, &errs, &done)
			var report DrainReport
			drained := false
			c.Eng.Schedule(time.Millisecond, func() {
				if err := cp.DrainChunkServer(0, func(r DrainReport) { report = r; drained = true }); err != nil {
					t.Error(err)
				}
			})
			c.Run()
			if done != 300 || errs != 0 {
				t.Fatalf("done=%d errs=%d", done, errs)
			}
			if !drained {
				t.Fatal("drain never completed")
			}
			if report.Segments == 0 || report.BlocksCopied == 0 || report.CopyErrors != 0 {
				t.Fatalf("report: %+v", report)
			}
			if len(report.Cutovers) != report.Segments {
				t.Fatalf("cutovers %d != segments %d", len(report.Cutovers), report.Segments)
			}
			// The drained server holds no replica of this volume's segments now.
			drainAddr := c.chunks[0].Host.Addr()
			for _, ref := range c.segs.Refs(vd.ID) {
				for _, a := range cp.blockByAddr[ref.Server].ReplicaSet(ref.SegmentID) {
					if a == drainAddr {
						t.Fatalf("segment %d still replicated on drained server", ref.SegmentID)
					}
				}
			}
			// Seeded data survives the drain. LBA 4 MiB sits in a drained segment
			// and outside the write storm's range, so the bytes must be the seed's.
			var rres IOResult
			vd.Read(4<<20, len(seed), func(r IOResult) { rres = r })
			c.Run()
			if rres.Err != nil {
				t.Fatal(rres.Err)
			}
			if !bytes.Equal(rres.Data[:4096], seed[:4096]) {
				t.Fatal("post-drain read-back mismatch")
			}
			if n := c.Leaked(); n != 0 {
				t.Fatalf("%d pooled records leaked", n)
			}
		})
	}
}

// TestDrainUnderOverwriteStorm aims the write storm at the blocks being
// copied: MigrateRead hands the source's stored slice to the destination's
// WriteBlock, and the storm overwrites — so the source recycles — that same
// block before the destination's disk commits. The destination must have
// taken its copy at the call; a copy deferred to commit time persists
// whatever the recycled buffer holds by then and fails its CRC.
func TestDrainUnderOverwriteStorm(t *testing.T) {
	c := testCluster(t, Solar)
	cp := c.ControlPlane()
	vd, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	const hot = 8 // blocks per segment the storm keeps rewriting
	segs := vd.Size() / sa.SegmentBytes
	errs, done, issued := 0, 0, 0
	write := func(seg, blk uint64, seed byte) {
		issued++
		vd.Write(seg*sa.SegmentBytes+blk*4096, fill(4096, seed), func(r IOResult) {
			if r.Err != nil {
				errs++
			}
			done++
		})
	}
	for seg := uint64(0); seg < segs; seg++ {
		for blk := uint64(0); blk < hot; blk++ {
			write(seg, blk, byte(seg+blk))
		}
	}
	c.Run()

	var storm func(i int)
	storm = func(i int) {
		if i == 1500 {
			return
		}
		write(uint64(i)%segs, uint64(i/int(segs))%hot, byte(i))
		c.Eng.Schedule(2*time.Microsecond, func() { storm(i + 1) })
	}
	var report DrainReport
	c.Eng.Schedule(100*time.Microsecond, func() {
		if err := cp.DrainChunkServer(0, func(r DrainReport) { report = r }); err != nil {
			t.Error(err)
		}
	})
	storm(0)
	c.Run()
	if done != issued || errs != 0 {
		t.Fatalf("done=%d/%d errs=%d", done, issued, errs)
	}
	if report.Segments == 0 || report.BlocksCopied == 0 || report.CopyErrors != 0 {
		t.Fatalf("report: %+v", report)
	}
	// The hot blocks still read back whole (reads verify the stored CRCs).
	// Which overlapping write an LBA ends on is up to the disks' commit
	// order, so the bytes themselves are not asserted.
	for seg := uint64(0); seg < segs; seg++ {
		var rres IOResult
		vd.Read(seg*sa.SegmentBytes, hot*4096, func(r IOResult) { rres = r })
		c.Run()
		if rres.Err != nil {
			t.Fatal(rres.Err)
		}
	}
}

func TestEvacuateBlockServer(t *testing.T) {
	c := testCluster(t, Solar)
	cp := c.ControlPlane()
	vd, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	errs, done := 0, 0
	driveWrites(c, vd, 100, 10*time.Microsecond, &errs, &done)
	c.Eng.Schedule(300*time.Microsecond, func() {
		if err := cp.EvacuateBlockServer(0); err != nil {
			t.Error(err)
		}
	})
	c.Run()
	if done != 100 || errs != 0 {
		t.Fatalf("done=%d errs=%d", done, errs)
	}
	evacAddr := c.blocks[0].Host.Addr()
	for _, ref := range c.segs.Refs(vd.ID) {
		if ref.Server == evacAddr {
			t.Fatalf("segment %d still on evacuated server", ref.SegmentID)
		}
	}
	// New placements avoid the evacuated server.
	vd2, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range c.segs.Refs(vd2.ID) {
		if ref.Server == evacAddr {
			t.Fatal("placement used evacuated server")
		}
	}
}

func TestTenantQoSIsolation(t *testing.T) {
	c := testCluster(t, Solar)
	cp := c.ControlPlane()
	cp.SetTenantQoS("noisy", sa.QoSSpec{IOPS: 2000, BurstWindow: time.Millisecond})
	agg, err := cp.CreateVolume(0, "noisy", 16<<20, QoS(1e6, 100e9))
	if err != nil {
		t.Fatal(err)
	}
	aggDone := 0
	for i := 0; i < 100; i++ {
		agg.Write(uint64(i)<<12, fill(4096, 1), func(IOResult) { aggDone++ })
	}
	c.Run()
	if aggDone != 100 {
		t.Fatalf("aggressor done %d/100", aggDone)
	}
	// 100 I/Os against a 2000 IOPS tenant cap → at least ~45ms of pacing,
	// even though the per-disk spec allowed 1M IOPS.
	if c.Eng.Now().Duration() < 40*time.Millisecond {
		t.Fatalf("tenant cap absent: finished at %v", c.Eng.Now().Duration())
	}
	if c.computes[0].Agent.TenantDelay == 0 {
		t.Fatal("no tenant delay recorded")
	}
}

// TestTenantCapShieldsVictim runs a victim tenant's open-loop 4 KiB writes
// next to a depth-16 64 KiB aggressor on the same compute server, on the
// eight-compute, three-block, five-chunk Solar cluster of the experiments.
// Both disks get a generous per-disk spec, so only the aggressor tenant's
// 2000 IOPS cap stands between it and the fabric: capped, the victim's p99
// stays within 2x of its p99 with no aggressor at all; uncapped, it does
// not stay as low as capped.
func TestTenantCapShieldsVictim(t *testing.T) {
	victimP99 := func(mode string) float64 {
		cfg := DefaultConfig(Solar)
		cfg.Fabric.RacksPerPod = 2
		cfg.Fabric.HostsPerRack = 4
		cfg.Fabric.SpinesPerPod = 2
		cfg.Fabric.CoresPerDC = 2
		cfg.ComputeServers = 8
		cfg.BlockServers = 3
		cfg.ChunkServers = 5
		c := New(cfg)
		cp := c.ControlPlane()
		diskQoS := QoS(1e6, 100e9)
		if mode == "capped" {
			cp.SetTenantQoS("noisy", sa.QoSSpec{IOPS: 2000, BurstWindow: time.Millisecond})
		}
		victim, err := cp.CreateVolume(0, "quiet", 16<<20, diskQoS)
		if err != nil {
			t.Fatal(err)
		}
		drv := workload.NewDriver(c.Eng)
		if mode != "baseline" {
			agg, err := cp.CreateVolume(0, "noisy", 64<<20, diskQoS)
			if err != nil {
				t.Fatal(err)
			}
			// Slot k writes 64 KiB pieces k, k+16, k+32, ... until 15 ms.
			const aggDepth = 16
			aggSpan := agg.Size() - (64 << 10)
			for k := uint64(0); k < aggDepth; k++ {
				drv.Closed(agg.ID, agg, 1, 0, func(_, i int) (bool, uint64, int, bool) {
					lba := (k*(64<<10) + uint64(i)*aggDepth*(64<<10)) % aggSpan &^ 4095
					return true, lba, 64 << 10, i == 0 || c.Eng.Now().Duration() < 15*time.Millisecond
				}, nil)
			}
		}
		h := stats.NewHistogram()
		drv.Open(victim.ID, victim, func() time.Duration { return 100 * time.Microsecond },
			func(_, n int) (bool, uint64, int, bool) {
				return true, (uint64(n) * 4096) % victim.Size(), 4096, n < 100
			}, func(io *workload.IO) {
				if io.Res.Err == nil {
					h.Record(io.Res.Latency)
				}
			})
		c.Run()
		if n := c.Leaked(); n != 0 {
			t.Errorf("%s: %d pooled records leaked", mode, n)
		}
		return float64(h.P99().Nanoseconds()) / 1e3
	}
	base, capped, uncapped := victimP99("baseline"), victimP99("capped"), victimP99("uncapped")
	t.Logf("victim p99: baseline %.1f µs, capped %.1f µs, uncapped %.1f µs", base, capped, uncapped)
	if base <= 0 {
		t.Fatalf("baseline victim p99 is %v µs — no victim I/Os completed", base)
	}
	if capped > 2*base {
		t.Errorf("capped victim p99 %.1f µs is %.2fx the isolated baseline %.1f µs, gate is 2x", capped, capped/base, base)
	}
	if uncapped <= capped {
		t.Errorf("uncapped victim p99 %.1f µs <= capped %.1f µs: the cap is not what isolates", uncapped, capped)
	}
}

// TestIOPastEndOfDiskRejected: the segment table maps whole 2 MiB segments,
// so a 1 MiB disk used to accept I/O up to the 2 MiB boundary. The guest's
// range is checked against the provisioned size.
func TestIOPastEndOfDiskRejected(t *testing.T) {
	c := testCluster(t, Solar)
	cp := c.ControlPlane()
	vd, err := cp.CreateVolume(0, "acme", 1<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		lba  uint64
		size int
		read bool
		ok   bool
	}{
		{"last-block", 1<<20 - 4096, 4096, false, true},
		{"first-past-end", 1 << 20, 4096, false, false},
		{"straddling", 1<<20 - 4096, 8192, false, false},
		{"read-past-end", 1<<20 + 4096, 4096, true, false},
	} {
		fired := 0
		var res IOResult
		done := func(r IOResult) { fired++; res = r }
		if tc.read {
			vd.Read(tc.lba, tc.size, done)
		} else {
			vd.Write(tc.lba, fill(tc.size, 5), done)
		}
		c.Run()
		if fired != 1 || (res.Err == nil) != tc.ok {
			t.Errorf("1 MiB %s: done fired %d times, err = %v", tc.name, fired, res.Err)
		}
	}
}

// TestPlacementSpreadsDomains: six segments over six block servers in
// three racks use every server once, and the first three picks cover all
// three racks.
func TestPlacementSpreadsDomains(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.Fabric.HostsPerRack = 2
	cfg.Fabric.RacksPerPod = 5 // room for 6 block + 4 chunk servers
	cfg.BlockServers = 6
	c := New(cfg)
	vd, err := c.ControlPlane().CreateVolume(0, "", 6*sa.SegmentBytes, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	refs := c.segs.Refs(vd.ID)
	used := map[uint32]int{}
	for _, r := range refs {
		used[r.Server]++
	}
	for _, addr := range c.BlockServerAddrs() {
		if used[addr] != 1 {
			t.Fatalf("block server %d holds %d segments: %+v", addr, used[addr], refs)
		}
	}
	racks := map[int]bool{}
	for _, r := range refs[:3] {
		racks[simnet.AddrRack(r.Server)] = true
	}
	if len(racks) != 3 {
		t.Fatalf("first three picks cover %d racks: %+v", len(racks), refs)
	}
}

// TestPlacementIsDeterministicAndSkipsEvacuated: clusters given the same
// calls place alike, never on an evacuated block server, and refuse to
// place once every block server is evacuated.
func TestPlacementIsDeterministicAndSkipsEvacuated(t *testing.T) {
	place := func() (*Cluster, []sa.SegmentRef) {
		c := New(ctrlOpsConfig())
		cp := c.ControlPlane()
		if err := cp.EvacuateBlockServer(2); err != nil {
			t.Fatal(err)
		}
		vd, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
		if err != nil {
			t.Fatal(err)
		}
		return c, c.segs.Refs(vd.ID)
	}
	c, refs := place()
	if _, again := place(); fmt.Sprint(again) != fmt.Sprint(refs) {
		t.Fatalf("placement not deterministic: %+v vs %+v", again, refs)
	}
	evacuated := c.blocks[2].Host.Addr()
	for _, r := range refs {
		if r.Server == evacuated {
			t.Fatalf("placed on an evacuated block server: %+v", refs)
		}
	}

	empty := New(ctrlOpsConfig())
	cp := empty.ControlPlane()
	for i := range empty.blocks {
		if err := cp.EvacuateBlockServer(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cp.CreateVolume(0, "", 4<<20, DefaultQoS()); err == nil {
		t.Fatal("placement with every block server evacuated succeeded")
	}
}

// seedSegments writes a distinct 16 KiB pattern at the start of each of
// vd's segments and returns the patterns.
func seedSegments(t *testing.T, c *Cluster, vd *VDisk) [][]byte {
	t.Helper()
	var seeds [][]byte
	var werr error
	for off := uint64(0); off < vd.Size(); off += sa.SegmentBytes {
		seed := fill(16<<10, byte(len(seeds)+1))
		seeds = append(seeds, seed)
		vd.Write(off, seed, func(r IOResult) {
			if r.Err != nil {
				werr = r.Err
			}
		})
	}
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	return seeds
}

// readSegments reads back seedSegments' patterns, skipping nil ones.
func readSegments(t *testing.T, c *Cluster, vd *VDisk, seeds [][]byte) {
	t.Helper()
	for i, seed := range seeds {
		if seed == nil {
			continue
		}
		var res IOResult
		vd.Read(uint64(i)*sa.SegmentBytes, len(seed), func(r IOResult) { res = r })
		c.Run()
		if res.Err != nil || !bytes.Equal(res.Data, seed) {
			t.Fatalf("segment %d reads back err=%v, equal=%v", i, res.Err, bytes.Equal(res.Data, seed))
		}
	}
}

// TestEvacuateCoversProvisionedVolume: evacuation moves the segments of a
// volume made with Provision too, under a write storm, and its data reads
// back.
func TestEvacuateCoversProvisionedVolume(t *testing.T) {
	c := testCluster(t, Solar)
	vd := c.MustProvision(0, 8<<20, DefaultQoS())
	seeds := seedSegments(t, c, vd)
	errs, done := 0, 0
	driveWrites(c, vd, 100, 10*time.Microsecond, &errs, &done)
	c.Eng.Schedule(300*time.Microsecond, func() {
		if err := c.ControlPlane().EvacuateBlockServer(0); err != nil {
			t.Error(err)
		}
	})
	c.Run()
	if done != 100 || errs != 0 {
		t.Fatalf("done=%d errs=%d", done, errs)
	}
	evacuated := c.blocks[0].Host.Addr()
	for i, ref := range c.segs.Refs(vd.ID) {
		if ref.Server == evacuated {
			t.Fatalf("segment %d still on the evacuated block server", i)
		}
	}
	seeds[0] = nil // the storm rewrote the first 400 KiB
	readSegments(t, c, vd, seeds)
}

// TestDrainCoversProvisionedVolume: a chunk-server drain rebuilds the
// replicas of a volume made with Provision too, and its data reads back.
func TestDrainCoversProvisionedVolume(t *testing.T) {
	c := testCluster(t, Solar)
	vd := c.MustProvision(0, 8<<20, DefaultQoS())
	seeds := seedSegments(t, c, vd)
	var report DrainReport
	if err := c.ControlPlane().DrainChunkServer(0, func(r DrainReport) { report = r }); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if report.Segments == 0 || report.BlocksCopied == 0 || report.CopyErrors != 0 {
		t.Fatalf("report: %+v", report)
	}
	drained := c.chunks[0].Host.Addr()
	for _, ref := range c.segs.Refs(vd.ID) {
		if slices.Contains(c.ControlPlane().blockByAddr[ref.Server].ReplicaSet(ref.SegmentID), drained) {
			t.Fatalf("segment %d still replicated on the drained chunk server", ref.SegmentID)
		}
	}
	readSegments(t, c, vd, seeds)
	if n := c.Leaked(); n != 0 {
		t.Fatalf("%d pooled records leaked", n)
	}
}

// TestMigrateSegmentRefusesEvacuatedTarget: a migration onto an evacuated
// block server would undo the evacuation, so it fails and moves nothing.
func TestMigrateSegmentRefusesEvacuatedTarget(t *testing.T) {
	c := testCluster(t, Solar)
	cp := c.ControlPlane()
	vd, err := cp.CreateVolume(0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.EvacuateBlockServer(0); err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprint(c.segs.Refs(vd.ID))
	if err := cp.MigrateSegment(vd.ID, 0, c.blocks[0].Host.Addr()); err == nil {
		t.Fatal("migrating onto an evacuated block server succeeded")
	}
	if after := fmt.Sprint(c.segs.Refs(vd.ID)); after != before {
		t.Fatalf("refused migration moved segments: %s -> %s", before, after)
	}
}

// TestReadBitFlipEndsWithIntegrityError: on a Solar card that corrupts
// every block, a write still lands (the software aggregate repairs it from
// the trusted buffer), but a read cannot get clean data. It ends exactly
// once with transport.ErrIntegrity, within 2 s of simulated time, and
// leaves nothing behind.
func TestReadBitFlipEndsWithIntegrityError(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.DPU.Faults.DataBitFlip = 1
	c := New(cfg)
	vd := c.MustProvision(0, 4<<20, DefaultQoS())
	var wres IOResult
	vd.Write(0, fill(4096, 7), func(r IOResult) { wres = r })
	c.Run()
	if wres.Err != nil {
		t.Fatal(wres.Err)
	}
	fired := 0
	var res IOResult
	vd.Read(0, 4096, func(r IOResult) { fired++; res = r })
	c.RunFor(2 * time.Second)
	if fired != 1 || !errors.Is(res.Err, transport.ErrIntegrity) {
		t.Fatalf("read done fired %d times, err = %v; want once with %v", fired, res.Err, transport.ErrIntegrity)
	}
	if p := c.Eng.Pending(); p != 0 {
		t.Fatalf("%d events still pending", p)
	}
	if n := c.Leaked(); n != 0 {
		t.Fatalf("%d pooled records leaked", n)
	}
}
