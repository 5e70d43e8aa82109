package ebs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lunasolar/internal/sa"
	"lunasolar/internal/stats"
	"lunasolar/internal/workload"
)

// controlPlane returns c's control plane, failing the test on an error.
func controlPlane(t *testing.T, c *Cluster) *ControlPlane {
	t.Helper()
	cp, err := c.ControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestControlPlaneLifecycle(t *testing.T) {
	c := testCluster(t, Solar)
	cp := controlPlane(t, c)

	vd, err := cp.CreateVolume("create-1", 0, "acme", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	// Replay returns the same volume without re-provisioning.
	vd2, err := cp.CreateVolume("create-1", 0, "acme", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	if vd2 != vd {
		t.Fatal("replayed create returned a different vdisk")
	}

	data := fill(8<<10, 3)
	var wres IOResult
	vd.Write(0, data, func(r IOResult) { wres = r })
	c.Run()
	if wres.Err != nil {
		t.Fatal(wres.Err)
	}

	// Resize grows the mapping; the new range becomes writable.
	if err := cp.ResizeVolume("resize-1", vd.ID, 16<<20); err != nil {
		t.Fatal(err)
	}
	if vd.Size() != 16<<20 {
		t.Fatalf("size after resize = %d", vd.Size())
	}
	var wres2 IOResult
	vd.Write(12<<20, data, func(r IOResult) { wres2 = r })
	c.Run()
	if wres2.Err != nil {
		t.Fatal(wres2.Err)
	}

	// Snapshot + clone: the clone is a distinct, writable volume of the
	// snapshot's size.
	snap, err := cp.SnapshotVolume("snap-1", vd.ID)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := cp.CloneVolume("clone-1", snap, 1, "acme", DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	if clone.ID == vd.ID || clone.Size() != 16<<20 {
		t.Fatalf("clone: id=%d size=%d", clone.ID, clone.Size())
	}
	var wres3 IOResult
	clone.Write(0, data, func(r IOResult) { wres3 = r })
	c.Run()
	if wres3.Err != nil {
		t.Fatal(wres3.Err)
	}

	// Delete: later I/O fails with a provisioning error, and the record
	// becomes a tombstone.
	if err := cp.DeleteVolume("del-1", vd.ID); err != nil {
		t.Fatal(err)
	}
	var rres IOResult
	vd.Read(0, 4096, func(r IOResult) { rres = r })
	c.Run()
	if rres.Err == nil {
		t.Fatal("read from deleted volume succeeded")
	}
	if vol := cp.vols[vd.ID]; vol == nil || !vol.deleted {
		t.Fatalf("deleted record: %+v", vol)
	}
	// Replayed delete still reports success.
	if err := cp.DeleteVolume("del-1", vd.ID); err != nil {
		t.Fatal(err)
	}
}

func TestControlPlanePlacementSpreadsRacks(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.Fabric.HostsPerRack = 2 // 2 block servers land in 2 racks
	cfg.Fabric.RacksPerPod = 3  // room for 2 block + 4 chunk servers
	c := New(cfg)
	cp := controlPlane(t, c)
	vd, err := cp.CreateVolume("c", 0, "", 8<<20, DefaultQoS())
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
	cp := controlPlane(t, c)
	vd, err := cp.CreateVolume("c", 0, "", 8<<20, DefaultQoS())
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
	if c.segs.Generation(vd.ID) == 0 {
		t.Fatal("generation not bumped")
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
			cp := controlPlane(t, c)
			vd, err := cp.CreateVolume("c", 0, "", 8<<20, DefaultQoS())
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
	cp := controlPlane(t, c)
	vd, err := cp.CreateVolume("c", 0, "", 8<<20, DefaultQoS())
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
	cp := controlPlane(t, c)
	vd, err := cp.CreateVolume("c", 0, "", 8<<20, DefaultQoS())
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
	vd2, err := cp.CreateVolume("c2", 0, "", 8<<20, DefaultQoS())
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
	cp := controlPlane(t, c)
	cp.SetTenantQoS("noisy", sa.QoSSpec{IOPS: 2000, BurstWindow: time.Millisecond})
	agg, err := cp.CreateVolume("agg", 0, "noisy", 16<<20, QoS(1e6, 100e9))
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
	if c.Now() < 40*time.Millisecond {
		t.Fatalf("tenant cap absent: finished at %v", c.Now())
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
		cp := controlPlane(t, c)
		diskQoS := QoS(1e6, 100e9)
		if mode == "capped" {
			cp.SetTenantQoS("noisy", sa.QoSSpec{IOPS: 2000, BurstWindow: time.Millisecond})
		}
		victim, err := cp.CreateVolume("victim", 0, "quiet", 16<<20, diskQoS)
		if err != nil {
			t.Fatal(err)
		}
		drv := workload.NewDriver(c.Eng)
		if mode != "baseline" {
			agg, err := cp.CreateVolume("aggressor", 0, "noisy", 64<<20, diskQoS)
			if err != nil {
				t.Fatal(err)
			}
			// Slot k writes 64 KiB pieces k, k+16, k+32, ... until 15 ms.
			const aggDepth = 16
			aggSpan := agg.Size() - (64 << 10)
			for k := uint64(0); k < aggDepth; k++ {
				drv.Closed(agg.ID, agg, 1, 0, func(_, i int) (bool, uint64, int, bool) {
					lba := (k*(64<<10) + uint64(i)*aggDepth*(64<<10)) % aggSpan &^ 4095
					return true, lba, 64 << 10, i == 0 || c.Now() < 15*time.Millisecond
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
// range is checked against the provisioned size, and a resize moves the
// limit.
func TestIOPastEndOfDiskRejected(t *testing.T) {
	c := testCluster(t, Solar)
	cp := controlPlane(t, c)
	vd, err := cp.CreateVolume("create-1", 0, "acme", 1<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		lba  uint64
		size int
		read bool
		ok   bool // before the resize; all succeed after it
	}{
		{"last-block", 1<<20 - 4096, 4096, false, true},
		{"first-past-end", 1 << 20, 4096, false, false},
		{"straddling", 1<<20 - 4096, 8192, false, false},
		{"read-past-end", 1<<20 + 4096, 4096, true, false},
	}
	run := func(stage string, wantOK func(ok bool) bool) {
		for _, tc := range cases {
			fired := 0
			var res IOResult
			done := func(r IOResult) { fired++; res = r }
			if tc.read {
				vd.Read(tc.lba, tc.size, done)
			} else {
				vd.Write(tc.lba, fill(tc.size, 5), done)
			}
			c.Run()
			if fired != 1 || (res.Err == nil) != wantOK(tc.ok) {
				t.Errorf("%s %s: done fired %d times, err = %v", stage, tc.name, fired, res.Err)
			}
		}
	}
	run("1 MiB", func(ok bool) bool { return ok })
	if err := cp.ResizeVolume("resize-1", vd.ID, 3<<20); err != nil {
		t.Fatal(err)
	}
	run("3 MiB", func(bool) bool { return true })
	// The new limit is the new size, not the mapping's 4 MiB.
	var res IOResult
	vd.Write(3<<20, fill(4096, 5), func(r IOResult) { res = r })
	c.Run()
	if res.Err == nil {
		t.Fatal("write past the resized end succeeded")
	}
}

// TestControlPlaneRequestIDs: a replayed request ID returns the original
// outcome, success or error, without executing again, and lifecycle ops
// refuse what the lifecycle does not allow.
func TestControlPlaneRequestIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Cluster, cp *ControlPlane)
	}{
		{"replayed create", func(t *testing.T, c *Cluster, cp *ControlPlane) {
			vd, err := cp.CreateVolume("c1", 0, "acme", 8<<20, DefaultQoS())
			if err != nil {
				t.Fatal(err)
			}
			// The replay's arguments are ignored: the ID alone names the request.
			again, err := cp.CreateVolume("c1", 1, "other", 16<<20, DefaultQoS())
			if err != nil || again != vd {
				t.Fatalf("replayed create = (%p, %v), want (%p, nil)", again, err, vd)
			}
			if c.nextVD != 1 || len(cp.order) != 1 || vd.Size() != 8<<20 {
				t.Fatalf("replay provisioned again: %d vdisks, %d managed, size %d", c.nextVD, len(cp.order), vd.Size())
			}
			if other, err := cp.CreateVolume("c2", 0, "acme", 8<<20, DefaultQoS()); err != nil || other == vd {
				t.Fatalf("distinct request = (%p, %v), want a new volume", other, err)
			}
		}},
		{"failed create", func(t *testing.T, c *Cluster, cp *ControlPlane) {
			_, err := cp.CreateVolume("c1", 2, "acme", 8<<20, DefaultQoS())
			if err == nil {
				t.Fatal("create on compute 2 of 2 succeeded")
			}
			if _, again := cp.CreateVolume("c1", 0, "acme", 8<<20, DefaultQoS()); again != err {
				t.Fatalf("replayed failed create = %v, want the recorded %v", again, err)
			}
			for _, addr := range c.BlockServerAddrs() {
				if cp.placer.Load(addr) != 0 {
					t.Fatalf("failed create left load %d on %d", cp.placer.Load(addr), addr)
				}
			}
			if c.nextVD != 0 || len(cp.vols) != 0 {
				t.Fatalf("failed create left a record: %d vdisks, %d managed", c.nextVD, len(cp.vols))
			}
		}},
		{"resize", func(t *testing.T, c *Cluster, cp *ControlPlane) {
			vd, err := cp.CreateVolume("c1", 0, "acme", 4<<20, DefaultQoS())
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.ResizeVolume("r1", vd.ID, 8<<20); err != nil {
				t.Fatal(err)
			}
			if err := cp.ResizeVolume("r2", vd.ID, 1<<20); err == nil {
				t.Fatal("shrink allowed")
			}
			if err := cp.ResizeVolume("r1", vd.ID, 64<<20); err != nil {
				t.Fatalf("replayed resize: %v", err)
			}
			if vd.Size() != 8<<20 || len(c.segs.Refs(vd.ID)) != 4 {
				t.Fatalf("replayed resize grew the volume: size %d, %d segments", vd.Size(), len(c.segs.Refs(vd.ID)))
			}
		}},
		{"clone of unknown snapshot", func(t *testing.T, c *Cluster, cp *ControlPlane) {
			vd, err := cp.CreateVolume("c1", 0, "acme", 6<<20, DefaultQoS())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := cp.SnapshotVolume("s1", vd.ID)
			if err != nil {
				t.Fatal(err)
			}
			if clone, err := cp.CloneVolume("cl1", snap, 1, "other", DefaultQoS()); err != nil || clone.Size() != 6<<20 {
				t.Fatalf("clone = (%v, %v), want a 6 MiB volume", clone, err)
			}
			for _, unknown := range []uint32{0, snap + 1} {
				if _, err := cp.CloneVolume(fmt.Sprintf("cl-%d", unknown), unknown, 1, "other", DefaultQoS()); err == nil {
					t.Fatalf("clone of unknown snapshot %d allowed", unknown)
				}
			}
		}},
		{"double delete", func(t *testing.T, c *Cluster, cp *ControlPlane) {
			vd, err := cp.CreateVolume("c1", 0, "acme", 6<<20, DefaultQoS())
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.DeleteVolume("d1", vd.ID); err != nil {
				t.Fatal(err)
			}
			if err := cp.DeleteVolume("d2", vd.ID); err == nil {
				t.Fatal("double delete allowed")
			}
			if err := cp.DeleteVolume("d1", vd.ID); err != nil {
				t.Fatalf("replayed delete: %v", err)
			}
		}},
		{"unknown or deleted volume", func(t *testing.T, c *Cluster, cp *ControlPlane) {
			vd, err := cp.CreateVolume("c1", 0, "acme", 6<<20, DefaultQoS())
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.DeleteVolume("d1", vd.ID); err != nil {
				t.Fatal(err)
			}
			for _, id := range []uint32{vd.ID, 999} {
				if err := cp.ResizeVolume(fmt.Sprintf("r-%d", id), id, 8<<20); err == nil {
					t.Errorf("resize of volume %d allowed", id)
				}
				if _, err := cp.SnapshotVolume(fmt.Sprintf("s-%d", id), id); err == nil {
					t.Errorf("snapshot of volume %d allowed", id)
				}
				if err := cp.DeleteVolume(fmt.Sprintf("d-%d", id), id); err == nil {
					t.Errorf("delete of volume %d allowed", id)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t, Solar)
			tc.run(t, c, controlPlane(t, c))
		})
	}
}

// TestMigrateSegmentRefusesUnmanagedVolume: a volume the control plane did
// not create (or has deleted) never charged the placer, so migrating one
// of its segments used to release load it never held and charge the
// target, biasing every later placement.
func TestMigrateSegmentRefusesUnmanagedVolume(t *testing.T) {
	c := testCluster(t, Solar)
	cp := controlPlane(t, c)
	managed, err := cp.CreateVolume("c1", 0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	deleted, err := cp.CreateVolume("c2", 0, "", 8<<20, DefaultQoS())
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.DeleteVolume("d2", deleted.ID); err != nil {
		t.Fatal(err)
	}
	direct := c.MustProvision(0, 8<<20, DefaultQoS())
	addrs := c.BlockServerAddrs()
	loads := func() string { return fmt.Sprint(cp.placer.Load(addrs[0]), cp.placer.Load(addrs[1])) }
	if got := loads(); got != "2 2" {
		t.Fatalf("placer loads %s, want 2 2 for the managed volume's four segments", got)
	}
	from := c.segs.Refs(direct.ID)[0].Server
	to := addrs[0]
	if to == from {
		to = addrs[1]
	}
	if err := cp.MigrateSegment(direct.ID, 0, to); err == nil {
		t.Fatal("migrating an unmanaged volume's segment succeeded")
	}
	if err := cp.MigrateSegment(deleted.ID, 0, to); err == nil {
		t.Fatal("migrating a deleted volume's segment succeeded")
	}
	if got := loads(); got != "2 2" {
		t.Fatalf("refused migrations moved placer load to %s", got)
	}
	if got := c.segs.Refs(direct.ID)[0].Server; got != from {
		t.Fatalf("unmanaged segment moved to %d", got)
	}
	if err := cp.MigrateSegment(managed.ID, 0, to); err != nil {
		t.Fatalf("migrating a managed segment: %v", err)
	}
}
