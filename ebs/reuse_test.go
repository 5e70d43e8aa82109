package ebs

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/sa"
	"lunasolar/internal/sim"
)

// TestPooledBuffersNeverCorrupt: every multi-block payload on the Luna path
// rides a pooled, recycled buffer at some hop — the write's request record
// at the block server, its reassembly at each chunk server, the chunk
// server's read buffer while the BN stack keeps it in flight. Under 5 %
// spine loss, retransmissions keep those buffers referenced long after the
// call that filled them, while other I/Os of other sizes keep drawing from
// the same classes. Writes of 8–128 KiB with a distinct pattern each are
// interleaved with verified reads across eight slots; every read must match
// what was last written, and once the cluster drains nothing pooled may be
// left checked out.
func TestPooledBuffersNeverCorrupt(t *testing.T) {
	const (
		slots   = 8
		ops     = 40                // per slot
		region  = 1 << 20           // bytes each slot owns
		block   = 4096              // truth granularity
		maxSize = 128 << 10         // largest I/O
		blocks  = region / block    // truth entries per slot
		maxBlk  = maxSize / block   // blocks of the largest I/O
		minBlk  = (8 << 10) / block // blocks of the smallest
	)
	cfg := smallConfig(Luna)
	cfg.Seed = 7
	c := New(cfg)
	for pod := 0; pod < 2; pod++ {
		for i := 0; i < cfg.Fabric.SpinesPerPod; i++ {
			c.Fabric.Spine(0, pod, i).SetDropRate(0.05)
		}
	}
	vd := c.MustProvision(0, slots*region, DefaultQoS())
	r := sim.NewRand(11)

	// truth[slot][b] is the pattern byte block b of the slot's region was
	// last written with (0: never written, which reads as zeros).
	var truth [slots][blocks]byte
	pattern := byte(0)
	reads, writes, mismatches := 0, 0, 0
	for s := 0; s < slots; s++ {
		base := uint64(s * region)
		done := 0
		var next func()
		next = func() {
			if done == ops {
				return
			}
			done++
			n := minBlk + r.Intn(maxBlk-minBlk+1)
			first := r.Intn(blocks - n + 1)
			lba := base + uint64(first*block)
			if done%2 == 0 {
				want := make([]byte, n*block)
				for b := 0; b < n; b++ {
					fillBlock(want[b*block:(b+1)*block], truth[s][first+b])
				}
				vd.Read(lba, n*block, func(res IOResult) {
					reads++
					if res.Err != nil {
						t.Errorf("slot %d read [%#x,+%d): %v", s, lba, n*block, res.Err)
					} else if !bytes.Equal(res.Data, want) {
						mismatches++
					}
					next()
				})
				return
			}
			pattern++
			if pattern == 0 {
				pattern++
			}
			p := pattern
			data := make([]byte, n*block)
			for b := 0; b < n; b++ {
				fillBlock(data[b*block:(b+1)*block], p)
			}
			vd.Write(lba, data, func(res IOResult) {
				writes++
				if res.Err != nil {
					t.Errorf("slot %d write [%#x,+%d): %v", s, lba, n*block, res.Err)
				}
				for b := 0; b < n; b++ {
					truth[s][first+b] = p
				}
				next()
			})
		}
		next()
	}
	c.Run()

	if reads+writes != slots*ops {
		t.Fatalf("%d reads and %d writes completed of %d I/Os", reads, writes, slots*ops)
	}
	if mismatches != 0 {
		t.Fatalf("%d of %d reads returned bytes other than those last written", mismatches, reads)
	}
	if p := c.Eng.Pending(); p != 0 {
		t.Fatalf("%d events pending after the run drained", p)
	}
	if n := c.Leaked(); n != 0 {
		t.Fatalf("%d pooled packets, slab references or records checked out after the drain", n)
	}
}

// fillBlock writes pattern p into b: a distinct byte sequence per pattern,
// all zeros for p == 0 (a block never written).
func fillBlock(b []byte, p byte) {
	for i := range b {
		if p == 0 {
			b[i] = 0
		} else {
			b[i] = p ^ byte(i*31) ^ byte(i>>8)
		}
	}
}

// TestPoisonedPoolsReadBack runs the reuse checks with the fabric's pool
// under Poison: every buffer released to it — a frame's, a reassembly's, a
// chunk server's read buffer — is filled with 0xDB and never handed out
// again, so a holder that reads it after its release reads garbage
// instead of, by luck, the same bytes. Each FN stack runs the
// lossy read-back, with each write's buffer overwritten in its done, and
// then keeps a one-piece read's and a segment-crossing read's Data across
// 200 later mixed 4–128 KiB I/Os: a guest's Result.Data outlives done,
// and on the RDMA FN a read's response arrives in pooled memory.
func TestPoisonedPoolsReadBack(t *testing.T) {
	for _, fn := range []StackKind{KernelTCP, Luna, RDMA, Solar} {
		t.Run(fn.String(), func(t *testing.T) {
			poisoned := func() *Cluster {
				c := testCluster(t, fn)
				c.Fabric.Pool().Poison = true
				return c
			}
			t.Run("read-back under loss", func(t *testing.T) { readBackUnderLoss(t, poisoned(), true) })
			t.Run("read data kept", func(t *testing.T) { keptReadsSurvive(t, poisoned()) })
		})
	}
}

// keptReadsSurvive reads back a one-piece and a segment-crossing write,
// keeps both reads' Data, runs 200 more mixed I/Os elsewhere on the disk,
// and then compares what it kept. Each phase gets a bounded stretch of
// simulated time, ample for a healthy run, so a read that can never
// succeed — a stack retrying poisoned bytes — fails the test instead of
// hanging it.
func keptReadsSurvive(t *testing.T, c *Cluster) {
	const phase = 50 * time.Millisecond
	vd := c.MustProvision(0, 16<<20, DefaultQoS())
	lbas := [2]uint64{1 << 20, sa.SegmentBytes - 16<<10}
	want := [2][]byte{fill(64<<10, 3), fill(32<<10, 5)}
	var kept [2][]byte
	done := 0
	for i := range lbas {
		vd.Write(lbas[i], want[i], func(r IOResult) {
			if r.Err != nil {
				t.Errorf("write %d: %v", i, r.Err)
			}
			done++
		})
	}
	c.RunFor(phase)
	for i := range lbas {
		vd.Read(lbas[i], len(want[i]), func(r IOResult) {
			if r.Err != nil {
				t.Errorf("read %d: %v", i, r.Err)
			}
			kept[i] = r.Data
			done++
		})
	}
	c.RunFor(phase)
	if done != 4 {
		t.Fatalf("%d of 2 writes and 2 reads completed", done)
	}

	// Four chains of 50 I/Os, 70 % reads, in the disk's third and fourth
	// segments: every pool class the kept reads drew on changes hands.
	rng := sim.NewRand(3)
	done = 0
	var chain func(left int)
	chain = func(left int) {
		if left == 0 {
			return
		}
		size := (1 + rng.Intn(32)) << 12
		lba := 2*sa.SegmentBytes + uint64(rng.Intn(int(2*sa.SegmentBytes)-size))&^0xfff
		next := func(r IOResult) {
			if r.Err != nil {
				t.Errorf("mixed I/O: %v", r.Err)
			}
			done++
			chain(left - 1)
		}
		if rng.Intn(10) < 7 {
			vd.Read(lba, size, next)
		} else {
			vd.Write(lba, fill(size, byte(left)), next)
		}
	}
	for i := 0; i < 4; i++ {
		chain(50)
	}
	c.RunFor(phase)
	if done != 200 {
		t.Fatalf("%d of 200 mixed I/Os completed", done)
	}
	for i := range want {
		if !bytes.Equal(kept[i], want[i]) {
			t.Fatalf("kept read %d at %#x changed after later I/O", i, lbas[i])
		}
	}
	c.Run()
	if n := c.Leaked(); n != 0 {
		t.Fatalf("%d pooled packets, slab references or records leaked", n)
	}
}

// TestLeakGateCountsStorePages: Leaked counts chunk-store pages a write took
// and the store neither kept nor gave back. Solar writes under a CRC engine
// that flips one result in five reach the chunk servers with wrong CRCs,
// which they reject; every rejected copy's page must come back, so the
// drained cluster reads 0 while its chunk servers hold the stored blocks.
func TestLeakGateCountsStorePages(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.DPU.Faults.CRCBitFlip = 0.2
	c := New(cfg)
	vd := c.MustProvision(0, 64<<20, DefaultQoS())
	for i := 0; i < 64; i++ {
		vd.Write(uint64(i)<<16, fill(16<<10, byte(i)), func(IOResult) {})
	}
	c.Run()
	var rejected, stored uint64
	for _, cs := range c.Chunks() {
		w, _, crcErrs, _ := cs.Chunk.Stats()
		rejected, stored = rejected+crcErrs, stored+w-crcErrs
	}
	if rejected == 0 || stored == 0 {
		t.Fatalf("%d rejected and %d stored block writes: the test exercises nothing", rejected, stored)
	}
	if n := c.Leaked(); n != 0 {
		t.Fatalf("%d pages, pooled packets, slab references or records leaked after the drain", n)
	}
}
