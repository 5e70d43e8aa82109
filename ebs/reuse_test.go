package ebs

import (
	"bytes"
	"testing"

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
