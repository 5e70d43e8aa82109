package ebs

import (
	"bytes"
	"testing"
	"time"
)

// TestEdgeModeRoundTrip exercises §4.8's integrated deployment: SA and
// block server on the same DPU, replication straight to chunk servers.
func TestEdgeModeRoundTrip(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.Edge = true
	c := New(cfg)
	vd := c.MustProvision(0, 64<<20, DefaultQoS())
	data := fill(16<<10, 5)
	var rres IOResult
	vd.Write(0x8000, data, func(w IOResult) {
		if w.Err != nil {
			t.Fatal(w.Err)
		}
		vd.Read(0x8000, len(data), func(r IOResult) { rres = r })
	})
	c.Run()
	if rres.Err != nil || !bytes.Equal(rres.Data, data) {
		t.Fatalf("edge round trip failed: %v", rres.Err)
	}
}

// TestEdgeModeCutsFrontendHop compares write medians: the integrated mode
// must beat standard Solar by roughly the frontend round trip.
func TestEdgeModeCutsFrontendHop(t *testing.T) {
	measure := func(edge bool) time.Duration {
		cfg := smallConfig(Solar)
		cfg.Edge = edge
		c := New(cfg)
		vd := c.MustProvision(0, 64<<20, DefaultQoS())
		n := 0
		var issue func()
		issue = func() {
			if n >= 200 {
				return
			}
			lba := uint64(n%512) << 12
			n++
			vd.Write(lba, fill(4096, byte(n)), func(IOResult) {
				c.Eng.Schedule(50*time.Microsecond, issue)
			})
		}
		issue()
		c.Run()
		return c.Collector().E2E("write").Median()
	}
	std := measure(false)
	edge := measure(true)
	t.Logf("write p50: standard=%v edge=%v", std, edge)
	if edge >= std {
		t.Fatalf("edge (%v) not faster than standard (%v)", edge, std)
	}
	if std-edge < 5*time.Microsecond {
		t.Fatalf("edge saves only %v; expected ~an FN round trip", std-edge)
	}
}

// TestEdgeModeDisksAreLocal verifies each disk's segments resolve to its
// own compute server.
func TestEdgeModeDisksAreLocal(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.Edge = true
	c := New(cfg)
	vd0 := c.MustProvision(0, 16<<20, DefaultQoS())
	vd1 := c.MustProvision(1, 16<<20, DefaultQoS())
	done := 0
	vd0.Write(0, fill(4096, 1), func(r IOResult) {
		if r.Err == nil {
			done++
		}
	})
	vd1.Write(0, fill(4096, 2), func(r IOResult) {
		if r.Err == nil {
			done++
		}
	})
	c.Run()
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	// Each compute's integrated block server served exactly its own disk.
	for i, b := range c.Blocks() {
		w, _ := b.Block.Stats()
		if w != 1 {
			t.Fatalf("edge block %d served %d writes, want 1", i, w)
		}
		if i >= 2 {
			break
		}
	}
}
