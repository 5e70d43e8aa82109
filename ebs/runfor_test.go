package ebs

import (
	"reflect"
	"testing"
	"time"

	"lunasolar/internal/sim"
)

// TestRunForStepsMatchRun drives a small Solar write storm, through a lossy
// storage-pod spine, in bounded RunFor steps until nothing is pending, and
// requires it to end exactly where one Run does: the same events, the same
// completions and end-to-end latencies, the same fabric drops, and nothing
// leaked. A step boundary is only a place the driver looks at the model;
// it must not change what the model does.
func TestRunForStepsMatchRun(t *testing.T) {
	type outcome struct {
		events, drops, n uint64
		leaked           int
		e2e              [3]time.Duration
	}
	storm := func(step time.Duration) outcome {
		c := New(smallConfig(Solar))
		c.Fabric.Spine(0, 1, 0).SetDropRate(0.02)
		const perDisk, depth, size = 24, 4, 16 << 10
		for ci := 0; ci < c.Computes(); ci++ {
			vd := c.MustProvision(ci, 256<<20, DefaultQoS())
			r := sim.NewRand(int64(ci) + 1)
			payload := fill(size, byte(ci))
			span := int64(vd.Size() - size)
			remaining := perDisk
			var issue func()
			issue = func() {
				if remaining == 0 {
					return
				}
				remaining--
				vd.Write(uint64(r.Int63n(span))&^4095, payload, func(IOResult) { issue() })
			}
			for s := 0; s < depth; s++ {
				issue()
			}
		}
		if step == 0 {
			c.Run()
		} else {
			for c.Eng.Pending() > 0 {
				c.RunFor(step)
			}
		}
		col := c.Collector()
		o := outcome{events: c.Eng.Processed(), drops: c.Fabric.TotalDrops(), leaked: c.Leaked()}
		o.n = col.E2E("write").Count()
		_, o.e2e[0] = col.Breakdown("write", 0.5)
		_, o.e2e[1] = col.Breakdown("write", 0.99)
		_, o.e2e[2] = col.Breakdown("write", 1)
		return o
	}
	want := storm(0)
	if want.n != 2*24 || want.leaked != 0 || want.drops == 0 {
		t.Fatalf("one Run: %d writes completed, %d leaked, %d drops; want %d, 0 and some", want.n, want.leaked, want.drops, 2*24)
	}
	for _, step := range []time.Duration{time.Microsecond, 37 * time.Microsecond, time.Millisecond} {
		if got := storm(step); !reflect.DeepEqual(got, want) {
			t.Errorf("RunFor(%v) steps ended at %+v, one Run at %+v", step, got, want)
		}
	}
}
