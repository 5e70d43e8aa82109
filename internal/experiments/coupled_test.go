package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"lunasolar/ebs"
)

// renderAll flattens a table into everything the differential gate
// compares: the formatted text (Perf is deliberately outside Format) plus
// every machine-readable metric row.
func renderAll(t *testing.T, tab *Table, exp string, seed int64) string {
	t.Helper()
	out := tab.Format()
	for _, m := range tab.Metrics(exp, seed) {
		row, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out += string(row) + "\n"
	}
	return out
}

// TestCoupledDifferential is the tentpole gate: a partitioned cluster
// driven by many workers must produce byte-identical output — formatted
// table and metric rows — to the same partitions driven serially, and
// every partition's packet pool must balance to zero.
func TestCoupledDifferential(t *testing.T) {
	exps := []struct {
		id string
		fn func(Options) *Table
	}{
		{"coupled", CoupledStorm},
		{"coupledfail", CoupledFailover},
	}
	for _, e := range exps {
		e := e
		t.Run(e.id, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 4, 8} {
				opts := Options{Seed: 1, Quick: true, CoupledWorkers: workers}
				tab := e.fn(opts)
				if leaked := tab.Perf.Leaked(); leaked != 0 {
					t.Fatalf("workers=%d: %d pooled packets leaked", workers, leaked)
				}
				got := renderAll(t, tab, e.id, opts.Seed)
				if workers == 1 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("workers=%d output differs from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, want, workers, got)
				}
			}
		})
	}
}

// TestCoupledSeedSensitivity guards against a degenerate determinism "fix"
// that would make the output independent of the scenario: different seeds
// must still produce different storms.
func TestCoupledSeedSensitivity(t *testing.T) {
	a := CoupledStorm(Options{Seed: 1, Quick: true, CoupledWorkers: 2})
	b := CoupledStorm(Options{Seed: 2, Quick: true, CoupledWorkers: 2})
	if a.Format() == b.Format() {
		t.Fatal("seeds 1 and 2 produced identical storms; per-disk streams are not seeded")
	}
}

// TestCoupledRunForMatchesRun drives the quick coupled storm in bounded
// RunFor steps and requires it to end exactly where one Run does: a step
// that ends inside a window must not add a barrier, or cross-partition
// deliveries take different sequence numbers and every later window is
// planned from a different state.
func TestCoupledRunForMatchesRun(t *testing.T) {
	type outcome struct {
		events, drops, n uint64
		leaked           int
		e2e              [3]time.Duration
		parts            []time.Duration
	}
	storm := func(step time.Duration) outcome {
		opts := Options{Seed: 1, Quick: true, CoupledWorkers: 1}
		c := ebs.New(coupledConfig(opts))
		var vds []*ebs.VDisk
		for ci := 0; ci < c.Computes(); ci++ {
			vds = append(vds, c.MustProvision(ci, 256<<20, ebs.DefaultQoS()))
		}
		driveStorm(opts, vds, 16, 4, 16<<10)
		if step == 0 {
			c.Run()
		} else {
			busy := func() bool {
				for _, e := range c.Engines() {
					if _, ok := e.NextEventAt(); ok {
						return true
					}
				}
				return c.Fabric.InboxPending() > 0
			}
			for busy() {
				c.RunFor(step)
			}
		}
		var o outcome
		for _, e := range c.Engines() {
			o.events += e.Processed()
		}
		col := c.Collector()
		o.n = col.E2E("write").Count()
		o.parts, o.e2e[0] = col.Breakdown("write", 0.5)
		_, o.e2e[1] = col.Breakdown("write", 0.99)
		_, o.e2e[2] = col.Breakdown("write", 1)
		o.drops = c.Fabric.TotalDrops()
		o.leaked = c.Leaked()
		return o
	}
	want := storm(0)
	if want.n != 16*16 || want.leaked != 0 {
		t.Fatalf("one Run: %d writes completed, %d leaked; want %d and 0", want.n, want.leaked, 16*16)
	}
	for _, step := range []time.Duration{time.Microsecond, 37 * time.Microsecond, time.Millisecond} {
		if got := storm(step); !reflect.DeepEqual(got, want) {
			t.Errorf("RunFor(%v) steps ended at %+v, one Run at %+v", step, got, want)
		}
	}
}
