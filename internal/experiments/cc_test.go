package experiments

import (
	"fmt"
	"testing"

	"lunasolar/internal/cc"
)

// TestCliffMixedCCConcurrent runs the cliff experiment — the raw-stack
// path that takes its controller from Options.CC — under static, DCQCN and
// Swift as concurrent shards of one process: each must equal its own solo
// run (one mode in the process at a time), and the three must differ.
// Modes are plain values, so mixing them across goroutines needs no
// save/restore.
func TestCliffMixedCCConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	cliff := func(k cc.Kind) string {
		return RDMACliff(Options{Seed: 7, Quick: true, CC: k}).Format()
	}
	kinds := cc.Kinds()
	solo := make([]string, len(kinds))
	for i, k := range kinds {
		solo[i] = cliff(k)
		for j := 0; j < i; j++ {
			if solo[i] == solo[j] {
				t.Fatalf("-cc %s and -cc %s produced identical cliff tables:\n%s", kinds[j], k, solo[i])
			}
		}
	}
	t.Run("concurrent", func(t *testing.T) {
		for i, k := range kinds {
			t.Run(k.String(), func(t *testing.T) {
				t.Parallel()
				if got := cliff(k); got != solo[i] {
					t.Fatalf("concurrent run diverged from its solo run\n--- solo ---\n%s\n--- concurrent ---\n%s", solo[i], got)
				}
			})
		}
	})
}

// TestCCMatrixDeterminism gates the CC-matrix experiments the same way
// TestParallelRunDeterminism gates the figures: identical formatted output
// at any worker count. Each (scenario, controller) cell is a share-nothing
// shard, so the pacing timers and CNP exchanges inside one cell must never
// observe scheduling outside it.
func TestCCMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	for _, tc := range []struct {
		name string
		fn   func(Options) *Table
	}{
		{"incast", Incast},
		{"spine-oversub", SpineOversub},
		{"elephantmice", ElephantMice},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			serial := tc.fn(Options{Seed: 7, Quick: true, Workers: 1}).Format()
			parallel := tc.fn(Options{Seed: 7, Quick: true, Workers: 4}).Format()
			if serial != parallel {
				t.Fatalf("serial and parallel runs diverged at the same seed\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

// TestCCMatrixDistinguishable asserts the controllers actually differ:
// under the identical incast workload and seed, static, DCQCN, and Swift
// must each leave a distinct measurement row. A controller whose row
// matches another's is not reacting (or both fell back to the same code
// path — the bug this test exists to catch).
func TestCCMatrixDistinguishable(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	cells, _ := incastMatrix(Options{Seed: 7, Quick: true, Workers: 1})
	if len(cells) != 3 {
		t.Fatalf("incast matrix has %d cells, want 3", len(cells))
	}
	rows := map[string]string{}
	for _, c := range cells {
		if c.Ops == 0 {
			t.Fatalf("%s: no completed operations", c.CC)
		}
		if c.MBps <= 0 {
			t.Fatalf("%s: throughput %v, want > 0", c.CC, c.MBps)
		}
		sig := fmt.Sprintf("%v/%v/%v/%v", c.P50us, c.P99us, c.MBps, c.QueueHiWatKiB)
		if prev, dup := rows[sig]; dup {
			t.Fatalf("controllers %s and %s produced identical rows (%s)", prev, c.CC, sig)
		}
		rows[sig] = c.CC
	}
}
