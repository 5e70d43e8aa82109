package experiments

import "testing"

// TestParallelRunDeterminism is the share-nothing runtime's regression
// gate: the same experiment at the same seed must produce bit-identical
// formatted output whether its shards run serially or on a parallel worker
// pool. Fig6 exercises histogram merging across per-stack shards; Fig8
// additionally exercises the pre-drawn randomness scheme.
func TestParallelRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	for _, tc := range []struct {
		name string
		fn   func(Options) *Table
	}{
		{"fig6", Fig6},
		{"fig8", Fig8},
		// The raw-stack cliff: per-connection QPs contending for one
		// NIC's context cache and fetch engine.
		{"rdmacliff", RDMACliff},
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
