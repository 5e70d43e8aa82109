package experiments

import (
	"encoding/json"
	"testing"
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
