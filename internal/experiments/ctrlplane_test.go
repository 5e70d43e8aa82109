package experiments

import "testing"

// TestCtrlGates enforces the "gate:" notes of the drain and noisyneighbor
// tables: a drain fails no foreground I/O and really migrates something, and
// the tenant cap is what keeps the victim's p99 within 2x of its baseline.
func TestCtrlGates(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	opts := Options{Seed: 1, Quick: true}
	drain, dtab := drainCells(opts)
	noisy, ntab := noisyNeighborCells(opts)
	if d, n := dtab.Perf.Leaked(), ntab.Perf.Leaked(); d != 0 || n != 0 {
		t.Errorf("pooled packets leaked: drain %d, noisy neighbor %d", d, n)
	}
	for _, c := range drain {
		if c.FailedIOs != 0 || c.CopyErrors != 0 {
			t.Errorf("drain[%s]: %d foreground I/Os and %d replica copies failed, want 0 and 0", c.Stack, c.FailedIOs, c.CopyErrors)
		}
		if c.Segments == 0 || c.BlocksCopied == 0 {
			t.Errorf("drain[%s]: nothing migrated (segments=%d blocks=%d) — the drain was a no-op", c.Stack, c.Segments, c.BlocksCopied)
		}
	}
	p99 := map[string]float64{}
	for _, c := range noisy {
		p99[c.Mode] = c.VictimP99us
	}
	base, capped, uncapped := p99["baseline"], p99["capped"], p99["uncapped"]
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
