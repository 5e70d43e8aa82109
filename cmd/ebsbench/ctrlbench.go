package main

import (
	"encoding/json"
	"fmt"
	"os"

	"lunasolar/internal/experiments"
)

// ctrlBenchReport is the BENCH_pr10.json schema: the control plane's two
// production gates measured together — migration cutover latency during a
// planned chunk-server drain under load, and the noisy-neighbor isolation
// the per-tenant token buckets buy. IsolationRatio is capped-victim p99
// over isolated-baseline p99; UncappedRatio is the same victim with the
// aggressor unconstrained, recorded to show the damage the cap prevents.
type ctrlBenchReport struct {
	Schema         string                  `json:"schema"`
	Bench          string                  `json:"bench"`
	Seed           int64                   `json:"seed"`
	Quick          bool                    `json:"quick"`
	Drain          []experiments.DrainCell `json:"drain"`
	NoisyNeighbor  []experiments.NoisyCell `json:"noisy_neighbor"`
	IsolationRatio float64                 `json:"isolation_ratio"`
	UncappedRatio  float64                 `json:"uncapped_ratio"`
}

// writeCtrlBenchReport runs the drain and noisy-neighbor scenarios,
// enforces the PR gates (zero failed drain I/Os, nothing left to copy
// behind the drained server, capped-victim p99 within 2x the isolated
// baseline), and writes the report.
func writeCtrlBenchReport(path string, opts experiments.Options) error {
	drain, dtab := experiments.DrainCells(opts)
	if leaked := dtab.Perf.Leaked(); leaked != 0 {
		return fmt.Errorf("drain: %d pooled packets leaked", leaked)
	}
	for _, cell := range drain {
		if cell.FailedIOs != 0 {
			return fmt.Errorf("drain[%s]: %d foreground I/Os failed during the drain, want 0", cell.Stack, cell.FailedIOs)
		}
		if cell.CopyErrors != 0 {
			return fmt.Errorf("drain[%s]: %d replica copies failed", cell.Stack, cell.CopyErrors)
		}
		if cell.Segments == 0 || cell.BlocksCopied == 0 {
			return fmt.Errorf("drain[%s]: nothing migrated (segments=%d blocks=%d) — the drain was a no-op", cell.Stack, cell.Segments, cell.BlocksCopied)
		}
	}

	noisy, ntab := experiments.NoisyNeighborCells(opts)
	if leaked := ntab.Perf.Leaked(); leaked != 0 {
		return fmt.Errorf("noisy neighbor: %d pooled packets leaked", leaked)
	}
	byMode := map[string]experiments.NoisyCell{}
	for _, cell := range noisy {
		byMode[cell.Mode] = cell
	}
	base, capped, uncapped := byMode["baseline"], byMode["capped"], byMode["uncapped"]
	if base.VictimP99us <= 0 {
		return fmt.Errorf("noisy neighbor: baseline victim p99 is %v µs — no victim I/Os completed", base.VictimP99us)
	}
	rep := ctrlBenchReport{
		Schema: "lunasolar.ctrl/v1", Bench: "ctrlplane",
		Seed: opts.Seed, Quick: opts.Quick,
		Drain: drain, NoisyNeighbor: noisy,
		IsolationRatio: capped.VictimP99us / base.VictimP99us,
		UncappedRatio:  uncapped.VictimP99us / base.VictimP99us,
	}
	if rep.IsolationRatio > 2 {
		return fmt.Errorf("noisy neighbor: capped victim p99 %.1f µs is %.2fx the isolated baseline %.1f µs, gate is 2x",
			capped.VictimP99us, rep.IsolationRatio, base.VictimP99us)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return f.Close()
}
