package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"lunasolar/internal/experiments"
)

// coupledPoint is one worker count's measurement of the coupled storm.
type coupledPoint struct {
	Workers      int     `json:"workers"`
	EventsPerSec float64 `json:"events_per_sec"`
	WallMs       float64 `json:"wall_ms"`
	SpeedupVs1   float64 `json:"speedup_vs_1"`
}

// coupledBenchReport is the BENCH_pr6.json schema: the same partitioned
// write storm driven by 1/2/4/8 workers. Identical output across all
// worker counts is a hard gate (the run fails otherwise); the scaling
// numbers are the headline the report exists to record.
type coupledBenchReport struct {
	Bench      string         `json:"bench"`
	Seed       int64          `json:"seed"`
	Quick      bool           `json:"quick"`
	Partitions int            `json:"partitions"`
	CPUs       int            `json:"cpus"`
	Identical  bool           `json:"output_identical"`
	Points     []coupledPoint `json:"points"`
	Note       string         `json:"note,omitempty"`
}

// writeCoupledBenchReport runs the coupled storm at each worker count,
// verifies the formatted table is byte-identical to the serial baseline,
// asserts zero leaked packets, and writes the scaling report.
func writeCoupledBenchReport(path string, opts experiments.Options) error {
	rep := coupledBenchReport{
		Bench: "coupled_storm", Seed: opts.Seed, Quick: opts.Quick,
		Partitions: 4, CPUs: runtime.NumCPU(), Identical: true,
	}
	if rep.CPUs < 4 {
		rep.Note = fmt.Sprintf(
			"host has %d CPU(s): window workers time-slice, so speedup_vs_1 measures overhead, not scaling",
			rep.CPUs)
	}
	var baseline string
	var baseWall time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		opts.CoupledWorkers = workers
		tab := experiments.CoupledStorm(opts)
		if leaked := tab.Perf.Leaked(); leaked != 0 {
			return fmt.Errorf("workers=%d: %d pooled packets leaked", workers, leaked)
		}
		out := tab.Format()
		if workers == 1 {
			baseline = out
			baseWall = tab.Perf.WallTime()
		} else if out != baseline {
			rep.Identical = false
			return fmt.Errorf("workers=%d output differs from the serial run", workers)
		}
		wall := tab.Perf.WallTime()
		pt := coupledPoint{
			Workers:      workers,
			EventsPerSec: tab.Perf.EventsPerSec(),
			WallMs:       float64(wall.Nanoseconds()) / 1e6,
		}
		if baseWall > 0 && wall > 0 {
			pt.SpeedupVs1 = float64(baseWall) / float64(wall)
		}
		rep.Points = append(rep.Points, pt)
		fmt.Fprintf(os.Stderr, "coupled bench: workers=%d %.2fM events/sec (%.1f ms wall, %.2fx vs serial)\n",
			workers, pt.EventsPerSec/1e6, pt.WallMs, pt.SpeedupVs1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "coupled bench: report -> %s\n", path)
	return nil
}
