package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/experiments"
)

// ffBenchMode is one fidelity mode's campaign outcome plus its wall time.
type ffBenchMode struct {
	experiments.DiurnalResult
	WallMs float64 `json:"wall_ms"`
}

// ffBenchReport is the BENCH_pr8.json schema: the diurnal campaign run at
// both fidelities under the identical seed and schedule, with the
// wall-clock speedup and packet-vs-analytic event ratio hybrid mode buys.
type ffBenchReport struct {
	Schema     string      `json:"schema"`
	Bench      string      `json:"bench"`
	Seed       int64       `json:"seed"`
	Quick      bool        `json:"quick"`
	Packet     ffBenchMode `json:"packet"`
	Hybrid     ffBenchMode `json:"hybrid"`
	Speedup    float64     `json:"speedup"`
	EventRatio float64     `json:"event_ratio"`
}

func runDiurnalMode(opts experiments.Options, fid ebs.Fidelity) (ffBenchMode, error) {
	start := time.Now()
	res := experiments.DiurnalCampaign(opts, fid)
	wall := time.Since(start)
	if leaked := res.Perf.Leaked(); leaked != 0 {
		return ffBenchMode{}, fmt.Errorf("%s run: %d pooled packets leaked", fid, leaked)
	}
	return ffBenchMode{DiurnalResult: *res, WallMs: float64(wall.Nanoseconds()) / 1e6}, nil
}

// ffQuantilesAgree checks the ≤1% completion-time tolerance the
// differential gate allows between fidelities.
func ffQuantilesAgree(h, p experiments.DiurnalPhase) error {
	check := func(name string, a, b float64) error {
		if a == b {
			return nil
		}
		if b == 0 || math.Abs(a-b)/math.Abs(b) > 0.01 {
			return fmt.Errorf("%s %q: hybrid %.3f vs packet %.3f µs (> 1%% apart)", name, h.Name, a, b)
		}
		return nil
	}
	if err := check("p50", h.P50us, p.P50us); err != nil {
		return err
	}
	if err := check("p90", h.P90us, p.P90us); err != nil {
		return err
	}
	return check("p99", h.P99us, p.P99us)
}

// writeFFBenchReport runs the diurnal campaign at packet and hybrid
// fidelity, enforces the differential gate (exact counts and drops, ≤1%
// quantiles and goodput) and — at full scale — the ≥10× wall-clock
// speedup at equal simulated time, then writes the report.
func writeFFBenchReport(path string, opts experiments.Options) error {
	packet, err := runDiurnalMode(opts, ebs.FidelityPacket)
	if err != nil {
		return err
	}
	hybrid, err := runDiurnalMode(opts, ebs.FidelityHybrid)
	if err != nil {
		return err
	}

	if hybrid.Started != packet.Started || hybrid.Completed != packet.Completed {
		return fmt.Errorf("counts differ: hybrid %d/%d started/completed, packet %d/%d",
			hybrid.Started, hybrid.Completed, packet.Started, packet.Completed)
	}
	if hybrid.Drops != packet.Drops {
		return fmt.Errorf("drops differ: hybrid %d, packet %d", hybrid.Drops, packet.Drops)
	}
	if hybrid.SimUS != packet.SimUS {
		return fmt.Errorf("simulated spans differ: hybrid %.1fµs, packet %.1fµs", hybrid.SimUS, packet.SimUS)
	}
	for i := range hybrid.Phases {
		if err := ffQuantilesAgree(hybrid.Phases[i], packet.Phases[i]); err != nil {
			return err
		}
	}
	if err := ffQuantilesAgree(hybrid.Overall, packet.Overall); err != nil {
		return err
	}
	if packet.MBps != hybrid.MBps && math.Abs(hybrid.MBps-packet.MBps)/packet.MBps > 0.01 {
		return fmt.Errorf("goodput differs: hybrid %.2f vs packet %.2f MB/s", hybrid.MBps, packet.MBps)
	}
	if hybrid.Fluid == 0 || hybrid.Admitted == 0 || hybrid.Demotions < 2 {
		return fmt.Errorf("hybrid run did not exercise the fluid plane: fluid=%d admitted=%d demotions=%d",
			hybrid.Fluid, hybrid.Admitted, hybrid.Demotions)
	}

	rep := ffBenchReport{
		Schema: "lunasolar.fluid/v1", Bench: "diurnal",
		Seed: opts.Seed, Quick: opts.Quick,
		Packet: packet, Hybrid: hybrid,
	}
	if hybrid.WallMs > 0 {
		rep.Speedup = packet.WallMs / hybrid.WallMs
	}
	if hybrid.Events > 0 {
		rep.EventRatio = float64(packet.Events) / float64(hybrid.Events)
	}
	// Quick runs are too short to time meaningfully; the speedup gate holds
	// at full scale, where the campaign simulates ~150 ms per shard.
	if !opts.Quick && rep.Speedup < 10 {
		return fmt.Errorf("hybrid speedup %.1fx below the 10x gate (packet %.1fms, hybrid %.1fms)",
			rep.Speedup, packet.WallMs, hybrid.WallMs)
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
