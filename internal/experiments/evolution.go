package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
)

// quarterMix is the deployment state of the fleet in one quarter: the
// fraction of compute servers on each stack generation. Luna ramped through
// 2019–2020 ("fully deployed 2021 Q1"); Solar ramped from 2020 ("deployed
// ... since 2020", "Solar at scale" by late 2021).
type quarterMix struct {
	label  string
	kernel float64
	luna   float64
	solar  float64
}

func deploymentTimeline() []quarterMix {
	return []quarterMix{
		{"19Q1", 0.95, 0.05, 0},
		{"19Q2", 0.85, 0.15, 0},
		{"19Q3", 0.70, 0.30, 0},
		{"19Q4", 0.52, 0.48, 0},
		{"20Q1", 0.35, 0.65, 0},
		{"20Q2", 0.22, 0.78, 0},
		{"20Q3", 0.12, 0.83, 0.05},
		{"20Q4", 0.05, 0.83, 0.12},
		{"21Q1", 0.00, 0.78, 0.22},
		{"21Q2", 0.00, 0.68, 0.32},
		{"21Q3", 0.00, 0.56, 0.44},
		{"21Q4", 0.00, 0.45, 0.55},
	}
}

// Fig7 regenerates the five-year evolution figure: fleet-average I/O
// latency and per-server IOPS by quarter, computed as the deployment-mix
// weighted combination of each stack's measured capability (latency from a
// Fig. 6-style run; IOPS from a Fig. 14-style saturation run).
func Fig7(opts Options) *Table {
	// Per-stack capability measurements: six independent clusters (latency
	// and IOPS per stack), one share-nothing shard each.
	stacks := []ebs.StackKind{ebs.KernelTCP, ebs.Luna, ebs.Solar}
	fleet := opts.fleet()
	vals := runCells(fleet, 2*len(stacks), func(shard int) (float64, *ebs.Cluster) {
		fn := stacks[shard/2]
		if shard%2 == 0 {
			d, c := measureMeanLatency(opts, fn)
			return float64(d), c
		}
		return measureServerIOPS(opts, fn)
	})
	lat := map[ebs.StackKind]time.Duration{}
	iops := map[ebs.StackKind]float64{}
	for i, fn := range stacks {
		lat[fn] = time.Duration(vals[2*i])
		iops[fn] = vals[2*i+1]
	}

	timeline := deploymentTimeline()
	mixLat := func(q quarterMix) float64 {
		return q.kernel*float64(lat[ebs.KernelTCP]) +
			q.luna*float64(lat[ebs.Luna]) +
			q.solar*float64(lat[ebs.Solar])
	}
	mixIOPS := func(q quarterMix) float64 {
		return q.kernel*iops[ebs.KernelTCP] + q.luna*iops[ebs.Luna] + q.solar*iops[ebs.Solar]
	}
	baseLat := mixLat(timeline[0])
	lastIOPS := mixIOPS(timeline[len(timeline)-1])

	t := &Table{
		Title:   "Figure 7: evolution of average per-server IOPS and latency by quarter",
		Columns: []string{"quarter", "kernel/luna/solar mix", "latency (norm, 19Q1=1)", "IOPS (norm, 21Q4=1)"},
	}
	for _, q := range timeline {
		t.Rows = append(t.Rows, []string{
			q.label,
			fmt.Sprintf("%.0f/%.0f/%.0f%%", q.kernel*100, q.luna*100, q.solar*100),
			f2(mixLat(q) / baseLat),
			f2(mixIOPS(q) / lastIOPS),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured per-stack mean latency: kernel=%v luna=%v solar=%v",
			lat[ebs.KernelTCP].Round(100*time.Nanosecond), lat[ebs.Luna].Round(100*time.Nanosecond), lat[ebs.Solar].Round(100*time.Nanosecond)),
		fmt.Sprintf("measured per-server 4K IOPS: kernel=%.0f luna=%.0f solar=%.0f",
			iops[ebs.KernelTCP], iops[ebs.Luna], iops[ebs.Solar]),
		fmt.Sprintf("end-to-end: latency reduced %.0f%% (paper: 72%%), IOPS grew %.1fx (paper: ~3x)",
			100*(1-mixLat(timeline[len(timeline)-1])/baseLat),
			mixIOPS(timeline[len(timeline)-1])/mixIOPS(timeline[0])))
	t.Perf = &fleet.Perf
	return t
}

// measureMeanLatency runs a light mixed 4 KiB workload and returns the mean
// of read and write average latency.
func measureMeanLatency(opts Options, fn ebs.StackKind) (time.Duration, *ebs.Cluster) {
	c := ebs.New(clusterConfig(opts, fn))
	driveMixed(c, 128<<20, opts.scale(400, 80), 150*time.Microsecond)
	r := c.Collector().E2E("read").Mean()
	w := c.Collector().E2E("write").Mean()
	return (r + w) / 2, c
}

// measureServerIOPS measures a single server's sustainable 4 KiB read IOPS
// with the era's CPU budget (4 host cores for kernel/Luna, the DPU for
// Solar).
func measureServerIOPS(opts Options, fn ebs.StackKind) (float64, *ebs.Cluster) {
	mbs, c := runFio(opts, fn, 4, 4096)
	return mbs * 1e6 / 4096, c
}
