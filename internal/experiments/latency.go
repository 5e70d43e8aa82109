package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
	"lunasolar/internal/trace"
	"lunasolar/internal/workload"
)

// clusterConfig returns the shared evaluation cluster: 8 compute servers in
// one pod, 3 block + 5 chunk servers in the other.
func clusterConfig(opts Options, fn ebs.StackKind) ebs.Config {
	cfg := opts.config(fn)
	cfg.Fabric.RacksPerPod = 2
	cfg.Fabric.HostsPerRack = 4
	cfg.Fabric.SpinesPerPod = 2
	cfg.Fabric.CoresPerDC = 2
	cfg.ComputeServers = 8
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	return cfg
}

// driveMixed provisions a disk of diskBytes on every compute server and
// issues nPerDisk 4 KiB I/Os to each, half reads and half writes, open-loop
// with exponential inter-arrival times. Returns after the run drains.
func driveMixed(c *ebs.Cluster, diskBytes uint64, nPerDisk int, meanGap time.Duration) {
	var vds []*ebs.VDisk
	for i := 0; i < c.Computes(); i++ {
		vds = append(vds, c.MustProvision(i, diskBytes, ebs.DefaultQoS()))
	}
	const size = 4096
	r := sim.NewRand(c.Config().Seed * 7731)
	drv := workload.NewDriver(c.Eng)
	gap := func() time.Duration { return r.Exp(meanGap) }
	var entropy [16]byte
	for _, vd := range vds {
		span := vd.Size() - uint64(size)
		drv.Open(vd.ID, vd, gap, func(_, n int) (bool, uint64, int, bool) {
			if n >= nPerDisk {
				return false, 0, 0, false
			}
			lba := uint64(r.Int63n(int64(span))) &^ 4095
			if r.Bernoulli(0.5) {
				return false, lba, size, true
			}
			r.Read(entropy[:]) // a write's 16 bytes of entropy: the draw fixes the run's stream
			return true, lba, size, true
		}, nil)
	}
	c.Run()
}

// Fig6 regenerates the 4 KiB latency-breakdown figure: per-component
// (FN/BN/SSD/SA) and end-to-end latency at the median and 95th percentile,
// for reads and writes, under kernel TCP, Luna and Solar.
func Fig6(opts Options) *Table {
	n := opts.scale(1500, 250)
	stacks := []ebs.StackKind{ebs.KernelTCP, ebs.Luna, ebs.Solar}
	type key struct {
		op string
		q  float64
	}
	type shardOut struct {
		parts map[key][]time.Duration
		e2e   map[key]time.Duration
		reg   *stats.Registry
	}

	// One share-nothing shard per stack: each builds its own engine,
	// cluster and workload; results merge in shard order.
	fleet := opts.fleet()
	perStack := runCells(fleet, len(stacks), func(shard int) (shardOut, *ebs.Cluster) {
		fn := stacks[shard]
		c := ebs.New(clusterConfig(opts, fn))
		driveMixed(c, 256<<20, n, 100*time.Microsecond)
		out := shardOut{parts: map[key][]time.Duration{}, e2e: map[key]time.Duration{}, reg: stats.NewRegistry()}
		for _, op := range []string{"read", "write"} {
			for _, q := range []float64{0.5, 0.95} {
				parts, e2e := c.Collector().Breakdown(op, q)
				out.parts[key{op, q}] = parts
				out.e2e[key{op, q}] = e2e
			}
		}
		c.ExportMetrics(out.reg, "")
		return out, c
	})
	results := map[ebs.StackKind]map[key][]time.Duration{}
	e2es := map[ebs.StackKind]map[key]time.Duration{}
	for i, fn := range stacks {
		results[fn] = perStack[i].parts
		e2es[fn] = perStack[i].e2e
	}

	t := &Table{
		Title:   "Figure 6: I/O latency breakdown of 4KB size (µs)",
		Columns: []string{"panel", "stack", "FN", "BN", "SSD", "SA", "e2e"},
	}
	panels := []struct {
		label string
		op    string
		q     float64
	}{
		{"(a) read p50", "read", 0.5},
		{"(b) read p95", "read", 0.95},
		{"(c) write p50", "write", 0.5},
		{"(d) write p95", "write", 0.95},
	}
	for _, p := range panels {
		for _, fn := range stacks {
			parts := results[fn][key{p.op, p.q}]
			t.Rows = append(t.Rows, []string{
				p.label, fn.String(),
				us(parts[trace.FN]), us(parts[trace.BN]),
				us(parts[trace.SSD]), us(parts[trace.SA]),
				us(e2es[fn][key{p.op, p.q}]),
			})
		}
	}
	t.Telemetry = stats.NewRegistry()
	for i, fn := range stacks {
		t.Telemetry.Merge(perStack[i].reg, fmt.Sprintf("fig6/%s/", fn))
	}
	kw := e2es[ebs.KernelTCP][key{"write", 0.5}]
	lw := e2es[ebs.Luna][key{"write", 0.5}]
	sw := e2es[ebs.Solar][key{"write", 0.5}]
	t.Notes = append(t.Notes,
		fmt.Sprintf("write p50 e2e: kernel→luna %.0f%% reduction (paper: Luna cuts FN ~80%%); luna→solar %.0f%% (paper: up to 69%%)",
			100*(1-float64(lw)/float64(kw)), 100*(1-float64(sw)/float64(lw))),
		"QoS policy delay excluded, as in the paper's methodology")
	t.Perf = &fleet.Perf
	return t
}

// Fig15 regenerates the single-write latency figure: median and 99th
// percentile of a lone 4 KiB write under light and heavy background load,
// for Luna, RDMA, Solar* and Solar.
func Fig15(opts Options) *Table {
	probes := opts.scale(300, 60)
	stacks := []ebs.StackKind{ebs.Luna, ebs.RDMA, ebs.SolarStar, ebs.Solar}

	type cell struct {
		heavy bool
		fn    ebs.StackKind
	}
	var cells []cell
	for _, heavy := range []bool{false, true} {
		for _, fn := range stacks {
			cells = append(cells, cell{heavy, fn})
		}
	}

	fleet := opts.fleet()
	rows := runCells(fleet, len(cells), func(shard int) ([]string, *ebs.Cluster) {
		cl := cells[shard]
		label := "light"
		if cl.heavy {
			label = "heavy"
		}
		cfg := clusterConfig(opts, cl.fn)
		cfg.BareMetal = true // the Fig. 14/15 testbed is the bare-metal DPU era
		c := ebs.New(cfg)
		drv := workload.NewDriver(c.Eng)
		probe := c.MustProvision(0, 256<<20, ebs.DefaultQoS())

		if cl.heavy {
			// Saturating background writers on three other computes: an
			// endless closed loop of 8 outstanding 16 KiB writes each.
			for i := 1; i <= 3; i++ {
				bg := c.MustProvision(i, 256<<20, ebs.DefaultQoS())
				r := sim.NewRand(int64(bg.ID) * 31)
				drv.Closed(bg.ID, bg, 8, 0, func(int, int) (bool, uint64, int, bool) {
					return true, uint64(r.Int63n(int64(bg.Size()-16<<10))) &^ 4095, 16 << 10, true
				}, nil)
			}
			c.RunFor(10 * time.Millisecond) // reach steady state
		}

		// The probe: one 4 KiB write at a time, 200 µs after the last.
		h := stats.NewHistogram()
		r := sim.NewRand(opts.Seed + 99)
		drv.Closed(probe.ID, probe, 1, 200*time.Microsecond, func(_, n int) (bool, uint64, int, bool) {
			return true, uint64(r.Int63n(int64(probe.Size()-4096))) &^ 4095, 4096, n < probes
		}, func(io *workload.IO) { h.Record(io.Res.Latency) })
		c.RunFor(time.Duration(probes)*200*time.Microsecond + 20*time.Millisecond)
		return []string{label, cl.fn.String(), us(h.Median()), us(h.P99())}, c
	})

	t := &Table{
		Title:   "Figure 15: I/O latency of a single 4KB write (µs)",
		Columns: []string{"load", "stack", "median", "99th"},
		Rows:    rows,
	}
	t.Notes = append(t.Notes,
		"paper: Solar close to RDMA under light load; under heavy load Solar keeps the lowest tail")
	t.Perf = &fleet.Perf
	return t
}
