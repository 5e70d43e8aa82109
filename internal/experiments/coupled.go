package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
)

// coupledParts is the partition count of the coupled scenarios. It is part
// of the scenario definition (the partitioning decides which links are cut
// and therefore which frames take the mailbox path), so it stays fixed
// while Options.CoupledWorkers varies — output must be byte-identical for
// every worker count over the same partitions.
const coupledParts = 4

// coupledConfig builds the big-pod Solar cluster the coupled experiments
// partition: one 64-host compute pod and one 64-host storage pod on a
// shared spine/core fabric. PropDelay is raised to 2µs — a long-haul pod
// interconnect — which is also the conservative lookahead, so each
// barrier-to-barrier window is wide enough to keep four partitions busy.
func coupledConfig(opts Options) ebs.Config {
	cfg := opts.config(ebs.Solar)
	cfg.Fabric.RacksPerPod = 8
	cfg.Fabric.HostsPerRack = 8
	cfg.Fabric.SpinesPerPod = 4
	cfg.Fabric.PropDelay = 2 * time.Microsecond
	cfg.ComputeServers = opts.scale(64, 16)
	cfg.BlockServers = 8
	cfg.ChunkServers = 24
	cfg.CoupledParts = coupledParts
	cfg.CoupledWorkers = opts.CoupledWorkers
	return cfg
}

// driveStorm starts a closed-loop write storm: every disk keeps depth
// writes of the given size in flight until it has completed perDisk of
// them. Each disk draws offsets from its own stream, and every callback
// runs on the disk's compute-host engine, so the issue order inside each
// partition is independent of how many workers drive the windows.
func driveStorm(opts Options, vds []*ebs.VDisk, perDisk, depth, size int) {
	for di, vd := range vds {
		vd := vd
		r := sim.NewRand(opts.Seed + int64(di)*7919)
		payload := make([]byte, size)
		span := int64(vd.Size() - uint64(size))
		remaining := perDisk
		var issue func()
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			lba := uint64(r.Int63n(span)) &^ 4095
			vd.Write(lba, payload, func(ebs.IOResult) { issue() })
		}
		for s := 0; s < depth; s++ {
			issue()
		}
	}
}

// coupledRow renders the shared result columns of a coupled run: all
// virtual-time quantities, so the row is identical for every worker count.
func coupledRow(label string, c *ebs.Cluster, writes, size int) []string {
	parts, e2e := c.Collector().Breakdown("write", 0.5)
	_, p99 := c.Collector().Breakdown("write", 0.99)
	simMs := float64(c.Now().Nanoseconds()) / 1e6
	mbps := 0.0
	if simMs > 0 {
		mbps = float64(writes) * float64(size) / 1e6 / (simMs / 1e3)
	}
	return []string{
		label,
		fmt.Sprintf("%d", writes),
		us(e2e), us(p99), us(parts[1]), // FN component
		f0(mbps),
	}
}

// CoupledStorm runs the coupled-fabric write storm: one big-pod Solar
// cluster partitioned four ways, every compute pushing 16 KiB writes at
// depth 4 across the cut spine links to the storage pod. It is the
// tentpole scenario for the conservative parallel runner: the same
// partitioned cluster driven by 1..N workers must produce this exact
// table.
func CoupledStorm(opts Options) *Table {
	cfg := coupledConfig(opts)
	perDisk := opts.scale(200, 48)
	const size, depth = 16 << 10, 4

	fleet := opts.fleet()
	c := ebs.New(cfg)
	var vds []*ebs.VDisk
	for ci := 0; ci < c.Computes(); ci++ {
		vds = append(vds, c.MustProvision(ci, 256<<20, ebs.DefaultQoS()))
	}
	driveStorm(opts, vds, perDisk, depth, size)
	fleet.Perf.ObserveCoupledRun(c.Engines(), func() { c.Run() })
	observeLeaks(&fleet.Perf, c)

	writes := perDisk * len(vds)
	t := &Table{
		Title:   "Coupled fabric: big-pod write storm (one Clos, 4 partitions)",
		Columns: []string{"scenario", "writes", "p50 (µs)", "p99 (µs)", "FN p50 (µs)", "MB/s"},
	}
	t.Rows = append(t.Rows, coupledRow("storm 16K d4", c, writes, size))
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d computes + %d storage servers on one fabric, %d partitions, %d cut links, lookahead %v",
			c.Computes(), cfg.BlockServers+cfg.ChunkServers, coupledParts,
			len(c.Fabric.CutPorts())/2, c.Fabric.Lookahead()))
	if opts.Telemetry {
		t.Telemetry = stats.NewRegistry()
		reg := stats.NewRegistry()
		c.ExportMetrics(reg, "")
		t.Telemetry.Merge(reg, "coupled/storm/")
	}
	t.Perf = &fleet.Perf
	return t
}

// CoupledFailover is the storm with a mid-run spine reboot in the storage
// pod: the failure is injected and repaired on the owning partition's
// engine at fixed virtual times, and neighbours on other partitions see it
// through the published barrier snapshots — so recovery behaviour, like
// the healthy storm, is byte-identical for every worker count.
func CoupledFailover(opts Options) *Table {
	cfg := coupledConfig(opts)
	cfg.Fabric.DetectDelay = 500 * time.Microsecond
	perDisk := opts.scale(200, 48)
	const size, depth = 16 << 10, 4

	fleet := opts.fleet()
	c := ebs.New(cfg)
	var vds []*ebs.VDisk
	for ci := 0; ci < c.Computes(); ci++ {
		vds = append(vds, c.MustProvision(ci, 256<<20, ebs.DefaultQoS()))
	}
	driveStorm(opts, vds, perDisk, depth, size)

	// Reboot a storage-pod spine one-third into the expected storm: it hangs
	// (links stay up), neighbours steer around it after DetectDelay, and it
	// comes back mid-run. Scheduled on the spine's own engine so the event
	// lands inside that partition's window regardless of worker count.
	target := c.Fabric.Spine(0, 1, 0)
	target.Engine().Schedule(400*time.Microsecond, func() {
		c.Fabric.RebootSwitch(target, 600*time.Microsecond)
	})

	fleet.Perf.ObserveCoupledRun(c.Engines(), func() { c.Run() })
	observeLeaks(&fleet.Perf, c)

	writes := perDisk * len(vds)
	t := &Table{
		Title:   "Coupled fabric: write storm through a spine reboot",
		Columns: []string{"scenario", "writes", "p50 (µs)", "p99 (µs)", "FN p50 (µs)", "MB/s"},
	}
	t.Rows = append(t.Rows, coupledRow("storm+reboot", c, writes, size))
	t.Rows = append(t.Rows, []string{
		"drops", fmt.Sprintf("%d", c.Fabric.TotalDrops()), "-", "-", "-", "-",
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("spine %s rebooted at 400µs for 600µs, detect delay %v; drops row counts fabric-level losses the stacks recovered",
			target.Name(), cfg.Fabric.DetectDelay))
	if opts.Telemetry {
		t.Telemetry = stats.NewRegistry()
		reg := stats.NewRegistry()
		c.ExportMetrics(reg, "")
		t.Telemetry.Merge(reg, "coupled/failover/")
	}
	t.Perf = &fleet.Perf
	return t
}
