package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sa"
	"lunasolar/internal/stats"
	"lunasolar/internal/workload"
)

// The control-plane scenarios exercise the volume management service the
// way production exercises it: a provisioning storm (create / resize /
// snapshot / clone / delete with duplicated request IDs), a planned
// chunk-server drain riding under a foreground write storm, and a noisy
// tenant held off a victim by its tenant cap at the storage agent. The
// control plane is serial-only, so every cell owns its cluster and cells
// shard across workers — output is byte-identical for every -workers value.

// ctrlStacks is the stack column of the control-plane scenarios: the two
// storage-network generations the paper's evolution spans.
var ctrlStacks = []ebs.StackKind{ebs.Luna, ebs.Solar}

// ProvisionStormCell is one stack's provisioning-storm measurement.
type ProvisionStormCell struct {
	Stack     string
	Creates   int
	Replays   int
	Resizes   int
	Snapshots int
	Clones    int
	Deletes   int
	Errors    int
	IOErrors  int
	// SpreadMax/SpreadMin are the heaviest and lightest block server's
	// live segment counts after the storm — the placement-balance witness.
	SpreadMax int
	SpreadMin int
}

// provisionStormCell runs the storm on one stack: tenants t0..t3 create
// volumes round-robin over the compute servers, every fourth create is
// replayed with its original request ID, a third are resized, a quarter
// snapshotted and cloned, a fifth deleted — then every surviving volume
// takes one 4 KiB write to prove the data path works.
func provisionStormCell(opts Options, fn ebs.StackKind) (ProvisionStormCell, *ebs.Cluster) {
	c := ebs.New(clusterConfig(opts, fn))
	cp, err := c.ControlPlane()
	if err != nil {
		panic(err)
	}
	cell := ProvisionStormCell{Stack: fn.String()}

	nVols := opts.scale(24, 8)
	type liveVol struct {
		vd     *ebs.VDisk
		reqID  string
		tenant string
	}
	var live []liveVol
	for i := 0; i < nVols; i++ {
		tenant := fmt.Sprintf("t%d", i%4)
		reqID := fmt.Sprintf("create-%d", i)
		vd, err := cp.CreateVolume(reqID, i%c.Computes(), tenant, 8<<20, ebs.DefaultQoS())
		if err != nil {
			cell.Errors++
			continue
		}
		cell.Creates++
		live = append(live, liveVol{vd: vd, reqID: reqID, tenant: tenant})
		if i%4 == 0 {
			// Duplicate delivery: the replay must return the same volume
			// without provisioning a second one.
			again, err := cp.CreateVolume(reqID, i%c.Computes(), tenant, 8<<20, ebs.DefaultQoS())
			if err != nil || again != vd {
				cell.Errors++
			} else {
				cell.Replays++
			}
		}
	}
	for i, lv := range live {
		switch {
		case i%5 == 4:
			if err := cp.DeleteVolume(fmt.Sprintf("del-%d", i), lv.vd.ID); err != nil {
				cell.Errors++
			} else {
				cell.Deletes++
			}
		case i%3 == 0:
			if err := cp.ResizeVolume(fmt.Sprintf("resize-%d", i), lv.vd.ID, 16<<20); err != nil {
				cell.Errors++
			} else {
				cell.Resizes++
			}
		case i%4 == 1:
			snap, err := cp.SnapshotVolume(fmt.Sprintf("snap-%d", i), lv.vd.ID)
			if err != nil {
				cell.Errors++
				continue
			}
			cell.Snapshots++
			if _, err := cp.CloneVolume(fmt.Sprintf("clone-%d", i), snap, i%c.Computes(), lv.tenant, ebs.DefaultQoS()); err != nil {
				cell.Errors++
			} else {
				cell.Clones++
			}
		}
	}

	// Every surviving volume serves one write — provisioning that cannot
	// carry I/O is not provisioning.
	drv := workload.NewDriver(c.Eng)
	perServer := map[uint32]int{}
	for i, lv := range live {
		if i%5 == 4 {
			continue // deleted above
		}
		drv.Closed(lv.vd.ID, lv.vd, 1, 0, func(_, n int) (bool, uint64, int, bool) { return true, 0, 4096, n == 0 }, nil)
		for _, ref := range c.SegmentRefs(lv.vd.ID) {
			perServer[ref.Server]++
		}
	}
	c.Run()
	cell.IOErrors = drv.Failed
	for _, addr := range c.BlockServerAddrs() {
		n := perServer[addr]
		if cell.SpreadMax == 0 && cell.SpreadMin == 0 {
			cell.SpreadMax, cell.SpreadMin = n, n
			continue
		}
		if n > cell.SpreadMax {
			cell.SpreadMax = n
		}
		if n < cell.SpreadMin {
			cell.SpreadMin = n
		}
	}
	return cell, c
}

// ProvisionStorm regenerates the provisioning-storm table: a burst of
// lifecycle operations with duplicated request IDs, per stack.
func ProvisionStorm(opts Options) *Table {
	fleet := opts.fleet()
	cells := runCells(fleet, len(ctrlStacks), func(shard int) (ProvisionStormCell, *ebs.Cluster) {
		return provisionStormCell(opts, ctrlStacks[shard])
	})
	t := &Table{
		Title:   "Provisioning storm: volume lifecycle under duplicated deliveries",
		Columns: []string{"stack", "creates", "replays", "resizes", "snaps", "clones", "deletes", "errors", "io errors", "spread max/min"},
		Notes: []string{
			"every fourth create is redelivered with its original request ID; replays must return the original volume",
			"spread = live segments on the heaviest vs lightest block server (failure-domain-aware placement)",
		},
		Perf: &fleet.Perf,
	}
	for _, cell := range cells {
		t.Rows = append(t.Rows, []string{
			cell.Stack, fmt.Sprintf("%d", cell.Creates), fmt.Sprintf("%d", cell.Replays),
			fmt.Sprintf("%d", cell.Resizes), fmt.Sprintf("%d", cell.Snapshots),
			fmt.Sprintf("%d", cell.Clones), fmt.Sprintf("%d", cell.Deletes),
			fmt.Sprintf("%d", cell.Errors), fmt.Sprintf("%d", cell.IOErrors),
			fmt.Sprintf("%d/%d", cell.SpreadMax, cell.SpreadMin),
		})
	}
	return t
}

// DrainCell is one stack's planned-drain measurement: a chunk server is
// drained mid-storm; the gate is zero failed foreground I/Os.
type DrainCell struct {
	Stack        string
	IOs          int
	FailedIOs    int
	Segments     int
	BlocksCopied int
	MBCopied     float64
	CopyErrors   int
	CutoverP50us float64
	CutoverP99us float64
	DrainMs      float64
}

// drainCell seeds every segment of two volumes, opens a 4 KiB write storm
// across both, and drains chunk server 0 one millisecond in.
func drainCell(opts Options, fn ebs.StackKind) (DrainCell, *ebs.Cluster) {
	c := ebs.New(clusterConfig(opts, fn))
	cp, err := c.ControlPlane()
	if err != nil {
		panic(err)
	}
	cell := DrainCell{Stack: fn.String()}

	var vds []*ebs.VDisk
	for i := 0; i < 2; i++ {
		vd, err := cp.CreateVolume(fmt.Sprintf("drain-vol-%d", i), i%c.Computes(), "t0", 8<<20, ebs.DefaultQoS())
		if err != nil {
			panic(err)
		}
		vds = append(vds, vd)
	}
	// Seed one block in every segment so each drained replica has bytes to
	// rebuild, then a storm of sequential 4 KiB writes, one every 10 µs per
	// volume, while the drain copies and cuts over underneath them.
	drv := workload.NewDriver(c.Eng)
	for _, vd := range vds {
		segs := int((vd.Size() + sa.SegmentBytes - 1) / sa.SegmentBytes)
		drv.Closed(vd.ID, vd, segs, 0, func(_, n int) (bool, uint64, int, bool) {
			return true, uint64(n) * sa.SegmentBytes, 4096, n < segs
		}, nil)
	}
	c.Run()

	nPerDisk := opts.scale(400, 150)
	var storm []*workload.Stream
	for _, vd := range vds {
		storm = append(storm, drv.Open(vd.ID, vd, func() time.Duration { return 10 * time.Microsecond },
			func(_, n int) (bool, uint64, int, bool) {
				return true, (uint64(n) * 4096) % vd.Size(), 4096, n < nPerDisk
			}, nil))
	}
	var report ebs.DrainReport
	c.Eng.Schedule(time.Millisecond, func() {
		if err := cp.DrainChunkServer(0, func(r ebs.DrainReport) { report = r }); err != nil {
			panic(err)
		}
	})
	c.Run()

	for _, st := range storm {
		cell.IOs += st.Issued
	}
	cell.FailedIOs = drv.Failed
	cell.Segments = report.Segments
	cell.BlocksCopied = report.BlocksCopied
	cell.MBCopied = float64(report.BytesCopied) / 1e6
	cell.CopyErrors = report.CopyErrors
	cell.DrainMs = float64(report.Duration.Nanoseconds()) / 1e6
	h := stats.NewHistogram()
	for _, d := range report.Cutovers {
		h.Record(d)
	}
	cell.CutoverP50us = float64(h.Median().Nanoseconds()) / 1e3
	cell.CutoverP99us = float64(h.P99().Nanoseconds()) / 1e3
	return cell, c
}

// drainCells runs the planned drain on both stacks and returns the cells
// TestCtrlGates checks next to the table.
func drainCells(opts Options) ([]DrainCell, *Table) {
	fleet := opts.fleet()
	cells := runCells(fleet, len(ctrlStacks), func(shard int) (DrainCell, *ebs.Cluster) {
		return drainCell(opts, ctrlStacks[shard])
	})
	t := &Table{
		Title:   "Planned chunk-server drain under a write storm",
		Columns: []string{"stack", "IOs", "failed", "segments", "blocks", "MB", "copy errs", "cutover p50 (µs)", "cutover p99 (µs)", "drain (ms)"},
		Notes: []string{
			"drain = copy each replica block off the server, then cut the owner's replica set over (survivor stays primary)",
			"gate: zero failed foreground I/Os — in-flight writes retry against the post-cutover owner",
		},
		Perf: &fleet.Perf,
	}
	for _, cell := range cells {
		t.Rows = append(t.Rows, []string{
			cell.Stack, fmt.Sprintf("%d", cell.IOs), fmt.Sprintf("%d", cell.FailedIOs),
			fmt.Sprintf("%d", cell.Segments), fmt.Sprintf("%d", cell.BlocksCopied),
			f1(cell.MBCopied), fmt.Sprintf("%d", cell.CopyErrors),
			f1(cell.CutoverP50us), f1(cell.CutoverP99us), f1(cell.DrainMs),
		})
	}
	return cells, t
}

// Drain is the ebsbench entry point for the planned-drain table.
func Drain(opts Options) *Table {
	_, t := drainCells(opts)
	return t
}

// NoisyCell is one noisy-neighbor measurement: the victim's latency with
// the aggressor absent, capped by tenant QoS, or uncapped.
type NoisyCell struct {
	Mode         string // baseline | capped | uncapped
	VictimOps    int
	VictimP50us  float64
	VictimP99us  float64
	AggressorOps int
}

// noisyCell runs the victim's open-loop 4 KiB writes, optionally alongside
// a closed-loop 64 KiB aggressor on the same compute server. mode selects
// the aggressor's presence and whether its tenant is rate-capped.
func noisyCell(opts Options, mode string) (NoisyCell, *ebs.Cluster) {
	c := ebs.New(clusterConfig(opts, ebs.Solar))
	cp, err := c.ControlPlane()
	if err != nil {
		panic(err)
	}
	cell := NoisyCell{Mode: mode}

	// Generous per-disk QoS on both volumes: only the tenant-level cap
	// (mode "capped") stands between the aggressor and the fabric.
	diskQoS := ebs.QoS(1e6, 100e9)
	if mode == "capped" {
		cp.SetTenantQoS("noisy", sa.QoSSpec{IOPS: 2000, BurstWindow: time.Millisecond})
	}
	victim, err := cp.CreateVolume("victim", 0, "quiet", 16<<20, diskQoS)
	if err != nil {
		panic(err)
	}

	drv := workload.NewDriver(c.Eng)
	window := time.Duration(opts.scale(40, 15)) * time.Millisecond
	if mode != "baseline" {
		agg, err := cp.CreateVolume("aggressor", 0, "noisy", 64<<20, diskQoS)
		if err != nil {
			panic(err)
		}
		// Slot k writes 64 KiB pieces k, k+16, k+32, ... until the window closes.
		const aggDepth = 16
		aggSpan := agg.Size() - (64 << 10)
		for k := uint64(0); k < aggDepth; k++ {
			drv.Closed(agg.ID, agg, 1, 0, func(_, i int) (bool, uint64, int, bool) {
				lba := (k*(64<<10) + uint64(i)*aggDepth*(64<<10)) % aggSpan &^ 4095
				return true, lba, 64 << 10, i == 0 || c.Eng.Now().Duration() < window
			}, func(*workload.IO) { cell.AggressorOps++ })
		}
	}

	h := stats.NewHistogram()
	victimIOs := opts.scale(300, 100)
	drv.Open(victim.ID, victim, func() time.Duration { return 100 * time.Microsecond },
		func(_, n int) (bool, uint64, int, bool) {
			return true, (uint64(n) * 4096) % victim.Size(), 4096, n < victimIOs
		}, func(io *workload.IO) {
			if io.Res.Err == nil {
				h.Record(io.Res.Latency)
			}
		})
	c.Run()

	cell.VictimOps = int(h.Count())
	cell.VictimP50us = float64(h.Median().Nanoseconds()) / 1e3
	cell.VictimP99us = float64(h.P99().Nanoseconds()) / 1e3
	return cell, c
}

// noisyModes orders the three noisy-neighbor cells.
var noisyModes = []string{"baseline", "capped", "uncapped"}

// noisyNeighborCells runs all three modes and returns the cells
// TestCtrlGates checks next to the table.
func noisyNeighborCells(opts Options) ([]NoisyCell, *Table) {
	fleet := opts.fleet()
	cells := runCells(fleet, len(noisyModes), func(shard int) (NoisyCell, *ebs.Cluster) {
		return noisyCell(opts, noisyModes[shard])
	})
	t := &Table{
		Title:   "Noisy neighbor: victim latency vs an aggressor tenant on the same compute server",
		Columns: []string{"mode", "victim ops", "victim p50 (µs)", "victim p99 (µs)", "aggressor ops"},
		Notes: []string{
			"victim: open-loop 4 KiB writes; aggressor: closed-loop depth-16 64 KiB writes, same hypervisor",
			"capped = aggressor tenant limited to 2000 IOPS by the SA's tenant pacer; gate: victim p99 <= 2x baseline",
		},
		Perf: &fleet.Perf,
	}
	for _, cell := range cells {
		t.Rows = append(t.Rows, []string{
			cell.Mode, fmt.Sprintf("%d", cell.VictimOps),
			f1(cell.VictimP50us), f1(cell.VictimP99us), fmt.Sprintf("%d", cell.AggressorOps),
		})
	}
	return cells, t
}

// NoisyNeighbor is the ebsbench entry point for the noisy-neighbor matrix.
func NoisyNeighbor(opts Options) *Table {
	_, t := noisyNeighborCells(opts)
	return t
}
