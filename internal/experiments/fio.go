package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/dpu"
	"lunasolar/internal/workload"
)

// Fig14 regenerates the fio read test: (a) 64 KiB throughput and (b) 4 KiB
// IOPS at queue depth 32, for Luna, RDMA, Solar* and Solar, as the DPU's
// CPU core count grows from 1 to 3 — the experiment that shows the
// PCIe-goodput ceiling for every data path that crosses the card's internal
// channel, and Solar sailing past it at line rate.
func Fig14(opts Options) *Table {
	stacks := []ebs.StackKind{ebs.Luna, ebs.RDMA, ebs.SolarStar, ebs.Solar}
	t := &Table{
		Title:   "Figure 14: fio read, 32 I/O depth, by DPU cores",
		Columns: []string{"stack", "cores", "64K MB/s", "4K IOPS"},
	}
	pcieCeiling := dpu.PCIeBps / 2 / 8 / 1e6 // crossed twice, in MB/s
	lineRate := 2 * 25e9 / 8 / 1e6

	// One shard per (stack, cores, blocksize) cell — 24 independent
	// clusters merged in row order.
	type cell struct {
		fn    ebs.StackKind
		cores int
		size  int
	}
	var cells []cell
	for _, fn := range stacks {
		for cores := 1; cores <= 3; cores++ {
			cells = append(cells, cell{fn, cores, 64 << 10}, cell{fn, cores, 4096})
		}
	}
	fleet := opts.fleet()
	vals := runCells(fleet, len(cells), func(shard int) (float64, *ebs.Cluster) {
		cl := cells[shard]
		return runFio(opts, cl.fn, cl.cores, cl.size)
	})
	for i := 0; i < len(cells); i += 2 {
		mbs := vals[i]
		iops := vals[i+1] * 1e6 / 4096 // MB/s → IOPS
		t.Rows = append(t.Rows, []string{
			cells[i].fn.String(), fmt.Sprintf("%d", cells[i].cores), f0(mbs), f0(iops),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("PCIe goodput ceiling (crossed twice): %.0f MB/s; NIC line rate: %.0f MB/s", pcieCeiling, lineRate),
		"paper: Solar alone reaches line rate and is flat in cores; Luna/RDMA/Solar* plateau at the PCIe bottleneck; single-core Solar throughput +78% and IOPS +46% vs Luna")
	t.Perf = &fleet.Perf
	return t
}

// runFio measures goodput in MB/s for one (stack, cores, blocksize) cell.
func runFio(opts Options, fn ebs.StackKind, cores int, blockSize int) (float64, *ebs.Cluster) {
	cfg := clusterConfig(opts, fn)
	cfg.BareMetal = true
	cfg.DPU.CPUCores = cores
	cfg.ComputeServers = 1
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	c := ebs.New(cfg)
	// The fio test measures device capability: provision without a
	// throttling service level (the paper's testbed disks are unthrottled).
	vd := c.MustProvision(0, 512<<20, ebs.QoS(10e6, 400e9))

	// Prepopulate the read span so reads hit stamped data, then read it
	// back sequentially at queue depth 32.
	const span = 16 << 20
	drv := workload.NewDriver(c.Eng)
	drv.Fill(vd.ID, vd, span)
	c.Run()
	c.Eng.Rand.Fork() // the fio job's own stream: the draw keeps the engine's stream in step
	st := drv.Closed(vd.ID, vd, 32, 0, func(_, n int) (bool, uint64, int, bool) {
		return false, uint64(n) * uint64(blockSize) % span, blockSize, true
	}, nil)

	window := time.Duration(opts.scale(60, 15)) * time.Millisecond
	c.RunFor(5 * time.Millisecond) // warmup
	start := st.Completed
	c.RunFor(window)
	return float64((st.Completed-start)*blockSize) / window.Seconds() / 1e6, c
}
