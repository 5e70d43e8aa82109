package experiments

import (
	"fmt"

	"lunasolar/ebs"
	"lunasolar/internal/cc"
	"lunasolar/internal/sa"
	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
)

// The CC-matrix experiments stress the RDMA plane's pluggable congestion
// controllers (static RC baseline, DCQCN, Swift) under identical seeds and
// report the signatures that separate them: completion-time tails,
// aggregate throughput, and the fabric's deepest queue high-water mark.
// One cluster cell per (scenario, controller) — each cell is an
// independent share-nothing shard, so the matrix parallelizes like every
// other experiment while staying byte-identical at any worker count.

// ccKinds is the controller column of every CC-matrix experiment.
var ccKinds = []cc.Kind{cc.KindStatic, cc.KindDCQCN, cc.KindSwift}

// CCCell is one (scenario, controller) measurement — the unit of the
// rendered fig-style tables.
type CCCell struct {
	Scenario      string
	CC            string
	Ops           int
	P50us         float64
	P99us         float64
	MBps          float64
	QueueHiWatKiB float64
}

func (c CCCell) row() []string {
	return []string{
		c.CC, fmt.Sprintf("%d", c.Ops),
		f1(c.P50us), f1(c.P99us), f1(c.MBps), f1(c.QueueHiWatKiB),
	}
}

var ccColumns = []string{"cc", "ops", "p50(µs)", "p99(µs)", "MB/s", "maxQ(KiB)"}

// cellStats folds a finished cluster's clock and queue marks into the cell.
func cellStats(cell *CCCell, c *ebs.Cluster, h *stats.Histogram, bytesMoved int) {
	cell.Ops = int(h.Count())
	cell.P50us = float64(h.Median().Nanoseconds()) / 1e3
	cell.P99us = float64(h.P99().Nanoseconds()) / 1e3
	if el := c.Now(); el > 0 {
		cell.MBps = float64(bytesMoved) / el.Seconds() / 1e6
	}
	cell.QueueHiWatKiB = float64(c.Fabric.MaxQueuedBytes()) / 1024
}

// ccIncastCell runs the incast storm for one controller: every block
// server in the storage pod answers reads from a single compute server, so
// the responses fan in on the compute ToR's one downlink — the classic
// storage incast the paper's Solar evolution is built to survive.
func ccIncastCell(opts Options, kind cc.Kind) (CCCell, *ebs.Cluster) {
	cfg := opts.config(ebs.RDMA)
	cfg.CC = kind
	cfg.ComputeServers = 1
	cfg.BlockServers = opts.scale(12, 8)
	cfg.ChunkServers = 4
	c := ebs.New(cfg)

	// One segment per block server (Provision stripes round-robin), so
	// stream i's reads are answered by block server i.
	nseg := cfg.BlockServers
	vd := c.MustProvision(0, uint64(nseg)*sa.SegmentBytes, ebs.DefaultQoS())
	const rdSize = 128 << 10
	perStream := opts.scale(40, 10)
	h := stats.NewHistogram()
	total := 0
	var issue func(stream, n int)
	issue = func(stream, n int) {
		if n == 0 {
			return
		}
		lba := uint64(stream) * sa.SegmentBytes
		vd.Read(lba, rdSize, func(res ebs.IOResult) {
			h.Record(res.Latency)
			total += rdSize
			issue(stream, n-1)
		})
	}
	for st := 0; st < nseg; st++ {
		issue(st, perStream) // all streams open at t=0: synchronized fan-in
	}
	c.Run()

	cell := CCCell{Scenario: "incast", CC: kind.String()}
	cellStats(&cell, c, h, total)
	return cell, c
}

// incastMatrix runs the incast storm across every controller.
func incastMatrix(opts Options) ([]CCCell, *Table) {
	f := opts.fleet()
	cells := runCells(f, len(ccKinds), func(shard int) (CCCell, *ebs.Cluster) {
		return ccIncastCell(opts, ccKinds[shard])
	})
	t := &Table{
		Title:   "Incast storm: every block server answers one compute (RDMA FN, per-controller)",
		Columns: ccColumns,
		Notes: []string{
			"synchronized 128 KiB read streams, one per block server, closed loop",
			"maxQ = deepest switch output queue across the fabric",
		},
		Perf: &f.Perf,
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, c.row())
	}
	return cells, t
}

// Incast is the ebsbench entry point for the incast storm.
func Incast(opts Options) *Table {
	_, t := incastMatrix(opts)
	return t
}

// ccWriteStorm drives every provisioned disk with a closed loop of writes
// of size wr, depth outstanding each, count writes per disk, recording
// completion latencies. The payload is reused per disk: the loop is
// closed, so the previous write has fully retired before the next borrows
// the buffer. The returned counter accumulates completed bytes as the
// cluster runs — read it after c.Run(), not before.
func ccWriteStorm(c *ebs.Cluster, vds []*ebs.VDisk, seed int64, wr, depth, count int, h *stats.Histogram) *int {
	total := new(int)
	for di, vd := range vds {
		rng := sim.NewRand(seed + int64(di)*7919)
		buf := make([]byte, wr)
		rng.Read(buf)
		remaining := count
		next := uint64(0)
		vd := vd
		var issue func()
		issue = func() {
			if remaining == 0 {
				return
			}
			remaining--
			lba := next % (sa.SegmentBytes * 2)
			next += uint64(wr)
			vd.Write(lba, buf, func(res ebs.IOResult) {
				h.Record(res.Latency)
				*total += wr
				issue()
			})
		}
		for d := 0; d < depth && d < count; d++ {
			issue()
		}
	}
	return total
}

// ccSpineCell runs the oversubscription sweep for one (controller, spine
// count) pair: all compute servers write at once, and the pod's spine tier
// is thinned from fully provisioned to 4:1 oversubscribed, concentrating
// the inter-pod load on fewer uplinks.
func ccSpineCell(opts Options, kind cc.Kind, spines int) (CCCell, *ebs.Cluster) {
	cfg := opts.config(ebs.RDMA)
	cfg.CC = kind
	cfg.Fabric.SpinesPerPod = spines
	cfg.ComputeServers = 8
	cfg.BlockServers = 4
	cfg.ChunkServers = 8
	c := ebs.New(cfg)

	vds := make([]*ebs.VDisk, cfg.ComputeServers)
	for i := range vds {
		vds[i] = c.MustProvision(i, 8*sa.SegmentBytes, ebs.DefaultQoS())
	}
	h := stats.NewHistogram()
	total := ccWriteStorm(c, vds, opts.Seed, 256<<10, 2, opts.scale(24, 6), h)
	c.Run()

	cell := CCCell{Scenario: fmt.Sprintf("spine-oversub/%d", spines), CC: kind.String()}
	cellStats(&cell, c, h, *total)
	return cell, c
}

// SpineOversub sweeps the spine tier from 4 down to 1 for every
// controller.
func SpineOversub(opts Options) *Table {
	spines := []int{4, 2, 1}
	f := opts.fleet()
	cells := runCells(f, len(ccKinds)*len(spines), func(shard int) (CCCell, *ebs.Cluster) {
		return ccSpineCell(opts, ccKinds[shard/len(spines)], spines[shard%len(spines)])
	})
	t := &Table{
		Title:   "Oversubscribed spine: 8 computes write through a thinning spine tier (RDMA FN)",
		Columns: append([]string{"spines"}, ccColumns...),
		Notes: []string{
			"256 KiB closed-loop writes from every compute, spine tier swept 4→1",
		},
		Perf: &f.Perf,
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, append([]string{c.Scenario[len("spine-oversub/"):]}, c.row()...))
	}
	return t
}

// ccElephantMiceCell runs the mixed workload for one controller: two
// computes stream 1 MiB elephants while two others issue 4 KiB mice; the
// mice tail shows how well the controller protects latency-sensitive I/O
// from bandwidth hogs sharing the fabric.
func ccElephantMiceCell(opts Options, kind cc.Kind) (CCCell, *ebs.Cluster) {
	cfg := opts.config(ebs.RDMA)
	cfg.CC = kind
	c := ebs.New(cfg)

	elephants := []*ebs.VDisk{
		c.MustProvision(0, 8*sa.SegmentBytes, ebs.DefaultQoS()),
		c.MustProvision(1, 8*sa.SegmentBytes, ebs.DefaultQoS()),
	}
	mice := []*ebs.VDisk{
		c.MustProvision(2, 8*sa.SegmentBytes, ebs.DefaultQoS()),
		c.MustProvision(3, 8*sa.SegmentBytes, ebs.DefaultQoS()),
	}
	hEl := stats.NewHistogram() // elephants contribute bytes, not the tail
	hMice := stats.NewHistogram()
	totalEl := ccWriteStorm(c, elephants, opts.Seed, 1<<20, 2, opts.scale(30, 8), hEl)
	ccWriteStorm(c, mice, opts.Seed+1, 4<<10, 2, opts.scale(300, 80), hMice)
	c.Run()

	cell := CCCell{Scenario: "elephantmice", CC: kind.String()}
	cellStats(&cell, c, hMice, *totalEl)
	return cell, c
}

// ElephantMice runs the mixed elephant/mice workload across every
// controller. The latency columns are the mice; MB/s is the elephants.
func ElephantMice(opts Options) *Table {
	f := opts.fleet()
	cells := runCells(f, len(ccKinds), func(shard int) (CCCell, *ebs.Cluster) {
		return ccElephantMiceCell(opts, ccKinds[shard])
	})
	t := &Table{
		Title:   "Elephant/mice mix: 1 MiB streams vs 4 KiB writes (RDMA FN, per-controller)",
		Columns: ccColumns,
		Notes: []string{
			"p50/p99 are the 4 KiB mice; MB/s is the 1 MiB elephant aggregate",
		},
		Perf: &f.Perf,
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, c.row())
	}
	return t
}
