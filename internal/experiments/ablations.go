package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/core"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/stats"
	"lunasolar/internal/workload"
)

// Ablations exercises the design choices DESIGN.md calls out, one knob at a
// time on an otherwise-default Solar cluster:
//
//  1. Multipath and source-port failover under a spine blackhole — the
//     fast-recovery mechanism of §4.5 and Table 2.
//  2. CRC strategy: software aggregation (one XOR per block) vs a full
//     software CRC per block on the DPU CPU — the integrity/CPU tradeoff
//     of §4.5's "Hardware errors v.s. data integrity".
//  3. Addr-table capacity: the hardware-state scaling knob behind the
//     one-block-one-packet design's "few maintained states" claim.
func Ablations(opts Options) *Table {
	t := &Table{
		Title:   "Ablations: Solar design choices",
		Columns: []string{"study", "variant", "metric", "value"},
	}

	// Eleven independent cells across four studies, each owning its cluster;
	// one share-nothing shard per cell, merged in study order.
	pathVariants := []struct {
		label    string
		paths    int
		failover bool
	}{
		{"1 path, failover off", 1, false},
		{"4 paths, failover off", 4, false},
		{"1 path, failover on", 1, true},
		{"4 paths, failover on", 4, true},
	}
	var cells []func() ([]string, *sim.Engine, *simnet.Fabric)
	for _, v := range pathVariants {
		v := v
		cells = append(cells, func() ([]string, *sim.Engine, *simnet.Fabric) {
			slow, p99, c := ablatePaths(opts, v.paths, v.failover)
			return []string{
				"multipath under blackhole", v.label,
				"IOs >=1s / write p99 µs", fmt.Sprintf("%d / %s", slow, us(p99)),
			}, c.Eng, c.Fabric
		})
	}
	for _, full := range []bool{false, true} {
		full := full
		cells = append(cells, func() ([]string, *sim.Engine, *simnet.Fabric) {
			label := "aggregation (XOR/block)"
			if full {
				label = "full software CRC/block"
			}
			iops, c := ablateCRC(opts, full)
			return []string{"integrity check on CPU", label, "4K write IOPS @1 core", f0(iops)}, c.Eng, c.Fabric
		})
	}
	for _, locked := range []bool{false, true} {
		locked := locked
		cells = append(cells, func() ([]string, *sim.Engine, *simnet.Fabric) {
			label := "share-nothing (Luna)"
			if locked {
				label = "locked shared stack"
			}
			gbps, cores, eng, fab := ablateShareNothing(opts, locked)
			return []string{
				"thread arrangement @4 cores", label,
				"stress Gbps / consumed cores", fmt.Sprintf("%s / %s", f1(gbps), f1(cores)),
			}, eng, fab
		})
	}
	for _, entries := range []int{64, 512, 20000} {
		entries := entries
		cells = append(cells, func() ([]string, *sim.Engine, *simnet.Fabric) {
			wait, c := ablateAddr(opts, entries)
			return []string{
				"Addr table capacity", fmt.Sprintf("%d entries", entries),
				"read admission wait (total ms)", f1(float64(wait.Milliseconds())),
			}, c.Eng, c.Fabric
		})
	}

	fleet := opts.fleet()
	t.Rows = runFabricCells(fleet, len(cells), func(shard int) ([]string, *sim.Engine, *simnet.Fabric) {
		return cells[shard]()
	})
	t.Perf = &fleet.Perf

	t.Notes = append(t.Notes,
		"without source-port failover a blackholed path hangs I/Os forever; with it even one path recovers (a fresh port re-hashes)",
		"a small Addr table backpressures reads instead of dropping them — scalability knob of §4.4")
	return t
}

// ablatePaths measures hung I/Os (workload.HangThreshold) and write p99
// with the given path count and failover setting while both spines
// silently blackhole 25% of flows.
func ablatePaths(opts Options, paths int, failover bool) (slow int, p99 time.Duration, _ *ebs.Cluster) {
	cfg := clusterConfig(opts, ebs.Solar)
	p := ebs.SolarStackParams(ebs.Solar, false)
	p.NumPaths = paths
	if !failover {
		p.PathFailThreshold = 1 << 30 // never declare a path dead
	}
	cfg.SolarOverride = &p
	c := ebs.New(cfg)
	h := stats.NewHistogram()
	r := sim.NewRand(opts.Seed + 17)
	drv := workload.NewDriver(c.Eng)
	for i := 0; i < 4; i++ {
		vd := c.MustProvision(i, 64<<20, ebs.DefaultQoS())
		drv.Closed(vd.ID, vd, 1, 2*time.Millisecond, func(int, int) (bool, uint64, int, bool) {
			return true, uint64(r.Int63n(int64(vd.Size()-4096))) &^ 4095, 4096, true
		}, func(io *workload.IO) { h.Record(c.Eng.Now().Sub(io.Issued)) })
	}
	c.RunFor(100 * time.Millisecond)
	c.Fabric.Spine(0, 0, 0).SetBlackhole(0.25, 777)
	c.Fabric.Spine(0, 0, 1).SetBlackhole(0.25, 777)
	c.RunFor(time.Duration(opts.scale(3000, 1500)) * time.Millisecond)
	return drv.Hangs(), h.P99(), c
}

// ablateShareNothing runs the Table 1-style 50 Gbps stress with 4 cores,
// with and without Luna's lock-free share-nothing thread arrangement
// (§3.2): the locked variant pays contention per packet per extra core.
func ablateShareNothing(opts Options, locked bool) (gbps, cores float64, eng *sim.Engine, fab *simnet.Fabric) {
	era := table1Era{"2x25GE", 25e9, 50e9, 4, 4, 1.0}
	params := ebs.LunaStackParams()
	if locked {
		params.LockPenalty = 150 * time.Nanosecond
	}
	_, gbps, cores, eng, fab = runRPCWith(opts, era, params, 4)
	return gbps, cores, eng, fab
}

// ablateCRC measures sustainable 4K write IOPS on one DPU core with the
// aggregation strategy vs a full software CRC per block.
func ablateCRC(opts Options, fullCRC bool) (float64, *ebs.Cluster) {
	cfg := clusterConfig(opts, ebs.Solar)
	cfg.DPU.CPUCores = 1
	cfg.ComputeServers = 1
	p := ebs.SolarStackParams(ebs.Solar, false)
	if fullCRC {
		p.AggXORPer4K = p.SoftCRCPer4K // CPU checksums every block fully
	}
	cfg.SolarOverride = &p
	c := ebs.New(cfg)
	vd := c.MustProvision(0, 128<<20, ebs.DefaultQoS())
	// 32 slots, each rewriting its own block back to back.
	st := workload.NewDriver(c.Eng).Closed(vd.ID, vd, 32, 0, func(slot, _ int) (bool, uint64, int, bool) {
		return true, uint64(slot) << 14, 4096, true
	}, nil)
	window := time.Duration(opts.scale(60, 20)) * time.Millisecond
	c.RunFor(5 * time.Millisecond)
	base := st.Completed
	c.RunFor(window)
	return float64(st.Completed-base) / window.Seconds(), c
}

// ablateAddr measures total Addr-table admission wait with depth-64 reads
// of 64 KiB against the given table capacity.
func ablateAddr(opts Options, entries int) (time.Duration, *ebs.Cluster) {
	cfg := clusterConfig(opts, ebs.Solar)
	cfg.ComputeServers = 1
	cfg.DPU.MaxAddrEntries = entries
	c := ebs.New(cfg)
	vd := c.MustProvision(0, 128<<20, ebs.DefaultQoS())
	drv := workload.NewDriver(c.Eng)
	drv.Fill(vd.ID, vd, 8<<20)
	c.Run()
	r := sim.NewRand(opts.Seed + 23)
	drv.Closed(vd.ID, vd, 64, 0, func(int, int) (bool, uint64, int, bool) {
		return false, uint64(r.Int63n(8<<20-64<<10)) &^ 4095, 64 << 10, true
	}, nil)
	c.RunFor(time.Duration(opts.scale(40, 15)) * time.Millisecond)
	st, ok := c.Compute(0).Stack.(*core.Stack)
	if !ok {
		panic("ablateAddr: not a solar stack")
	}
	return st.AdmissionWait, c
}
