package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
	"lunasolar/internal/workload"
)

// table2Scenario is one failure row.
type table2Scenario struct {
	name   string
	inject func(c *ebs.Cluster)
}

func table2Scenarios() []table2Scenario {
	return []table2Scenario{
		{"ToR switch port failure", func(c *ebs.Cluster) {
			c.Fabric.FailLink(c.Compute(0).Host.Ports()[0])
		}},
		{"ToR switch failure", func(c *ebs.Cluster) {
			c.Fabric.ToR(0, 0, 0, 0).Fail() // hang: links stay up
		}},
		{"Spine switch failure", func(c *ebs.Cluster) {
			c.Fabric.Spine(0, 0, 0).Fail()
		}},
		{"Packet drop rate=75%", func(c *ebs.Cluster) {
			c.Fabric.Spine(0, 0, 0).SetDropRate(0.75)
		}},
		{"ToR switch reboot/isolation", func(c *ebs.Cluster) {
			c.Fabric.RebootSwitch(c.Fabric.ToR(0, 0, 0, 0), 10*time.Second)
		}},
		{"Blackhole in a ToR switch", func(c *ebs.Cluster) {
			c.Fabric.ToR(0, 0, 0, 0).SetBlackhole(0.25, 4242)
			c.Fabric.ToR(0, 0, 0, 1).SetBlackhole(0.25, 4242)
		}},
		{"Blackhole in a Spine switch", func(c *ebs.Cluster) {
			c.Fabric.Spine(0, 0, 0).SetBlackhole(0.25, 2424)
			c.Fabric.Spine(0, 0, 1).SetBlackhole(0.25, 2424)
		}},
	}
}

// table2Cell runs one Table 2 cell on c: traffic on vds (depth 4 per disk,
// 2 ms think, 4–32 KiB blocks, R:W 1:4), a healthy warmup, the failure, then
// window. It returns the I/Os that hung, unanswered ones included.
func table2Cell(c *ebs.Cluster, vds []*ebs.VDisk, sc table2Scenario, window time.Duration) int {
	drv := workload.NewDriver(c.Eng)
	r := sim.NewRand(c.Config().Seed + 555)
	sizes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10}
	for _, vd := range vds {
		drv.Closed(vd.ID, vd, 4, 2*time.Millisecond, func(int, int) (bool, uint64, int, bool) {
			size := sizes[r.Intn(len(sizes))]
			lba := uint64(r.Int63n(int64(vd.Size()-uint64(size)))) &^ 4095
			return !r.Bernoulli(0.2), lba, size, true
		}, nil)
	}
	c.RunFor(200 * time.Millisecond) // healthy warmup
	sc.inject(c)
	c.RunFor(window)
	return drv.Hangs()
}

// Table2 regenerates the failure-scenario table: I/Os with no response for
// one second or longer, Luna vs Solar, across seven network failure
// scenarios.
func Table2(opts Options) *Table {
	t := &Table{
		Title:   "Table 2: I/Os with no response >= 1s under failure scenarios",
		Columns: []string{"failure scenario", "LUNA", "SOLAR"},
	}
	window := time.Duration(opts.scale(3000, 1500)) * time.Millisecond
	paper := []string{"0", "216", "0", "10/s", "123", "611", "1043"}
	scenarios := table2Scenarios()
	stacks := []ebs.StackKind{ebs.Luna, ebs.Solar}

	// One shard per (scenario, stack) cell: every cell owns its cluster, so
	// all fourteen run concurrently and merge in scenario order.
	type cellOut struct {
		slow string
		reg  *stats.Registry
	}
	fleet := opts.fleet()
	cells := runCells(fleet, len(scenarios)*len(stacks), func(shard int) (cellOut, *ebs.Cluster) {
		sc := scenarios[shard/len(stacks)]
		fn := stacks[shard%len(stacks)]
		c := ebs.New(clusterConfig(opts, fn))
		var vds []*ebs.VDisk
		for ci := 0; ci < c.Computes(); ci++ {
			vds = append(vds, c.MustProvision(ci, 128<<20, ebs.DefaultQoS()))
		}
		out := cellOut{slow: fmt.Sprintf("%d", table2Cell(c, vds, sc, window)), reg: stats.NewRegistry()}
		c.ExportMetrics(out.reg, "")
		return out, c
	})
	for i, sc := range scenarios {
		t.Rows = append(t.Rows, []string{
			sc.name + " (paper LUNA " + paper[i] + ", SOLAR 0)",
			cells[i*len(stacks)].slow, cells[i*len(stacks)+1].slow,
		})
	}
	t.Telemetry = stats.NewRegistry()
	for shard, cell := range cells {
		t.Telemetry.Merge(cell.reg,
			fmt.Sprintf("table2/s%d/%s/", shard/len(stacks), stacks[shard%len(stacks)]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("testbed: 8 compute + 8 storage servers, depth 4, 4-32K blocks, R:W 1:4, %v failure window (paper: 90+82 servers)", window))
	t.Perf = &fleet.Perf
	return t
}

// fig8Tier describes one failure location for the Fig. 8 campaign.
type fig8Tier struct {
	name   string
	weight float64
	domain int // hosts in the blast domain at fleet scale
	inject func(c *ebs.Cluster, r *sim.Rand)
}

func fig8Tiers() []fig8Tier {
	// ToR incidents are hangs (links up, no signal). Incidents at the
	// spine tier and above are partial failures — a failing linecard
	// blackholing a subset of flows, like the §3.3 production incident —
	// which routing cannot detect; only manual operations (minutes to
	// hours) end them.
	return []fig8Tier{
		{"ToR", 0.40, 48, func(c *ebs.Cluster, r *sim.Rand) {
			c.Fabric.ToR(0, 0, int(r.Int31n(2)), int(r.Int31n(2))).Fail()
		}},
		{"Spine", 0.30, 1536, func(c *ebs.Cluster, r *sim.Rand) {
			c.Fabric.Spine(0, 0, int(r.Int31n(2))).SetBlackhole(0.3, r.Uint32())
		}},
		{"Core", 0.20, 12288, func(c *ebs.Cluster, r *sim.Rand) {
			c.Fabric.Core(0, int(r.Int31n(2))).SetBlackhole(0.3, r.Uint32())
		}},
		{"DC Router", 0.10, 49152, func(c *ebs.Cluster, r *sim.Rand) {
			c.Fabric.DCR(int(r.Int31n(2))).SetBlackhole(0.3, r.Uint32())
		}},
	}
}

// Fig8 regenerates the I/O-hang scatter of the Luna era: ~100 injected
// network failures across the four fabric tiers, with the count of
// affected VMs (extrapolated from the measured affected fraction to the
// tier's fleet-scale blast domain) against the incident duration.
func Fig8(opts Options) *Table {
	incidents := opts.scale(60, 10)
	r := sim.NewRand(opts.Seed + 8)
	tiers := fig8Tiers()

	t := &Table{
		Title:   "Figure 8: I/O hangs caused by network failures (Luna era, per incident)",
		Columns: []string{"incident", "location", "duration (min)", "affected VMs"},
	}

	// Draw every incident's parameters up front from the shared stream, so
	// the campaign is identical however many workers simulate it; each shard
	// then derives all run-time randomness from its own seed.
	type incident struct {
		tier        fig8Tier
		durationMin int
		seed        int64
	}
	draws := make([]incident, incidents)
	for inc := range draws {
		u := r.Float64()
		cum := 0.0
		tier := tiers[0]
		for _, ti := range tiers {
			cum += ti.weight
			if u <= cum {
				tier = ti
				break
			}
		}
		draws[inc] = incident{tier: tier, durationMin: 1 + r.Intn(100), seed: r.Int63()}
	}

	fleet := opts.fleet()
	rows := runCells(fleet, incidents, func(inc int) ([]string, *ebs.Cluster) {
		tier := draws[inc].tier
		rr := sim.NewRand(draws[inc].seed)

		cfg := clusterConfig(opts, ebs.Luna)
		cfg.Seed = opts.Seed + int64(inc)
		cfg.Fabric.DCs = 2
		cfg.Fabric.DCRouters = 2
		cfg.Fabric.PodsPerDC = 1
		cfg.CrossDC = true
		c := ebs.New(cfg)
		// One 4 KiB writer per compute server; a client is affected if one of
		// its writes hung (completed, or still unanswered, past the threshold).
		clients := make([]*workload.Driver, c.Computes())
		for ci := range clients {
			vd := c.MustProvision(ci, 64<<20, ebs.DefaultQoS())
			clients[ci] = workload.NewDriver(c.Eng)
			clients[ci].Closed(vd.ID, vd, 1, 2*time.Millisecond, func(int, int) (bool, uint64, int, bool) {
				return true, uint64(rr.Int63n(int64(vd.Size()-4096))) &^ 4095, 4096, true
			}, nil)
		}

		c.RunFor(100 * time.Millisecond)
		tier.inject(c, rr)
		c.RunFor(time.Duration(opts.scale(2000, 1400)) * time.Millisecond)
		affectedClients := 0
		for _, cl := range clients {
			if cl.Hangs() > 0 {
				affectedClients++
			}
		}
		frac := float64(affectedClients) / float64(len(clients))
		affectedVMs := int(frac * float64(tier.domain) * 8) // ~8 VMs/host
		return []string{
			fmt.Sprintf("%d", inc+1), tier.name,
			fmt.Sprintf("%d", draws[inc].durationMin), fmt.Sprintf("%d", affectedVMs),
		}, c
	})
	t.Rows = rows
	t.Perf = &fleet.Perf
	t.Notes = append(t.Notes,
		"affected VMs extrapolate the measured affected fraction to the tier's fleet blast domain (48/1.5K/12K/49K hosts, 8 VMs each)",
		"paper: higher tiers strand one to four orders of magnitude more VMs; duration set by manual network operations")
	return t
}
