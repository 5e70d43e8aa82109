package experiments

import (
	"fmt"
	"sort"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/sim/runtime"
	"lunasolar/internal/simnet"
)

// The diurnal campaign is the hybrid-fidelity showcase: a long background
// bulk-transfer campaign (compute pod → storage pod) that ramps up, holds
// a plateau, rides through one engineered incast wave and one spine
// reboot, and ramps back down. In packet fidelity every frame is
// simulated; in hybrid fidelity the quiescent phases fast-forward as fluid
// flows and only the disturbed windows (incast onset, the reboot spike)
// run packet by packet. The two modes must agree — exactly on drop and
// completion counts, and within a sliver on completion-time quantiles —
// which is what TestHybridDifferential checks.

// Fidelity is the simulation-fidelity mode of the diurnal campaign's raw
// fabrics.
type Fidelity int32

// The fidelity modes of the hybrid fast-forward plane.
const (
	// FidelityPacket simulates every frame end to end — the bit-exact
	// baseline every other mode is differenced against.
	FidelityPacket Fidelity = iota
	// FidelityHybrid fast-forwards quiescent bulk flows at fluid rates and
	// demotes back to packets on any disturbance signal.
	FidelityHybrid
)

// String names the mode the way ebsbench -fidelity spells it.
func (f Fidelity) String() string {
	switch f {
	case FidelityPacket:
		return "packet"
	case FidelityHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Fidelity(%d)", int32(f))
}

// ParseFidelity maps an ebsbench -fidelity value to a mode.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "packet":
		return FidelityPacket, nil
	case "hybrid":
		return FidelityHybrid, nil
	}
	return FidelityPacket, fmt.Errorf("unknown fidelity %q (want packet or hybrid)", s)
}

// diurnalPhases names the campaign's phases in schedule order.
var diurnalPhases = []string{"ramp", "plateau", "incast", "spike", "rampdown"}

// DiurnalPhase is one phase's merged measurement.
type DiurnalPhase struct {
	Name      string
	Started   int
	Completed int
	Fluid     int // completions delivered analytically
	P50us     float64
	P90us     float64
	P99us     float64
}

// DiurnalResult is the structured outcome of one campaign run (both
// shards merged), the unit the differential gate consumes.
type DiurnalResult struct {
	Fidelity  string
	Started   int
	Completed int
	Fluid     int
	Drops     uint64
	Events    uint64
	SimTime   time.Duration
	MBps      float64
	Phases    []DiurnalPhase
	Overall   DiurnalPhase

	Admitted  uint64 // transfers that ran (partly) fluid
	Demotions uint64 // flush-all events

	// Perf carries the fleet's throughput and leak counters for the runs
	// behind this result.
	Perf *runtime.Perf
}

// diurnalCell is one shard's raw outcome.
type diurnalCell struct {
	started   []int                      // per phase
	lats      map[string][]time.Duration // per phase, completion order
	fluid     map[string]int             // per phase, analytic completions
	bytes     int64
	drops     uint64
	events    uint64
	simTime   time.Duration
	admitted  uint64
	demotions uint64
}

// diurnalShard builds one shard's fabric and schedule and runs it to
// completion. Every transfer is scheduled upfront — including the spine
// reboot — so the engine's event heap never drains mid-campaign and the
// wave schedule is identical in both fidelity modes (it is drawn from an
// independent Rand, never the engine's).
func diurnalShard(opts Options, fid Fidelity, shard int) (diurnalCell, *sim.Engine, *simnet.Fabric) {
	eng := sim.NewEngine(opts.Seed + int64(shard)*7919)
	fab := simnet.New(eng, simnet.DefaultConfig())
	bulk := simnet.NewBulkService(fab)
	if fid == FidelityHybrid {
		fab.EnableFluid(simnet.DefaultFluidConfig())
	}
	r := sim.NewRand(opts.Seed*1000003 + int64(shard))

	cfg := fab.Config()
	nc := cfg.RacksPerPod * cfg.HostsPerRack // compute hosts in pod 0
	compute := func(i int) *simnet.Host { return fab.Host(0, 0, i/cfg.HostsPerRack, i%cfg.HostsPerRack) }
	storage := func(j int) *simnet.Host { return fab.Host(0, 1, j/cfg.HostsPerRack, j%cfg.HostsPerRack) }
	incastDst := storage(0)

	const (
		chunk     = 4096
		pace      = 5e9  // wire bits/sec per transfer
		inPace    = 13e9 // incast pace: two flows overload one 25G host link
		kib       = 1024
		maxPerDst = 2
	)
	cell := diurnalCell{
		lats:  map[string][]time.Duration{},
		fluid: map[string]int{},
	}
	phaseOf := map[uint64]string{}
	phaseIdx := map[string]int{}
	for i, p := range diurnalPhases {
		phaseIdx[p] = i
	}
	cell.started = make([]int, len(diurnalPhases))

	// wave schedules `count` transfers at time at: unique compute sources,
	// storage destinations capped at maxPerDst per wave (the incast dst is
	// reserved for the incast wave), sizes in [loKiB, hiKiB], start
	// staggered within 50µs.
	wave := func(phase string, at sim.Time, count, loKiB, hiKiB int, pbps float64) {
		srcs := r.Perm(nc)
		used := map[int]int{}
		for i := 0; i < count; i++ {
			dst := 0
			for {
				dst = 1 + r.Intn(nc-1)
				if used[dst] < maxPerDst {
					used[dst]++
					break
				}
			}
			size := int64(loKiB+r.Intn(hiKiB-loKiB+1)) * kib
			t0 := at.Add(time.Duration(r.Int63n(50_001))) // ≤50µs stagger
			id := bulk.Transfer(compute(srcs[i]), storage(dst), size, chunk, pbps, t0)
			phaseOf[id] = phase
			cell.started[phaseIdx[phase]]++
		}
	}

	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

	// Ramp: load climbs toward the plateau.
	rampWaves := opts.scale(4, 2)
	plateauCount := opts.scale(16, 8)
	for w := 0; w < rampWaves; w++ {
		at := sim.Time(ms(1 + 2*float64(w)))
		wave("ramp", at, (w+1)*plateauCount/(rampWaves+1)+1, 256, 512, pace)
	}
	// Plateau: steady waves every 2.5ms; each transfer outlives well under
	// the spacing, so waves do not pile up.
	plateauStart := ms(1 + 2*float64(rampWaves))
	plateauWaves := opts.scale(56, 10)
	for w := 0; w < plateauWaves; w++ {
		wave("plateau", sim.Time(plateauStart+ms(2.5*float64(w))), plateauCount, 512, 1024, pace)
	}
	// Incast: mid-plateau, three 13G senders converge on one dual-homed
	// storage host (2×25G). ECMP pins each flow to one of the two host
	// links, so by pigeonhole some link carries two flows — 26G into 25G —
	// and the max-min allocation turns infeasible at that admission,
	// demoting every fluid flow so the contention runs packet by packet.
	// Even the worst split (all three on one link: 14G overload over the
	// ~160µs send ≈ 280KB) stays under the 400KB port buffer: queues
	// build, nothing drops.
	incastAt := sim.Time(plateauStart + ms(2.5*float64(plateauWaves/2)+1))
	{
		srcs := r.Perm(nc)
		for i := 0; i < 3; i++ {
			t0 := incastAt.Add(time.Duration(i) * 10 * time.Microsecond)
			id := bulk.Transfer(compute(srcs[i]), incastDst, 256*kib, chunk, inPace, t0)
			phaseOf[id] = "incast"
			cell.started[phaseIdx["incast"]]++
		}
	}
	// Spike: after a 3ms drain gap, a storage-pod spine hangs for 1.5ms
	// and a burst wave launches into the outage. Roughly a quarter of the
	// burst hashes through the dead spine and is hang-dropped (DetectDelay
	// far exceeds the outage, so routing never reacts) — those transfers
	// never complete, identically in both fidelity modes.
	drainEnd := plateauStart + ms(2.5*float64(plateauWaves-1)) + ms(2) // last plateau wave fully sent
	spikeAt := sim.Time(drainEnd + ms(3))
	spine := fab.Spine(0, 1, 0)
	eng.At(spikeAt, func() { fab.RebootSwitch(spine, ms(1.5)) })
	wave("spike", spikeAt.Add(100*time.Microsecond), opts.scale(8, 4), 128, 128, pace)
	// Ramp-down: load decays after the spike. The first wave re-baselines
	// the fabric's queue high-water mark (it runs packet-level); later
	// waves re-promote to fluid — hybrid's recovery path.
	for w, count := 0, plateauCount/2; w < opts.scale(3, 2) && count > 0; w, count = w+1, count/2 {
		wave("rampdown", spikeAt.Add(ms(2.5)+ms(2*float64(w))), count, 256, 512, pace)
	}

	eng.Run()

	for _, c := range bulk.Completions() {
		ph := phaseOf[c.ID]
		cell.lats[ph] = append(cell.lats[ph], c.Lat)
		cell.bytes += c.Bytes
		if c.Fluid {
			cell.fluid[ph]++
		}
	}
	cell.drops = fab.TotalDrops()
	cell.events = eng.Processed()
	cell.simTime = eng.Now().Duration()
	if ft := fab.Fluid(); ft != nil {
		s := ft.Stats()
		cell.admitted = s.Admitted
		cell.demotions = s.Demotions
	}
	return cell, eng, fab
}

// quantileExact returns the nearest-rank q-quantile of lats (sorted copy;
// exact, unlike the bucketed histogram quantiles).
func quantileExact(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// diurnalCampaign runs the campaign (two shards, merged in shard order) at
// the given fidelity and returns the structured result.
func diurnalCampaign(opts Options, fid Fidelity) *DiurnalResult {
	const shards = 2
	fleet := opts.fleet()
	cells := runFabricCells(fleet, shards, func(shard int) (diurnalCell, *sim.Engine, *simnet.Fabric) {
		return diurnalShard(opts, fid, shard)
	})

	res := &DiurnalResult{Fidelity: fid.String(), Perf: &fleet.Perf}
	merged := map[string][]time.Duration{}
	var all []time.Duration
	var bytes int64
	var simTotal time.Duration
	for _, c := range cells {
		for i, p := range diurnalPhases {
			res.Started += c.started[i]
			merged[p] = append(merged[p], c.lats[p]...)
		}
		bytes += c.bytes
		res.Drops += c.drops
		res.Events += c.events
		res.Admitted += c.admitted
		res.Demotions += c.demotions
		simTotal += c.simTime
		if c.simTime > res.SimTime {
			res.SimTime = c.simTime
		}
	}
	for i, p := range diurnalPhases {
		lats := merged[p]
		fluid := 0
		started := 0
		for _, c := range cells {
			fluid += c.fluid[p]
			started += c.started[i]
		}
		res.Phases = append(res.Phases, DiurnalPhase{
			Name: p, Started: started, Completed: len(lats), Fluid: fluid,
			P50us: float64(quantileExact(lats, 0.50).Nanoseconds()) / 1e3,
			P90us: float64(quantileExact(lats, 0.90).Nanoseconds()) / 1e3,
			P99us: float64(quantileExact(lats, 0.99).Nanoseconds()) / 1e3,
		})
		all = append(all, lats...)
		res.Completed += len(lats)
		res.Fluid += fluid
	}
	res.Overall = DiurnalPhase{
		Name: "overall", Started: res.Started, Completed: len(all), Fluid: res.Fluid,
		P50us: float64(quantileExact(all, 0.50).Nanoseconds()) / 1e3,
		P90us: float64(quantileExact(all, 0.90).Nanoseconds()) / 1e3,
		P99us: float64(quantileExact(all, 0.99).Nanoseconds()) / 1e3,
	}
	if simTotal > 0 {
		res.MBps = float64(bytes) / simTotal.Seconds() / 1e6
	}
	return res
}

// Diurnal is the ebsbench entry point: it renders the campaign at
// Options.Fidelity as a per-phase table.
func Diurnal(opts Options) *Table {
	res := diurnalCampaign(opts, opts.Fidelity)
	t := &Table{
		Title:   fmt.Sprintf("Diurnal bulk campaign (fidelity=%s): ramp → plateau → incast → spine reboot → ramp-down", res.Fidelity),
		Columns: []string{"phase", "started", "completed", "fluid", "p50(µs)", "p90(µs)", "p99(µs)"},
		Perf:    res.Perf,
	}
	row := func(p DiurnalPhase) []string {
		return []string{p.Name, fmt.Sprintf("%d", p.Started), fmt.Sprintf("%d", p.Completed),
			fmt.Sprintf("%d", p.Fluid), f1(p.P50us), f1(p.P90us), f1(p.P99us)}
	}
	for _, p := range res.Phases {
		t.Rows = append(t.Rows, row(p))
	}
	t.Rows = append(t.Rows, row(res.Overall))
	t.Notes = append(t.Notes,
		fmt.Sprintf("aggregate goodput %.1f MB/s; drops %d (spine-reboot hang drops; missing completions are their lost fins)", res.MBps, res.Drops))
	if res.Fidelity == "hybrid" {
		t.Notes = append(t.Notes,
			fmt.Sprintf("fluid: %d transfers admitted, %d completed analytically, %d demotion flushes", res.Admitted, res.Fluid, res.Demotions))
	}
	return t
}
