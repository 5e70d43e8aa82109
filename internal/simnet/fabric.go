package simnet

import (
	"fmt"
	"time"

	"lunasolar/internal/sim"
)

// Config sizes and parameterizes a fabric. The defaults model the paper's
// environment: 2×25GE hosts dual-homed to a ToR pair, a two-layer Clos per
// pod, a DC core layer, and DC routers for the region, with shallow-buffer
// switches ("shallow buffer switches are used within the region to save
// cost", §3.1).
type Config struct {
	DCs          int // datacenters in the region
	PodsPerDC    int
	RacksPerPod  int // one ToR pair per rack
	HostsPerRack int
	SpinesPerPod int
	CoresPerDC   int
	DCRouters    int // 0 disables the region tier

	HostLinkBps   float64 // per host NIC port
	FabricLinkBps float64 // switch-to-switch

	PropDelay     time.Duration // per intra-DC link
	InterDCDelay  time.Duration // core↔DCR links
	SwitchLatency time.Duration // pipeline latency per switch

	BufferBytes       int // per egress port (shallow)
	ECNThresholdBytes int

	// DetectDelay is how long routing neighbours take to exclude a hung
	// switch from ECMP groups. Hosts never detect hangs (no link signal).
	DetectDelay time.Duration
}

// DefaultConfig returns the baseline fabric used across the experiments.
func DefaultConfig() Config {
	return Config{
		DCs:               1,
		PodsPerDC:         2, // compute pod + storage pod
		RacksPerPod:       4,
		HostsPerRack:      4,
		SpinesPerPod:      4,
		CoresPerDC:        4,
		DCRouters:         0,
		HostLinkBps:       25e9,
		FabricLinkBps:     100e9,
		PropDelay:         200 * time.Nanosecond,
		InterDCDelay:      5 * time.Microsecond,
		SwitchLatency:     400 * time.Nanosecond,
		BufferBytes:       400 << 10, // shallow: 400 KiB per port
		ECNThresholdBytes: 100 << 10,
		DetectDelay:       200 * time.Millisecond,
	}
}

// Fabric is a built topology: hosts, switches, links, routing, and the
// failure-injection surface. A fabric spans one or more partitions (see
// partition.go); serial fabrics are simply the one-partition case, so the
// two construction paths share every invariant.
//
//lint:spanning
type Fabric struct {
	Eng *sim.Engine // partition 0's engine; the only engine of serial fabrics
	cfg Config

	parts []*fabricPart

	hosts    map[uint32]*Host
	hostList []*Host
	tors     []*Switch
	spines   []*Switch
	cores    []*Switch
	dcrs     []*Switch
	byName   map[string]*Switch

	hopSeq   uint16
	cutPorts []*Port
}

// Pool returns partition 0's engine-owned packet pool — the whole fabric's
// pool for serial fabrics. Partitioned callers sum the partitions with
// OutstandingAll.
func (f *Fabric) Pool() *PacketPool { return &f.parts[0].pool }

// New builds the fabric described by cfg on a single engine.
func New(eng *sim.Engine, cfg Config) *Fabric {
	return build([]*sim.Engine{eng}, cfg, PlanPartitions(cfg, 1))
}

// build wires engines, partitions, ports and pools before any window has
// run — every partition is still quiescent, so it may touch them all.
//
//lint:barrier — construction time: no window has started yet
func build(engs []*sim.Engine, cfg Config, plan *PartPlan) *Fabric {
	if cfg.DCs < 1 || cfg.PodsPerDC < 1 || cfg.RacksPerPod < 1 || cfg.HostsPerRack < 1 {
		panic("simnet: topology dimensions must be >= 1")
	}
	f := &Fabric{
		Eng:    engs[0],
		cfg:    cfg,
		hosts:  map[uint32]*Host{},
		byName: map[string]*Switch{},
	}
	for i, eng := range engs {
		ps := &fabricPart{
			idx:   i,
			fab:   f,
			eng:   eng,
			rand:  eng.Rand.Fork(),
			drops: map[string]uint64{},

			freeXfer: sim.NewPool[linkXfer](eng),
			freeFwd:  sim.NewPool[swFwd](eng),
			freeMsg:  sim.NewPool[crossMsg](eng),
		}
		ps.inbox.part = ps
		f.parts = append(f.parts, ps)
	}
	// Build-time randomness (switch salts) always draws from partition 0's
	// stream, so a one-partition fabric consumes engine randomness exactly
	// like the pre-partitioning serial build did.
	salt := func() uint32 { return f.parts[0].rand.Uint32() }

	buf, ecn := cfg.BufferBytes, cfg.ECNThresholdBytes

	// DC routers (region tier).
	for i := 0; i < cfg.DCRouters; i++ {
		s := newSwitch(f, f.parts[plan.DCRPart(i)], fmt.Sprintf("dcr%d", i), TierDCR, cfg.SwitchLatency, salt())
		f.dcrs = append(f.dcrs, s)
		f.byName[s.name] = s
	}

	for dc := 0; dc < cfg.DCs; dc++ {
		// Cores of this DC.
		var dcCores []*Switch
		for c := 0; c < cfg.CoresPerDC; c++ {
			s := newSwitch(f, f.parts[plan.CorePart(dc, c)], fmt.Sprintf("core-d%d-%d", dc, c), TierCore, cfg.SwitchLatency, salt())
			f.cores = append(f.cores, s)
			f.byName[s.name] = s
			dcCores = append(dcCores, s)
			// Core ↔ every DCR.
			for _, dcr := range f.dcrs {
				pc, pd := connect(f, s, dcr, cfg.FabricLinkBps, cfg.InterDCDelay, buf, ecn)
				s.ports = append(s.ports, pc)
				dcr.ports = append(dcr.ports, pd)
				s.defaultUp = addPort(s.defaultUp, pc)
				key := dcKey(Addr(dc, 0, 0, 0))
				dcr.dcRoutes[key] = addPort(dcr.dcRoutes[key], pd)
			}
		}

		for pod := 0; pod < cfg.PodsPerDC; pod++ {
			// Spines of this pod.
			var podSpines []*Switch
			for sp := 0; sp < cfg.SpinesPerPod; sp++ {
				s := newSwitch(f, f.parts[plan.SpinePart(dc, pod, sp)], fmt.Sprintf("spine-d%dp%d-%d", dc, pod, sp), TierSpine, cfg.SwitchLatency, salt())
				f.spines = append(f.spines, s)
				f.byName[s.name] = s
				podSpines = append(podSpines, s)
				// Spine ↔ every core in the DC.
				for _, core := range dcCores {
					ps, pc := connect(f, s, core, cfg.FabricLinkBps, cfg.PropDelay, buf, ecn)
					s.ports = append(s.ports, ps)
					core.ports = append(core.ports, pc)
					s.defaultUp = addPort(s.defaultUp, ps)
					key := podKey(Addr(dc, pod, 0, 0))
					core.podRoutes[key] = addPort(core.podRoutes[key], pc)
				}
			}

			for rack := 0; rack < cfg.RacksPerPod; rack++ {
				rackPart := f.parts[plan.RackPart(dc, pod, rack)]
				// The ToR pair.
				pair := make([]*Switch, 2)
				for t := 0; t < 2; t++ {
					s := newSwitch(f, rackPart, fmt.Sprintf("tor-d%dp%dr%d-%c", dc, pod, rack, 'a'+t), TierToR, cfg.SwitchLatency, salt())
					f.tors = append(f.tors, s)
					f.byName[s.name] = s
					pair[t] = s
					// ToR ↔ every spine in the pod.
					for _, spine := range podSpines {
						pt, ps := connect(f, s, spine, cfg.FabricLinkBps, cfg.PropDelay, buf, ecn)
						s.ports = append(s.ports, pt)
						spine.ports = append(spine.ports, ps)
						s.defaultUp = addPort(s.defaultUp, pt)
						key := rackKey(Addr(dc, pod, rack, 0))
						spine.rackRoutes[key] = addPort(spine.rackRoutes[key], ps)
					}
				}

				for hi := 0; hi < cfg.HostsPerRack; hi++ {
					addr := Addr(dc, pod, rack, hi)
					h := &Host{
						fab:  f,
						part: rackPart,
						addr: addr,
						name: fmt.Sprintf("host-d%dp%dr%dh%d", dc, pod, rack, hi),
					}
					// Dual-homed: one port to each ToR of the pair; hosts
					// share their rack's partition, so these links never cut.
					for _, tor := range pair {
						ph, pt := connect(f, h, tor, cfg.HostLinkBps, cfg.PropDelay, buf, ecn)
						h.ports = append(h.ports, ph)
						tor.ports = append(tor.ports, pt)
						tor.hostRoutes[addr] = addPort(tor.hostRoutes[addr], pt)
					}
					f.hosts[addr] = h
					f.hostList = append(f.hostList, h)
				}
			}
		}
	}
	f.PublishCutState()
	return f
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Host returns the host at the given coordinates.
func (f *Fabric) Host(dc, pod, rack, host int) *Host {
	h := f.hosts[Addr(dc, pod, rack, host)]
	if h == nil {
		panic(fmt.Sprintf("simnet: no host at dc=%d pod=%d rack=%d host=%d", dc, pod, rack, host))
	}
	return h
}

// Hosts returns all hosts in build order.
func (f *Fabric) Hosts() []*Host { return f.hostList }

// ToR returns one switch of a rack's ToR pair (idx 0 or 1).
func (f *Fabric) ToR(dc, pod, rack, idx int) *Switch {
	return f.byName[fmt.Sprintf("tor-d%dp%dr%d-%c", dc, pod, rack, 'a'+idx)]
}

// Spine returns a pod spine.
func (f *Fabric) Spine(dc, pod, idx int) *Switch {
	return f.byName[fmt.Sprintf("spine-d%dp%d-%d", dc, pod, idx)]
}

// Core returns a DC core switch.
func (f *Fabric) Core(dc, idx int) *Switch {
	return f.byName[fmt.Sprintf("core-d%d-%d", dc, idx)]
}

// DCR returns a region DC-router.
func (f *Fabric) DCR(idx int) *Switch { return f.dcrs[idx] }

// Switches returns every switch grouped by tier order: ToRs, spines,
// cores, DCRs.
func (f *Fabric) Switches() []*Switch {
	out := make([]*Switch, 0, len(f.tors)+len(f.spines)+len(f.cores)+len(f.dcrs))
	out = append(out, f.tors...)
	out = append(out, f.spines...)
	out = append(out, f.cores...)
	out = append(out, f.dcrs...)
	return out
}

// RebootSwitch hangs sw now and repairs it after d. The repair is
// scheduled on the switch's owning engine, so failure injection composes
// with partitioned fabrics (callers already running on that engine, or at
// setup time before any window starts).
func (f *Fabric) RebootSwitch(sw *Switch, d time.Duration) {
	sw.Fail()
	sw.part.eng.Schedule(d, func() { sw.Repair() })
}

// FailLink takes both ends of the link attached to p down (link-down
// signal at both endpoints).
func (f *Fabric) FailLink(p *Port) {
	p.SetUp(false)
	if p.peer != nil {
		p.peer.SetUp(false)
	}
}

// RepairLink restores both ends.
func (f *Fabric) RepairLink(p *Port) {
	p.SetUp(true)
	if p.peer != nil {
		p.peer.SetUp(true)
	}
}

// Drops returns the drop counters by reason, merged across partitions in
// partition order.
func (f *Fabric) Drops() map[string]uint64 {
	out := make(map[string]uint64)
	for _, ps := range f.parts {
		for k, v := range ps.drops {
			out[k] += v
		}
	}
	return out
}

// TotalDrops sums all drop counters across partitions.
func (f *Fabric) TotalDrops() uint64 {
	var n uint64
	for _, ps := range f.parts {
		for _, v := range ps.drops {
			n += v
		}
	}
	return n
}
