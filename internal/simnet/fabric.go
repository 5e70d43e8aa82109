package simnet

import (
	"fmt"
	"maps"
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

	HostLinkBps float64 // per host NIC port

	BufferBytes       int // per egress port (shallow)
	ECNThresholdBytes int
}

// FabricLinkBps is the switch-to-switch link rate.
const FabricLinkBps float64 = 100e9

// Link and switch latencies.
const (
	propDelay     time.Duration = 200 * time.Nanosecond // per intra-DC link
	interDCDelay  time.Duration = 5 * time.Microsecond  // core↔DCR links
	switchLatency time.Duration = 400 * time.Nanosecond // pipeline latency per switch
)

// DetectDelay is how long routing neighbours take to exclude a hung switch
// from ECMP groups. Hosts never detect hangs (no link signal).
const DetectDelay time.Duration = 200 * time.Millisecond

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
		BufferBytes:       400 << 10, // shallow: 400 KiB per port
		ECNThresholdBytes: 100 << 10,
	}
}

// MaxDim is the largest topology dimension Addr can tell apart: it packs
// each 1-based component into one byte.
const MaxDim = 255

// CheckDims reports, by field name, the first address dimension (DCs,
// PodsPerDC, RacksPerPod, HostsPerRack) outside [1, MaxDim].
func (c Config) CheckDims() error {
	for _, d := range []struct {
		name string
		v    int
	}{{"DCs", c.DCs}, {"PodsPerDC", c.PodsPerDC}, {"RacksPerPod", c.RacksPerPod}, {"HostsPerRack", c.HostsPerRack}} {
		if d.v < 1 || d.v > MaxDim {
			return fmt.Errorf("%s must be in [1, %d], got %d", d.name, MaxDim, d.v)
		}
	}
	return nil
}

// Fabric is a built topology: hosts, switches, links, routing, and the
// failure-injection surface. Everything a packet's hot path touches — the
// packet pool, the transit free lists, the drop counters and the drop
// randomness — lives here, owned by the fabric's engine.
type Fabric struct {
	Eng  *sim.Engine
	cfg  Config
	rand *sim.Rand

	drops map[string]uint64

	pool     PacketPool
	freeXfer *sim.Pool[linkXfer]
	freeFwd  *sim.Pool[swFwd]

	hosts    map[uint32]*Host
	hostList []*Host
	tors     []*Switch
	spines   []*Switch
	cores    []*Switch
	dcrs     []*Switch
	byName   map[string]*Switch

	hopSeq uint16

	// epoch counts link and switch state changes (Port.SetUp, Switch.Fail,
	// Switch.Repair); an ECMP group whose cached members were built at
	// another epoch rebuilds them. It starts at 1, so a new group is stale.
	epoch uint64
}

// Pool returns the fabric's engine-owned packet pool.
func (f *Fabric) Pool() *PacketPool { return &f.pool }

func (f *Fabric) countDrop(reason string) { f.drops[reason]++ }

// New builds the fabric described by cfg on eng.
func New(eng *sim.Engine, cfg Config) *Fabric {
	if err := cfg.CheckDims(); err != nil {
		panic("simnet: " + err.Error())
	}
	f := &Fabric{
		Eng:      eng,
		cfg:      cfg,
		rand:     eng.Rand.Fork(),
		drops:    map[string]uint64{},
		freeXfer: sim.NewPool[linkXfer](eng),
		freeFwd:  sim.NewPool[swFwd](eng),
		hosts:    map[uint32]*Host{},
		byName:   map[string]*Switch{},
		epoch:    1,
	}
	// Switch salts draw from the fabric's forked stream, in build order.
	buf, ecn := cfg.BufferBytes, cfg.ECNThresholdBytes

	// DC routers (region tier).
	for i := 0; i < cfg.DCRouters; i++ {
		s := newSwitch(f, fmt.Sprintf("dcr%d", i), TierDCR, switchLatency, f.rand.Uint32())
		f.dcrs = append(f.dcrs, s)
		f.byName[s.name] = s
	}

	for dc := 0; dc < cfg.DCs; dc++ {
		// Cores of this DC.
		var dcCores []*Switch
		for c := 0; c < cfg.CoresPerDC; c++ {
			s := newSwitch(f, fmt.Sprintf("core-d%d-%d", dc, c), TierCore, switchLatency, f.rand.Uint32())
			f.cores = append(f.cores, s)
			f.byName[s.name] = s
			dcCores = append(dcCores, s)
			// Core ↔ every DCR.
			for _, dcr := range f.dcrs {
				pc, pd := connect(f, s, dcr, FabricLinkBps, interDCDelay, buf, ecn)
				s.ports = append(s.ports, pc)
				dcr.ports = append(dcr.ports, pd)
				s.defaultUp = addPort(s.defaultUp, pc)
				dcr.addDown(Addr(dc, 0, 0, 0), pd)
			}
		}

		for pod := 0; pod < cfg.PodsPerDC; pod++ {
			// Spines of this pod.
			var podSpines []*Switch
			for sp := 0; sp < cfg.SpinesPerPod; sp++ {
				s := newSwitch(f, fmt.Sprintf("spine-d%dp%d-%d", dc, pod, sp), TierSpine, switchLatency, f.rand.Uint32())
				f.spines = append(f.spines, s)
				f.byName[s.name] = s
				podSpines = append(podSpines, s)
				// Spine ↔ every core in the DC.
				for _, core := range dcCores {
					ps, pc := connect(f, s, core, FabricLinkBps, propDelay, buf, ecn)
					s.ports = append(s.ports, ps)
					core.ports = append(core.ports, pc)
					s.defaultUp = addPort(s.defaultUp, ps)
					core.addDown(Addr(dc, pod, 0, 0), pc)
				}
			}

			for rack := 0; rack < cfg.RacksPerPod; rack++ {
				// The ToR pair.
				pair := make([]*Switch, 2)
				for t := 0; t < 2; t++ {
					s := newSwitch(f, fmt.Sprintf("tor-d%dp%dr%d-%c", dc, pod, rack, 'a'+t), TierToR, switchLatency, f.rand.Uint32())
					f.tors = append(f.tors, s)
					f.byName[s.name] = s
					pair[t] = s
					// ToR ↔ every spine in the pod.
					for _, spine := range podSpines {
						pt, ps := connect(f, s, spine, FabricLinkBps, propDelay, buf, ecn)
						s.ports = append(s.ports, pt)
						spine.ports = append(spine.ports, ps)
						s.defaultUp = addPort(s.defaultUp, pt)
						spine.addDown(Addr(dc, pod, rack, 0), ps)
					}
				}

				for hi := 0; hi < cfg.HostsPerRack; hi++ {
					addr := Addr(dc, pod, rack, hi)
					h := &Host{fab: f, addr: addr}
					// Dual-homed: one port to each ToR of the pair.
					for _, tor := range pair {
						ph, pt := connect(f, h, tor, cfg.HostLinkBps, propDelay, buf, ecn)
						h.ports = append(h.ports, ph)
						tor.ports = append(tor.ports, pt)
						tor.addDown(addr, pt)
					}
					f.hosts[addr] = h
					f.hostList = append(f.hostList, h)
				}
			}
		}
	}
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

// RebootSwitch hangs sw now and repairs it after d.
func (f *Fabric) RebootSwitch(sw *Switch, d time.Duration) {
	sw.Fail()
	f.Eng.Schedule(d, func() { sw.Repair() })
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

// Drops returns a copy of the drop counters by reason.
func (f *Fabric) Drops() map[string]uint64 { return maps.Clone(f.drops) }

// TotalDrops sums all drop counters.
func (f *Fabric) TotalDrops() uint64 {
	var n uint64
	for _, v := range f.drops {
		n += v
	}
	return n
}
