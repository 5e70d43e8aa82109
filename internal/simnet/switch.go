package simnet

import (
	"time"

	"lunasolar/internal/sim"
)

// Tier identifies a switch's position in the fabric.
type Tier int

// Fabric tiers, bottom up.
const (
	TierToR Tier = iota
	TierSpine
	TierCore
	TierDCR
)

func (t Tier) String() string {
	switch t {
	case TierToR:
		return "tor"
	case TierSpine:
		return "spine"
	case TierCore:
		return "core"
	case TierDCR:
		return "dcr"
	}
	return "?"
}

// ecmpGroup is a set of candidate egress ports for a destination prefix.
type ecmpGroup struct {
	ports []*Port
}

// Switch is a store-and-forward fabric switch with prefix routing and
// consistent-hash ECMP. Failure modes:
//
//   - Hang (Fail): the switch silently stops forwarding while its links stay
//     electrically up. Routing neighbours exclude it after DetectDelay;
//     hosts (which have no routing protocol) never do.
//   - Port failure (FailPort): link-down signal, excluded immediately by
//     both ends.
//   - DropRate: uniform random loss on transiting packets.
//   - Blackhole: a hash-selected fraction of flows is silently dropped —
//     invisible to any fabric-level detection, escapable only by endpoint
//     path change.
type Switch struct {
	fab  *Fabric
	part *fabricPart
	name string
	tier Tier
	salt uint32

	latency time.Duration
	ports   []*Port

	hostRoutes map[uint32]*ecmpGroup // /32, ToR only
	rackRoutes map[uint32]*ecmpGroup // dc|pod|rack
	podRoutes  map[uint32]*ecmpGroup // dc|pod
	dcRoutes   map[uint32]*ecmpGroup // dc, DCR only
	defaultUp  *ecmpGroup            // toward the higher tier

	alive  bool
	downAt sim.Time

	dropRate      float64
	blackholeFrac float64
	blackholeSalt uint32

	// Drop-reason keys are precomputed so the forwarding path never
	// concatenates strings, even when dropping (hotalloc-enforced).
	dropHang, dropRand, dropBH, dropNoRoute string

	rx, forwarded, dropped uint64
}

func newSwitch(f *Fabric, part *fabricPart, name string, tier Tier, latency time.Duration, salt uint32) *Switch {
	return &Switch{
		fab:         f,
		part:        part,
		name:        name,
		tier:        tier,
		salt:        salt,
		latency:     latency,
		hostRoutes:  map[uint32]*ecmpGroup{},
		rackRoutes:  map[uint32]*ecmpGroup{},
		podRoutes:   map[uint32]*ecmpGroup{},
		dcRoutes:    map[uint32]*ecmpGroup{},
		alive:       true,
		dropHang:    "hang:" + name,
		dropRand:    "rand:" + name,
		dropBH:      "blackhole:" + name,
		dropNoRoute: "noroute:" + name,
	}
}

// Name returns the switch's diagnostic name.
func (s *Switch) Name() string { return s.name }

func (s *Switch) nodeName() string { return s.name }

// Tier returns the switch's fabric tier.
func (s *Switch) Tier() Tier { return s.tier }

// Alive reports whether the switch is forwarding.
func (s *Switch) Alive() bool { return s.alive }

// Engine returns the engine owning the switch's partition. Failure
// injection against a partitioned fabric must schedule on it.
func (s *Switch) Engine() *sim.Engine { return s.part.eng }

// PartIndex returns the index of the partition owning the switch.
func (s *Switch) PartIndex() int { return s.part.idx }

func (s *Switch) partRef() *fabricPart { return s.part }

// Fail hangs the switch: it stops forwarding but its links stay up.
// Hanging is a fluid fidelity trigger: paths through this switch are now
// lossy, so analytic flows must demote.
func (s *Switch) Fail() {
	if s.alive {
		s.alive = false
		s.downAt = s.part.eng.Now()
		s.part.noteFluid(TriggerFailover)
	}
}

// Repair brings a failed switch back. The capacity change is itself a
// fluid fidelity trigger (and re-arms the hold-off), so flows observe the
// restored topology at packet fidelity first.
func (s *Switch) Repair() {
	//lint:allow floateq — edge-detect against the exact zero these fields are assigned; never derived from arithmetic
	if !s.alive || s.dropRate != 0 || s.blackholeFrac != 0 {
		s.part.noteFluid(TriggerFailover)
	}
	s.alive = true
	s.dropRate = 0
	s.blackholeFrac = 0
}

// SetDropRate makes the switch drop transiting packets with probability p.
func (s *Switch) SetDropRate(p float64) {
	//lint:allow floateq — edge-detect against the exact zero dropRate is assigned; never derived from arithmetic
	if p > 0 && s.dropRate == 0 {
		s.part.noteFluid(TriggerLoss)
	}
	s.dropRate = p
}

// SetBlackhole silently drops the given fraction of flows (selected by
// hash), modelling a corrupted forwarding entry or failing linecard.
func (s *Switch) SetBlackhole(frac float64, salt uint32) {
	//lint:allow floateq — edge-detect against the exact zero blackholeFrac is assigned; never derived from arithmetic
	if frac > 0 && s.blackholeFrac == 0 {
		s.part.noteFluid(TriggerLoss)
	}
	s.blackholeFrac = frac
	s.blackholeSalt = salt
}

// Ports exposes the switch's ports.
func (s *Switch) Ports() []*Port { return s.ports }

// Forwarded returns packets successfully enqueued toward a next hop.
func (s *Switch) Forwarded() uint64 { return s.forwarded }

// usable reports whether an ECMP member port should be considered: the
// link must be up, and a hung peer switch is excluded only once the
// detection delay has elapsed since it failed. Cut ports judge the peer
// by its published barrier snapshot — which is also how a real routing
// process sees a remote neighbour: through announcements that take wire
// time to arrive.
func (s *Switch) usable(p *Port) bool {
	if !p.up || p.peer == nil || !p.peerUp() {
		return false
	}
	if p.cut {
		if p.pubPeerIsSwitch && !p.pubPeerAlive {
			if s.part.eng.Now() >= p.pubPeerDownAt.Add(s.fab.cfg.DetectDelay) {
				return false
			}
		}
		return true
	}
	if peer, ok := p.peer.owner.(*Switch); ok && !peer.alive {
		if s.part.eng.Now() >= peer.downAt.Add(s.fab.cfg.DetectDelay) {
			return false
		}
	}
	return true
}

// pick selects a member of g for pkt by consistent hash over the usable
// ports. Returns nil if no port is usable. Count-then-index keeps this
// per-packet path allocation-free.
func (s *Switch) pick(g *ecmpGroup, pkt *Packet) *Port {
	if g == nil || len(g.ports) == 0 {
		return nil
	}
	usable := 0
	for _, p := range g.ports {
		if s.usable(p) {
			usable++
		}
	}
	if usable == 0 {
		return nil
	}
	k := int(FlowHash(pkt, s.salt) % uint32(usable))
	for _, p := range g.ports {
		if s.usable(p) {
			if k == 0 {
				return p
			}
			k--
		}
	}
	return nil
}

// route resolves the egress ECMP group for dst via longest-prefix order:
// host (/32), rack, pod, dc, then the default up-group.
func (s *Switch) route(dst uint32) *ecmpGroup {
	if g, ok := s.hostRoutes[dst]; ok {
		return g
	}
	if g, ok := s.rackRoutes[rackKey(dst)]; ok {
		return g
	}
	if g, ok := s.podRoutes[podKey(dst)]; ok {
		return g
	}
	if g, ok := s.dcRoutes[dcKey(dst)]; ok {
		return g
	}
	return s.defaultUp
}

// Receive forwards a packet after the switch pipeline latency. The switch
// owns the packet while it transits, so every drop path releases it back
// to the pool.
//
//lint:hotpath
func (s *Switch) Receive(pkt *Packet, _ *Port) {
	s.rx++
	if !s.alive {
		s.dropped++
		s.part.countDrop(s.dropHang)
		pkt.Release()
		return
	}
	if s.dropRate > 0 && s.part.rand.Bernoulli(s.dropRate) {
		s.dropped++
		s.part.countDrop(s.dropRand)
		pkt.Release()
		return
	}
	if s.blackholeFrac > 0 {
		h := FlowHash(pkt, s.blackholeSalt)
		if float64(h%10000) < s.blackholeFrac*10000 {
			s.dropped++
			s.part.countDrop(s.dropBH)
			pkt.Release()
			return
		}
	}
	if pkt.TTL == 0 {
		s.dropped++
		s.part.countDrop("ttl")
		pkt.Release()
		return
	}
	pkt.TTL--
	g := s.route(pkt.Dst)
	egress := s.pick(g, pkt)
	if egress == nil {
		s.dropped++
		s.part.countDrop(s.dropNoRoute)
		pkt.Release()
		return
	}
	s.forwarded++
	x := s.part.getFwd()
	x.sw, x.egress, x.pkt = s, egress, pkt
	s.part.eng.ScheduleArg(s.latency, switchForward, x)
}

// switchForward completes a transit after the pipeline latency.
//
//lint:hotpath
func switchForward(a any) {
	x := a.(*swFwd)
	s, egress, pkt := x.sw, x.egress, x.pkt
	s.part.putFwd(x)
	if !s.alive { // failed while the packet was in the pipeline
		s.part.countDrop(s.dropHang)
		pkt.Release()
		return
	}
	if !egress.Send(pkt) {
		pkt.Release()
	}
}

func addPort(g *ecmpGroup, p *Port) *ecmpGroup {
	if g == nil {
		g = &ecmpGroup{}
	}
	g.ports = append(g.ports, p)
	return g
}
