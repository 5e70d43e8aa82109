package simnet

import (
	"math"
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

// ecmpGroup is a set of candidate egress ports for a destination prefix.
// live caches its usable members in port order. It is rebuilt when the
// fabric's epoch moves (a link or switch changed state) or when the clock
// reaches until, the earliest detection deadline of a hung peer switch
// that is still a member. live shares nothing with ports and is sized
// with it in addPort, so a rebuild never allocates.
type ecmpGroup struct {
	ports []*Port
	live  []*Port
	epoch uint64
	until sim.Time
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
	name string
	salt uint32

	latency time.Duration
	ports   []*Port

	// Every tier routes down at exactly one level: a ToR to the hosts of
	// its rack, a spine to the racks of its pod, a core to the pods of its
	// DC and a DCR to the DCs. So the down routes are one table, indexed
	// by the address byte below the switch's scope (at shift), for the
	// addresses whose scopeMask bits equal scope; everything else goes up.
	scope, scopeMask uint32
	shift            uint
	down             []*ecmpGroup
	defaultUp        *ecmpGroup // toward the higher tier

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

func newSwitch(f *Fabric, name string, tier Tier, latency time.Duration, salt uint32) *Switch {
	shift := 8 * uint(tier)
	return &Switch{
		fab:         f,
		name:        name,
		salt:        salt,
		latency:     latency,
		scopeMask:   ^uint32(0) << (shift + 8),
		shift:       shift,
		alive:       true,
		dropHang:    "hang:" + name,
		dropRand:    "rand:" + name,
		dropBH:      "blackhole:" + name,
		dropNoRoute: "noroute:" + name,
	}
}

// Name returns the switch's diagnostic name.
func (s *Switch) Name() string { return s.name }

// Alive reports whether the switch is forwarding.
func (s *Switch) Alive() bool { return s.alive }

// Fail hangs the switch: it stops forwarding but its links stay up.
func (s *Switch) Fail() {
	if s.alive {
		s.alive = false
		s.downAt = s.fab.Eng.Now()
	}
	s.fab.epoch++
}

// Repair brings a failed switch back and clears its injected loss.
func (s *Switch) Repair() {
	s.alive = true
	s.fab.epoch++
	s.dropRate = 0
	s.blackholeFrac = 0
}

// SetDropRate makes the switch drop transiting packets with probability p.
func (s *Switch) SetDropRate(p float64) { s.dropRate = p }

// SetBlackhole silently drops the given fraction of flows (selected by
// hash), modelling a corrupted forwarding entry or failing linecard.
func (s *Switch) SetBlackhole(frac float64, salt uint32) {
	s.blackholeFrac = frac
	s.blackholeSalt = salt
}

// Forwarded returns packets successfully enqueued toward a next hop.
func (s *Switch) Forwarded() uint64 { return s.forwarded }

// pick selects a member of g for pkt by consistent hash over the usable
// ports, or nil if no port is usable.
//
//lint:hotpath
func (s *Switch) pick(g *ecmpGroup, pkt *Packet) *Port {
	if g == nil {
		return nil
	}
	if g.epoch != s.fab.epoch || s.fab.Eng.Now() >= g.until {
		s.refresh(g)
	}
	if len(g.live) == 0 {
		return nil
	}
	return g.live[pkt.flowHash(s.salt)%uint32(len(g.live))]
}

// refresh rebuilds g.live from g.ports. A member is usable when its link
// is up at both ends and its peer, if a hung switch, has not yet been
// hung for the detection delay; the earliest such deadline still ahead is
// g.until.
func (s *Switch) refresh(g *ecmpGroup) {
	now := s.fab.Eng.Now()
	g.live, g.epoch, g.until = g.live[:0], s.fab.epoch, math.MaxInt64
	for _, p := range g.ports {
		if !p.up || p.peer == nil || !p.peer.up {
			continue
		}
		if peer, ok := p.peer.owner.(*Switch); ok && !peer.alive {
			at := peer.downAt.Add(DetectDelay)
			if now >= at {
				continue
			}
			g.until = min(g.until, at)
		}
		g.live = append(g.live, p)
	}
}

// route resolves the egress ECMP group for dst: the down route of the
// address byte below the switch's scope when dst is inside that scope and
// the byte has one, the default up-group otherwise.
//
//lint:hotpath
func (s *Switch) route(dst uint32) *ecmpGroup {
	if dst&s.scopeMask == s.scope {
		if i := dst >> s.shift & 0xff; i < uint32(len(s.down)) && s.down[i] != nil {
			return s.down[i]
		}
	}
	return s.defaultUp
}

// addDown adds p to the down route toward dst's byte below the switch's
// scope, which every down route of a switch shares.
func (s *Switch) addDown(dst uint32, p *Port) {
	s.scope = dst & s.scopeMask
	i := int(dst >> s.shift & 0xff)
	if i >= len(s.down) {
		s.down = append(s.down, make([]*ecmpGroup, i+1-len(s.down))...)
	}
	s.down[i] = addPort(s.down[i], p)
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
		s.fab.countDrop(s.dropHang)
		pkt.Release()
		return
	}
	if s.dropRate > 0 && s.fab.rand.Bernoulli(s.dropRate) {
		s.dropped++
		s.fab.countDrop(s.dropRand)
		pkt.Release()
		return
	}
	if s.blackholeFrac > 0 {
		h := pkt.flowHash(s.blackholeSalt)
		if float64(h%10000) < s.blackholeFrac*10000 {
			s.dropped++
			s.fab.countDrop(s.dropBH)
			pkt.Release()
			return
		}
	}
	if pkt.TTL == 0 {
		s.dropped++
		s.fab.countDrop("ttl")
		pkt.Release()
		return
	}
	pkt.TTL--
	g := s.route(pkt.Dst)
	egress := s.pick(g, pkt)
	if egress == nil {
		s.dropped++
		s.fab.countDrop(s.dropNoRoute)
		pkt.Release()
		return
	}
	s.forwarded++
	x := s.fab.getFwd()
	x.sw, x.egress, x.pkt = s, egress, pkt
	s.fab.Eng.ScheduleArg(s.latency, switchForward, x)
}

// switchForward completes a transit after the pipeline latency.
//
//lint:hotpath
func switchForward(a any) {
	x := a.(*swFwd)
	s, egress, pkt := x.sw, x.egress, x.pkt
	s.fab.putFwd(x)
	if !s.alive { // failed while the packet was in the pipeline
		s.fab.countDrop(s.dropHang)
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
	g.live = append(g.live, p)
	return g
}
