package simnet

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/wire"
)

// refUsable is the reference member test: the link is up at both ends,
// and a hung peer switch is excluded only once the detection delay has
// elapsed since it failed.
func refUsable(s *Switch, p *Port) bool {
	if !p.up || p.peer == nil || !p.peer.up {
		return false
	}
	if peer, ok := p.peer.owner.(*Switch); ok && !peer.alive {
		if s.fab.Eng.Now() >= peer.downAt.Add(DetectDelay) {
			return false
		}
	}
	return true
}

// refPick is the reference ECMP choice, recomputed from scratch for every
// packet: count the usable members, hash the full 5-tuple with the
// switch's salt, and walk to the k-th usable member in port order.
func refPick(s *Switch, g *ecmpGroup, pkt *Packet) *Port {
	usable := 0
	for _, p := range g.ports {
		if refUsable(s, p) {
			usable++
		}
	}
	if usable == 0 {
		return nil
	}
	k := int(FlowHash(pkt, s.salt) % uint32(usable))
	for _, p := range g.ports {
		if refUsable(s, p) {
			if k == 0 {
				return p
			}
			k--
		}
	}
	return nil
}

// ECMP fuzz ops: each is four bytes, kind, target, argument and the
// 5-tuple the picks after it hash.
const (
	opFailLink = iota
	opRepairLink
	opFail
	opRepair
	opReboot
	opRunFor
	numOps
)

// FuzzECMPPick holds pick's cached members to refPick while links fail
// and heal, switches hang, repair and reboot, and the clock crosses
// detection deadlines, on a two-DC fabric with DC routers. After every op,
// and once before the first, every group of every switch picks for eight
// source ports of the op's decoded 5-tuple, half of them with the flow
// state Host.Send stores and half without. Steps are multiples of a
// sixteenth of DetectDelay, so a clock lands exactly on a deadline as
// well as past it.
func FuzzECMPPick(f *testing.F) {
	cfg := DefaultConfig()
	cfg.DCs = 2
	cfg.PodsPerDC = 2
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	cfg.DCRouters = 2

	for _, seed := range [][]byte{
		// A link fails and heals under cached picks.
		{opFailLink, 0, 0, 1, opRepairLink, 0, 0, 2},
		// A spine hangs: still picked, then excluded at its deadline.
		{opFail, 16, 0, 3, opRunFor, 0, 8, 4, opRunFor, 0, 8, 5, opRunFor, 0, 1, 6},
		// A hung spine past its deadline is repaired.
		{opFail, 17, 0, 7, opRunFor, 0, 20, 8, opRepair, 17, 0, 9},
		// A core reboots across its deadline while one of its links flaps.
		{opReboot, 24, 40, 10, opRunFor, 0, 17, 11, opFailLink, 100, 0, 12, opRunFor, 0, 30, 13, opRepairLink, 100, 0, 14},
		// Both ToRs of a rack hang, and a DC router link fails.
		{opFail, 0, 0, 15, opFail, 1, 0, 16, opRunFor, 0, 16, 17, opFailLink, 140, 0, 18, opRepair, 0, 0, 19},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := sim.NewEngine(1)
		fab := New(eng, cfg)
		switches := fab.Switches()
		var ports []*Port
		for _, s := range switches {
			ports = append(ports, s.ports...)
		}
		hosts := fab.Hosts()
		step := DetectDelay / 16

		check := func(op int, tuple byte) {
			for _, s := range switches {
				groups := append([]*ecmpGroup{s.defaultUp}, s.down...)
				for _, g := range groups {
					if g == nil {
						continue
					}
					for k := 0; k < 8; k++ {
						pkt := &Packet{
							Src:     hosts[int(tuple)%len(hosts)].addr,
							Dst:     hosts[int(tuple/3)%len(hosts)].addr,
							Proto:   wire.ProtoUDP,
							SrcPort: uint16(tuple)*131 + uint16(k),
							DstPort: 9000,
						}
						if k%2 == 0 {
							pkt.Proto = wire.ProtoTCP
							pkt.flow, pkt.hasFlow = flowState(pkt), true
						}
						if got, want := s.pick(g, pkt), refPick(s, g, pkt); got != want {
							t.Fatalf("after op %d at %v: %s picks hop %d, reference hop %d", op, eng.Now(), s.name, hop(got), hop(want))
						}
					}
				}
			}
		}
		check(-1, 0)
		for i := 0; i+4 <= len(ops); i += 4 {
			kind, target, arg, tuple := ops[i]%numOps, int(ops[i+1]), ops[i+2], ops[i+3]
			switch kind {
			case opFailLink:
				fab.FailLink(ports[target%len(ports)])
			case opRepairLink:
				fab.RepairLink(ports[target%len(ports)])
			case opFail:
				switches[target%len(switches)].Fail()
			case opRepair:
				switches[target%len(switches)].Repair()
			case opReboot:
				fab.RebootSwitch(switches[target%len(switches)], time.Duration(arg)*step)
			case opRunFor:
				eng.RunFor(time.Duration(arg) * step)
			}
			check(i/4, tuple)
		}
	})
}

// hop names a picked port by its hop ID, 0 for none.
func hop(p *Port) uint16 {
	if p == nil {
		return 0
	}
	return p.hopID
}
