package simnet

import (
	"slices"
	"testing"

	"lunasolar/internal/sim"
)

// refPrefix is one down route of the reference: the addresses that agree
// with addr in their top bits.
type refPrefix struct {
	addr uint32
	bits int
}

func (p refPrefix) covers(dst uint32) bool {
	return dst&(^uint32(0)<<(32-p.bits)) == p.addr
}

// refRoutes is a switch's routing table as the reference reads it off the
// wiring: a port toward a host routes that host's /32, a port toward a
// lower-tier switch routes the prefix that switch serves, and every port
// toward a higher tier is a default route. Ports join their groups in
// port order, as they were connected.
type refRoutes struct {
	down map[refPrefix][]*Port
	up   []*Port
}

// refTables builds refRoutes for every switch of fab.
func refTables(fab *Fabric) map[*Switch]refRoutes {
	cfg := fab.cfg
	serves := map[*Switch]refPrefix{}
	for dc := 0; dc < cfg.DCs; dc++ {
		for c := 0; c < cfg.CoresPerDC; c++ {
			serves[fab.Core(dc, c)] = refPrefix{Addr(dc, 0, 0, 0) &^ 0xffffff, 8}
		}
		for pod := 0; pod < cfg.PodsPerDC; pod++ {
			for sp := 0; sp < cfg.SpinesPerPod; sp++ {
				serves[fab.Spine(dc, pod, sp)] = refPrefix{Addr(dc, pod, 0, 0) &^ 0xffff, 16}
			}
			for rack := 0; rack < cfg.RacksPerPod; rack++ {
				for t := 0; t < 2; t++ {
					serves[fab.ToR(dc, pod, rack, t)] = refPrefix{Addr(dc, pod, rack, 0) &^ 0xff, 24}
				}
			}
		}
	}
	out := map[*Switch]refRoutes{}
	for _, s := range fab.Switches() {
		r := refRoutes{down: map[refPrefix][]*Port{}}
		for _, p := range s.ports {
			switch o := p.peer.owner.(type) {
			case *Host:
				k := refPrefix{o.addr, 32}
				r.down[k] = append(r.down[k], p)
			case *Switch:
				if serves[o].bits < serves[s].bits { // a DCR serves nothing: bits 0
					r.up = append(r.up, p)
					continue
				}
				k := serves[o]
				r.down[k] = append(r.down[k], p)
			}
		}
		out[s] = r
	}
	return out
}

// lookup is the reference longest-prefix match: the ports of the longest
// down prefix covering dst, or the default ports when none does.
func (r refRoutes) lookup(dst uint32) (ports []*Port, up bool) {
	best := -1
	for k, g := range r.down {
		if k.covers(dst) && k.bits > best {
			best, ports = k.bits, g
		}
	}
	if best < 0 {
		return r.up, true
	}
	return ports, false
}

// FuzzRoute checks every switch's indexed route table against a reference
// longest-prefix lookup over the wiring of a two-DC fabric with DC
// routers, for decoded addresses that name real hosts and racks, pods and
// DCs one past the last, address components 0, and raw addresses.
func FuzzRoute(f *testing.F) {
	cfg := DefaultConfig()
	cfg.DCs = 2
	cfg.PodsPerDC = 2
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 3
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	cfg.DCRouters = 2
	fab := New(sim.NewEngine(1), cfg)
	ref := refTables(fab)

	for _, seed := range [][5]byte{
		{1, 1, 1, 1, 0}, // the first host
		{2, 2, 2, 3, 0}, // the last host
		{1, 1, 1, 4, 0}, // an unknown host of a known rack
		{1, 2, 3, 1, 0}, // an unknown rack
		{2, 3, 1, 1, 0}, // an unknown pod
		{3, 1, 1, 1, 0}, // an unknown DC
		{1, 1, 1, 0, 0}, // host byte 0
		{1, 1, 0, 1, 0}, // rack byte 0
		{1, 0, 1, 1, 0}, // pod byte 0
		{0, 1, 1, 1, 0}, // DC byte 0
		{0, 0, 0, 0, 1}, // address 0
		{255, 255, 255, 255, 1},
		{1, 1, 255, 1, 1},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4] != 0)
	}
	f.Fuzz(func(t *testing.T, dc, pod, rack, host byte, raw bool) {
		// A decoded component ranges over 0, every real value and the
		// first value past the last; raw keeps the bytes as they are.
		if !raw {
			dc %= byte(cfg.DCs + 2)
			pod %= byte(cfg.PodsPerDC + 2)
			rack %= byte(cfg.RacksPerPod + 2)
			host %= byte(cfg.HostsPerRack + 2)
		}
		dst := uint32(dc)<<24 | uint32(pod)<<16 | uint32(rack)<<8 | uint32(host)
		for _, s := range fab.Switches() {
			got := s.route(dst)
			want, up := ref[s].lookup(dst)
			if up && got != s.defaultUp {
				t.Fatalf("%s: route(%#08x) is not the default up-group", s.name, dst)
			}
			var gotPorts []*Port
			if got != nil {
				gotPorts = got.ports
			}
			if !slices.Equal(gotPorts, want) {
				t.Fatalf("%s: route(%#08x) = %d ports, reference %d (up %v)", s.name, dst, len(gotPorts), len(want), up)
			}
		}
	})
}
