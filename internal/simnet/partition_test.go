package simnet

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
)

// partTestConfig is a two-DC fabric with every tier populated, so cut
// accounting covers host, ToR, spine, core and DCR links.
func partTestConfig() Config {
	cfg := DefaultConfig()
	cfg.DCs = 2
	cfg.DCRouters = 2
	cfg.PodsPerDC = 2
	cfg.RacksPerPod = 3
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	return cfg
}

func buildParts(t *testing.T, cfg Config, parts int) *Fabric {
	t.Helper()
	engs := make([]*sim.Engine, parts)
	for i := range engs {
		engs[i] = sim.NewEngine(int64(i + 1))
	}
	return NewPartitioned(engs, cfg)
}

// TestPartitionAssignmentTotal checks that the built fabric places every
// host and every switch in exactly one partition, that the placement
// matches the plan, and that a rack (hosts + ToR pair) never splits.
func TestPartitionAssignmentTotal(t *testing.T) {
	cfg := partTestConfig()
	for _, parts := range []int{1, 2, 3, 4, 7} {
		plan := PlanPartitions(cfg, parts)
		f := buildParts(t, cfg, parts)
		for dc := 0; dc < cfg.DCs; dc++ {
			for pod := 0; pod < cfg.PodsPerDC; pod++ {
				for rack := 0; rack < cfg.RacksPerPod; rack++ {
					want := plan.RackPart(dc, pod, rack)
					if want < 0 || want >= parts {
						t.Fatalf("parts=%d: rack (%d,%d,%d) assigned to partition %d", parts, dc, pod, rack, want)
					}
					for ti := 0; ti < 2; ti++ {
						if got := f.ToR(dc, pod, rack, ti).PartIndex(); got != want {
							t.Fatalf("parts=%d: ToR (%d,%d,%d,%d) in partition %d, plan says %d",
								parts, dc, pod, rack, ti, got, want)
						}
					}
					for hi := 0; hi < cfg.HostsPerRack; hi++ {
						if got := f.Host(dc, pod, rack, hi).PartIndex(); got != want {
							t.Fatalf("parts=%d: host (%d,%d,%d,%d) in partition %d, its rack is in %d",
								parts, dc, pod, rack, hi, got, want)
						}
					}
				}
				for sp := 0; sp < cfg.SpinesPerPod; sp++ {
					if got, want := f.Spine(dc, pod, sp).PartIndex(), plan.SpinePart(dc, pod, sp); got != want {
						t.Fatalf("parts=%d: spine (%d,%d,%d) in partition %d, plan says %d", parts, dc, pod, sp, got, want)
					}
				}
			}
			for ci := 0; ci < cfg.CoresPerDC; ci++ {
				if got, want := f.Core(dc, ci).PartIndex(), plan.CorePart(dc, ci); got != want {
					t.Fatalf("parts=%d: core (%d,%d) in partition %d, plan says %d", parts, dc, ci, got, want)
				}
			}
		}
		for d := 0; d < cfg.DCRouters; d++ {
			if got, want := f.DCR(d).PartIndex(), plan.DCRPart(d); got != want {
				t.Fatalf("parts=%d: DCR %d in partition %d, plan says %d", parts, d, got, want)
			}
		}
	}
}

// TestPartitionCutPorts checks that a port is marked cut exactly when its
// two endpoints live in different partitions, that both ends of every cut
// link appear in CutPorts, and that host links are never cut.
func TestPartitionCutPorts(t *testing.T) {
	cfg := partTestConfig()
	for _, parts := range []int{1, 2, 3, 5} {
		f := buildParts(t, cfg, parts)

		cutSet := make(map[*Port]bool)
		for _, p := range f.CutPorts() {
			cutSet[p] = true
		}
		checked := 0
		walkPorts(f, func(p *Port) {
			checked++
			wantCut := p.part != p.peer.part
			if p.cut != wantCut {
				t.Fatalf("parts=%d: port %s→%s cut=%v, endpoints in partitions %d/%d",
					parts, p.owner.nodeName(), p.peer.owner.nodeName(), p.cut, p.part.idx, p.peer.part.idx)
			}
			if cutSet[p] != wantCut {
				t.Fatalf("parts=%d: port %s→%s in CutPorts=%v, want %v",
					parts, p.owner.nodeName(), p.peer.owner.nodeName(), cutSet[p], wantCut)
			}
			if _, isHost := p.owner.(*Host); isHost && p.cut {
				t.Fatalf("parts=%d: host link %s→%s is cut; racks must not split",
					parts, p.owner.nodeName(), p.peer.owner.nodeName())
			}
		})
		if checked == 0 {
			t.Fatal("walked no ports")
		}
		if parts == 1 {
			if n := len(f.CutPorts()); n != 0 {
				t.Fatalf("single partition has %d cut ports", n)
			}
		}
	}
}

// TestPartitionLookahead checks the fabric's lookahead against a
// brute-force minimum over the built cut ports, and that with a distinct
// inter-DC delay the minimum is the smaller intra-DC propagation delay
// whenever any intra-DC link is cut.
func TestPartitionLookahead(t *testing.T) {
	cfg := partTestConfig()
	cfg.PropDelay = 700 * time.Nanosecond
	cfg.InterDCDelay = 9 * time.Microsecond
	for _, parts := range []int{1, 2, 4, 6} {
		f := buildParts(t, cfg, parts)
		var brute time.Duration
		for _, p := range f.CutPorts() {
			if brute == 0 || p.propDelay < brute {
				brute = p.propDelay
			}
		}
		if got := f.Lookahead(); got != brute {
			t.Fatalf("parts=%d: fabric lookahead %v, brute force over cut ports %v", parts, got, brute)
		}
		if parts == 1 && brute != 0 {
			t.Fatalf("single partition computed nonzero lookahead %v", brute)
		}
		if parts > 1 && brute != cfg.PropDelay {
			t.Fatalf("parts=%d: lookahead %v, want the intra-DC propagation delay %v", parts, brute, cfg.PropDelay)
		}
	}
}

// TestPartitionDegenerateOverSplit plans more partitions than the fabric
// has racks: every node must still land in a valid partition, and the
// fabric must build and run (some engines simply own nothing).
func TestPartitionDegenerateOverSplit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 1
	cfg.PodsPerDC = 1
	parts := 11 // more than racks + spines + cores
	f := buildParts(t, cfg, parts)
	if got := f.Parts(); got != parts {
		t.Fatalf("built %d partitions, want %d", got, parts)
	}
	populated := make(map[int]bool)
	walkPorts(f, func(p *Port) { populated[p.part.idx] = true })
	for idx := range populated {
		if idx < 0 || idx >= parts {
			t.Fatalf("port owned by out-of-range partition %d", idx)
		}
	}
	if la := f.Lookahead(); la <= 0 {
		t.Fatalf("over-split fabric has cut links but lookahead %v", la)
	}
	// All engines, including empty ones, must drive cleanly.
	for i := 0; i < parts; i++ {
		f.PartEngine(i).RunFor(time.Millisecond)
	}
}

// walkPorts visits every port of every node in the fabric.
// TestCutPortDepartureBoundsNextEvent is the coupled runner's barrier
// gate: a frame still serializing on a cut port when a window ends keeps
// the sender's NextEventAt at its departure — not at its delivery, which
// waits in the peer partition's mailbox — so the runner plans the next
// window, and refreshes cut-port snapshots, from the departure.
func TestCutPortDepartureBoundsNextEvent(t *testing.T) {
	f := buildParts(t, partTestConfig(), 2)
	p := f.CutPorts()[0]
	eng := p.part.eng
	hosts := f.Hosts()
	pkt := mkPkt(hosts[0], hosts[len(hosts)-1], 1000, 4096)
	size := pkt.WireSize()
	if !p.Send(pkt) {
		t.Fatal("send on an idle cut port dropped the frame")
	}
	dep := sim.Time(p.serialization(size))
	eng.RunUntil(dep - 1)
	if q := p.q.Queued(); q != size {
		t.Fatalf("%d bytes queued when the window ends mid-serialization, want %d", q, size)
	}
	if at, ok := eng.NextEventAt(); !ok || at != dep {
		t.Fatalf("sender NextEventAt = %v, %v; want the departure at %v", at, ok, dep)
	}
	if n := f.InboxPending(); n != 1 {
		t.Fatalf("%d frames in the peer's mailbox, want the one handed off", n)
	}
	eng.RunUntil(dep)
	if q := p.q.Queued(); q != 0 {
		t.Fatalf("%d bytes still queued after the departure", q)
	}
	if at, ok := eng.NextEventAt(); ok {
		t.Fatalf("sender NextEventAt = %v after its only frame left", at)
	}
}

func walkPorts(f *Fabric, fn func(p *Port)) {
	for _, h := range f.Hosts() {
		for _, p := range h.Ports() {
			fn(p)
		}
	}
	walkSwitch := func(s *Switch) {
		for _, p := range s.Ports() {
			fn(p)
		}
	}
	cfg := f.Config()
	for dc := 0; dc < cfg.DCs; dc++ {
		for pod := 0; pod < cfg.PodsPerDC; pod++ {
			for rack := 0; rack < cfg.RacksPerPod; rack++ {
				walkSwitch(f.ToR(dc, pod, rack, 0))
				walkSwitch(f.ToR(dc, pod, rack, 1))
			}
			for sp := 0; sp < cfg.SpinesPerPod; sp++ {
				walkSwitch(f.Spine(dc, pod, sp))
			}
		}
		for ci := 0; ci < cfg.CoresPerDC; ci++ {
			walkSwitch(f.Core(dc, ci))
		}
	}
	for d := 0; d < cfg.DCRouters; d++ {
		walkSwitch(f.DCR(d))
	}
}
