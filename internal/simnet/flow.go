package simnet

// Hybrid fidelity: flow-level fast-forward for bulk transfers.
//
// Packet-level DES is the right tool for microbursts, incast and failover,
// but fleet-scale campaigns spend most simulated time in steady state,
// re-simulating equilibrium packet by packet. The FlowTable lets the
// fabric fast-forward that equilibrium: when the fabric is
// quiescent-eligible — every output queue at or below a low-water mark, no
// impairment (hung switch, down link, drop/blackhole injection) active,
// no recent fidelity trigger, and the fabric-wide queue high-water mark
// not growing — an open-loop bulk transfer (see bulk.go) is admitted as a
// *fluid flow*: its packets are never materialized, and its completion is
// computed analytically on the exact pacing grid packet mode would use,
// so on an uncongested path the two modes agree to the nanosecond.
//
// Admission runs a shared-bottleneck max-min water-filling over the
// candidate plus every already-fluid flow (per-flow demand = the pace
// rate, per-link capacity = the port rate). If any flow's max-min share
// falls below its demand the fabric is heading into contention the fluid
// model cannot see (standing queues), so the candidate is refused and
// every fluid flow is flushed back to packets (TriggerIncast).
//
// Demotion triggers are wired into the fabric itself: every drop path
// (countDrop → TriggerLoss), ECN mark onset (TriggerECN), queue growth
// past the low-water mark (TriggerQueue), and switch hang/repair and link
// up/down transitions (TriggerFailover). A trigger flushes every fluid
// flow where it fires: the analytically-sent packet prefix stays
// delivered (bytes are conserved — the resumed sender continues at
// exactly the next grid index), the completion event is cancelled, and
// the remaining packets are paced for real from their original grid
// positions, where they feel the congestion or failure that triggered the
// demotion. Re-promotion is blocked for HoldOff after the last trigger.
//
// Hybrid fidelity is serial only: the table shares its fabric's one
// engine, so a trigger may touch it from any event, and EnableFluid
// rejects a partitioned fabric.
import (
	"math"
	"time"

	"lunasolar/internal/sim"
)

// FluidTrigger identifies why the fabric demoted (or refused to promote)
// fluid flows back to packet fidelity.
type FluidTrigger uint8

// Demotion triggers, in rough order of how locally they are detected.
const (
	TriggerNone     FluidTrigger = iota
	TriggerLoss                  // any packet drop (taildrop, linkdown, hang, rand, blackhole, ttl, ...)
	TriggerECN                   // a switch marked CE: queues crossed the ECN threshold
	TriggerQueue                 // an output queue grew past the fluid low-water mark
	TriggerFailover              // switch hang/repair or link state change
	TriggerIncast                // max-min admission found a flow that cannot get its pace rate
	numFluidTriggers
)

func (t FluidTrigger) String() string {
	switch t {
	case TriggerNone:
		return "none"
	case TriggerLoss:
		return "loss"
	case TriggerECN:
		return "ecn"
	case TriggerQueue:
		return "queue"
	case TriggerFailover:
		return "failover"
	case TriggerIncast:
		return "incast"
	}
	return "?"
}

// FluidConfig parameterizes the hybrid-fidelity mode.
type FluidConfig struct {
	// LowWaterBytes is the quiescence threshold: the fabric is eligible for
	// fluid fast-forward only while every output queue holds at most this
	// many bytes, and a queue growing past it demotes active fluid flows
	// (TriggerQueue).
	LowWaterBytes int
	// HoldOff is how long after the last fidelity trigger the fabric stays
	// ineligible, so a burst of packet-level trouble is fully simulated
	// before analytic mode resumes.
	HoldOff time.Duration
}

// DefaultFluidConfig returns the baseline hybrid-fidelity parameters:
// a 16 KiB low-water mark (a few MTUs — transient pacing overlap, not a
// standing queue) and a 100 µs trigger hold-off.
func DefaultFluidConfig() FluidConfig {
	return FluidConfig{LowWaterBytes: 16 << 10, HoldOff: 100 * time.Microsecond}
}

// FluidStats summarizes the table's lifetime activity.
type FluidStats struct {
	Admitted  uint64 // transfers that ran (at least partly) as fluid flows
	Rejected  uint64 // admission attempts refused (ineligible or infeasible)
	Demotions uint64 // flush-all events (any trigger firing with flows active, incast at admission included)
	Triggers  [numFluidTriggers]uint64
}

// fluidFlow is one bulk transfer's analytic state: a virtual paced sender
// on the exact packet grid t0 + k·iv that packet mode would use, plus the
// resolved path for bandwidth accounting and the fin packet's flight time.
type fluidFlow struct {
	id       uint64
	src, dst *Host
	svc      *BulkService
	chunk    int // modeled payload bytes per packet
	n        int // packets in the transfer
	wire     int // wire bytes per packet (chunk + headers + Eth)

	t0   sim.Time      // first packet's send time
	iv   time.Duration // pacing grid interval at the pace rate
	pace float64       // offered wire bits/sec
	tail time.Duration // fin flight time over an idle path (serialization + propagation + switch latencies)

	path []*Port // egress ports along the path, sender NIC first
	rate float64 // max-min share at last admission (diagnostics)

	next int       // next packet index to send when paced for real
	done sim.Timer // completion event, scheduled at admission

	tracked bool // still in the table's flow list
}

// finSend returns the fin packet's grid send time.
func (f *fluidFlow) finSend() sim.Time { return f.t0 + sim.Time(time.Duration(f.n-1)*f.iv) }

// finArrival returns the fin packet's analytic arrival at the receiver.
func (f *fluidFlow) finArrival() sim.Time { return f.finSend().Add(f.tail) }

// sentBy returns how many grid packets have send times <= now.
func (f *fluidFlow) sentBy(now sim.Time) int {
	if now < f.t0 {
		return 0
	}
	if f.iv <= 0 {
		return f.n
	}
	k := int(now.Sub(f.t0)/f.iv) + 1
	if k > f.n {
		k = f.n
	}
	return k
}

// FlowTable is the fabric's fluid fast-forward state. It runs on the
// fabric's one engine, inside its events.
type FlowTable struct {
	fab *Fabric
	eng *sim.Engine
	cfg FluidConfig

	flows     []*fluidFlow // active fluid flows, admission order
	holdUntil sim.Time
	seenMaxQ  int // last observed Fabric.MaxQueuedBytes high-water

	stats FluidStats
}

// EnableFluid switches the fabric to hybrid fidelity: bulk transfers (see
// BulkService) may be fast-forwarded analytically while the fabric is
// quiescent. Hybrid fidelity is serial only; a partitioned fabric panics.
func (f *Fabric) EnableFluid(cfg FluidConfig) *FlowTable {
	if len(f.parts) != 1 {
		panic("simnet: hybrid fidelity needs a serial fabric")
	}
	t := &FlowTable{fab: f, eng: f.Eng, cfg: cfg, seenMaxQ: f.MaxQueuedBytes()}
	f.fluid = t
	f.fluidLow = cfg.LowWaterBytes
	return t
}

// Fluid returns the fabric's flow table, or nil in pure packet mode.
func (f *Fabric) Fluid() *FlowTable { return f.fluid }

// Stats returns the table's activity summary.
func (t *FlowTable) Stats() FluidStats { return t.stats }

// noteFluid reports a fidelity trigger to the flow table; a no-op in pure
// packet mode.
func (ps *fabricPart) noteFluid(tr FluidTrigger) {
	if t := ps.fab.fluid; t != nil {
		t.trigger(tr)
	}
}

// trigger counts tr, re-arms the hold-off from now, and flushes every
// fluid flow back to packets.
func (t *FlowTable) trigger(tr FluidTrigger) {
	t.stats.Triggers[tr]++
	if hu := t.eng.Now().Add(t.cfg.HoldOff); hu > t.holdUntil {
		t.holdUntil = hu
	}
	if len(t.flows) > 0 {
		t.flushAll()
	}
}

// flushAll demotes every fluid flow back to packet fidelity at the
// current virtual time, conserving bytes: packets whose grid send times
// have passed stay analytically delivered, and the sender resumes pacing
// real packets at exactly the next grid index. A flow whose packets are
// all sent keeps its completion event (its fin is analytically in
// flight).
func (t *FlowTable) flushAll() {
	now := t.eng.Now()
	t.stats.Demotions++
	for _, f := range t.flows {
		f.tracked = false
		k := f.sentBy(now)
		if k >= f.n {
			continue
		}
		f.done.Cancel()
		f.svc.resume(f, k, now)
	}
	t.flows = t.flows[:0]
}

// remove drops f from the flow list, preserving admission order.
func (t *FlowTable) remove(f *fluidFlow) {
	for i, g := range t.flows {
		if g == f {
			t.flows = append(t.flows[:i], t.flows[i+1:]...)
			f.tracked = false
			return
		}
	}
}

// eligible reports whether the fabric is quiescent enough for fluid
// fast-forward: past the hold-off, no growth of the fabric-wide queue
// high-water mark since the last check (growth is the incast-onset signal
// — observing it re-arms the hold-off), no impairment active (hung or
// lossy switch, down port), and every output queue at or below the
// low-water mark. A queue at exactly LowWaterBytes is eligible; one byte
// over is not.
func (t *FlowTable) eligible(now sim.Time) bool {
	if now < t.holdUntil {
		return false
	}
	if q := t.fab.MaxQueuedBytes(); q > t.seenMaxQ {
		t.seenMaxQ = q
		t.holdUntil = now.Add(t.cfg.HoldOff)
		return false
	}
	low := t.cfg.LowWaterBytes
	for _, sw := range t.fab.Switches() {
		if !sw.alive || sw.dropRate > 0 || sw.blackholeFrac > 0 {
			return false
		}
		for _, p := range sw.ports {
			if !p.up || p.q.Queued() > low {
				return false
			}
		}
	}
	for _, h := range t.fab.hostList {
		for _, p := range h.ports {
			if !p.up || p.q.Queued() > low {
				return false
			}
		}
	}
	return true
}

// resolvePath walks the flow's packets' exact forwarding path — the NIC
// bonding hash at the host, then consistent-hash ECMP at each switch —
// accumulating the fin packet's idle-path flight time (serialization +
// propagation per link, pipeline latency per switch). Returns false if no
// route resolves.
func (t *FlowTable) resolvePath(f *fluidFlow) bool {
	probe := Packet{
		Src:     f.src.addr,
		Dst:     f.dst.addr,
		Proto:   BulkProto,
		SrcPort: bulkSrcPort(f.id),
		DstPort: bulkDstPort,
	}
	f.path = f.path[:0]
	f.tail = 0
	// Host NIC bonding: count-then-index over up ports, exactly Host.Send.
	up := 0
	for _, p := range f.src.ports {
		if p.up && p.peerUp() {
			up++
		}
	}
	if up == 0 {
		return false
	}
	var egress *Port
	k := int(FlowHash(&probe, 0x9e3779b9) % uint32(up))
	for _, p := range f.src.ports {
		if p.up && p.peerUp() {
			if k == 0 {
				egress = p
				break
			}
			k--
		}
	}
	for hops := 0; ; hops++ {
		if hops > 16 || egress == nil {
			return false
		}
		f.path = append(f.path, egress)
		f.tail += egress.serialization(f.wire) + egress.propDelay
		switch peer := egress.peer.owner.(type) {
		case *Host:
			if peer != f.dst {
				return false
			}
			return true
		case *Switch:
			if !peer.alive {
				return false
			}
			f.tail += peer.latency
			egress = peer.pick(peer.route(f.dst.addr), &probe)
		default:
			return false
		}
	}
}

// feasible runs progressive max-min water-filling over the existing fluid
// flows plus the candidate: per-flow demand is the pace rate, per-link
// capacity the port rate, and flows sharing a port share its capacity.
// Every flow's share is stored (diagnostics); the allocation is feasible
// when every flow reaches its demand — i.e. the fabric can carry all
// fluid flows at their offered rates with no standing queue.
func (t *FlowTable) feasible(cand *fluidFlow) bool {
	flows := make([]*fluidFlow, 0, len(t.flows)+1)
	flows = append(flows, t.flows...)
	flows = append(flows, cand)

	// Collect links in first-seen order; the map is index lookup only
	// (never iterated), so the solver is deterministic.
	var ports []*Port
	idx := make(map[*Port]int)
	flowLinks := make([][]int, len(flows))
	for i, f := range flows {
		for _, p := range f.path {
			li, ok := idx[p]
			if !ok {
				li = len(ports)
				idx[p] = li
				ports = append(ports, p)
			}
			flowLinks[i] = append(flowLinks[i], li)
		}
	}
	rem := make([]float64, len(ports))
	active := make([]int, len(ports))
	for li, p := range ports {
		rem[li] = p.rateBps
	}
	alloc := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	for i := range flows {
		for _, li := range flowLinks[i] {
			active[li]++
		}
	}
	const eps = 1e-6
	for left := len(flows); left > 0; {
		// The next water level increment: the tightest link's equal share,
		// capped by the smallest remaining demand.
		inc := math.Inf(1)
		for li := range ports {
			if active[li] > 0 {
				if s := rem[li] / float64(active[li]); s < inc {
					inc = s
				}
			}
		}
		for i, f := range flows {
			if !frozen[i] {
				if d := f.pace - alloc[i]; d < inc {
					inc = d
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		for i := range flows {
			if frozen[i] {
				continue
			}
			alloc[i] += inc
			for _, li := range flowLinks[i] {
				rem[li] -= inc
			}
		}
		// Freeze satisfied flows, then flows pinned on a saturated link.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if alloc[i] >= f.pace*(1-eps) {
				frozen[i] = true
			} else {
				for _, li := range flowLinks[i] {
					if rem[li] <= ports[li].rateBps*eps {
						frozen[i] = true
						break
					}
				}
			}
			if frozen[i] {
				left--
				for _, li := range flowLinks[i] {
					active[li]--
				}
			}
		}
	}
	ok := true
	for i, f := range flows {
		f.rate = alloc[i]
		if alloc[i] < f.pace*(1-eps) {
			ok = false
		}
	}
	return ok
}

// admit tries to promote f, whose transfer starts now, to a fluid flow
// and, if promoted, schedules its analytic completion, so the engine can
// jump straight to it. On refusal the caller paces f's packets for real.
// An infeasible admission with fluid flows active is incast onset: every
// fluid flow is flushed too, so the contention is simulated at packet
// fidelity.
func (t *FlowTable) admit(f *fluidFlow) bool {
	if !t.eligible(t.eng.Now()) || !t.resolvePath(f) {
		t.stats.Rejected++
		return false
	}
	if !t.feasible(f) {
		t.stats.Rejected++
		if len(t.flows) > 0 {
			t.trigger(TriggerIncast)
		}
		return false
	}
	f.tracked = true
	t.flows = append(t.flows, f)
	t.stats.Admitted++
	f.done = t.eng.AtArg(f.finArrival(), fluidDone, f)
	return true
}
