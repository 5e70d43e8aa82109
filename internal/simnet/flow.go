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
// Demotion triggers are wired into the existing machinery: every drop
// path (countDrop → TriggerLoss), ECN mark onset (TriggerECN), queue
// growth past the low-water mark (TriggerQueue), switch hang/repair and
// link up/down transitions (TriggerFailover), and stack-level signals via
// Host.FluidDisturb (rdma NAK/CNP, tcp/rdma RTO and fast retransmit,
// Solar path failover). Triggers are recorded as plain per-partition
// field writes (notes) so hot paths stay allocation- and lock-free; the
// notes are folded into the table only at single-threaded points — the
// engine's fast-forward hook on serial fabrics, the barrier on coupled
// ones. A fold with a pending note flushes every fluid flow at the note's
// time: the analytically-sent packet prefix stays delivered (bytes are
// conserved — the resumed sender continues at exactly the next grid
// index), the completion event is cancelled, and the remaining packets
// are paced for real from their original grid positions, where they feel
// the congestion or failure that triggered the demotion. Re-promotion is
// blocked for HoldOff after the last note.
//
// Coupled fabrics never touch the shared table mid-window: transfer
// starts park the flow on the owning partition (fluidPending), and
// BarrierAdvance — installed as runtime.Coupled.FastForward — folds
// notes, admits pending flows, and materializes due completions only at
// barriers, where execution is single-threaded by construction. The
// fabric therefore fast-forwards only across windows in which every
// partition was eligible at the preceding barrier.
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
	TriggerLoss                  // any packet drop (taildrop, linkdown, hang, rand, blackhole, ttl, ...) or endpoint RTO/fast-retransmit
	TriggerECN                   // a switch marked CE: queues crossed the ECN threshold
	TriggerQueue                 // an output queue grew past the fluid low-water mark
	TriggerNAK                   // an RDMA receiver NAKed (go-back-N under way)
	TriggerCNP                   // a DCQCN congestion notification arrived
	TriggerFailover              // switch hang/repair, link state change, or an endpoint path failover
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
	case TriggerNAK:
		return "nak"
	case TriggerCNP:
		return "cnp"
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
	Demotions uint64 // flush-all events (any trigger folding with flows active, or incast at admission)
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
	done sim.Timer // completion event (scheduled eagerly on serial fabrics)

	fluid   bool // currently advancing analytically
	tracked bool // still in the table's flow list (cleared when materialized)
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

// FlowTable is the fabric's fluid fast-forward state. All methods run at
// single-threaded points only: inside the owning engine's callbacks on
// serial fabrics, or on the barrier coordinator on coupled ones.
type FlowTable struct {
	fab *Fabric
	cfg FluidConfig

	flows     []*fluidFlow // active fluid flows, admission order
	holdUntil sim.Time
	seenMaxQ  int // last observed Fabric.MaxQueuedBytes high-water

	stats     FluidStats
	scheduled bool // events were scheduled during the current BarrierAdvance
}

// EnableFluid switches the fabric to hybrid fidelity: bulk transfers (see
// BulkService) may be fast-forwarded analytically while the fabric is
// quiescent. On a serial fabric the table installs itself as the engine's
// fast-forward hook; a coupled fabric must additionally wire
// FlowTable.BarrierAdvance as the coupled runner's FastForward callback.
//
//lint:barrier — setup before any window runs; installs the hook, never races one
func (f *Fabric) EnableFluid(cfg FluidConfig) *FlowTable {
	t := &FlowTable{fab: f, cfg: cfg, seenMaxQ: f.MaxQueuedBytes()}
	f.fluid = t
	f.fluidLow = cfg.LowWaterBytes
	if len(f.parts) == 1 {
		f.parts[0].eng.SetFastForward(t.engineHook)
	}
	return t
}

// Fluid returns the fabric's flow table, or nil in pure packet mode.
func (f *Fabric) Fluid() *FlowTable { return f.fluid }

// Stats returns the table's activity summary, folding in the
// per-partition trigger tallies (partition order).
func (t *FlowTable) Stats() FluidStats {
	s := t.stats
	for _, ps := range t.fab.parts {
		for i, n := range ps.fluidTrigN {
			s.Triggers[i] += n
		}
	}
	return s
}

// noteFluid records a fidelity trigger on the partition: plain field
// writes, so the drop/mark/failover paths that call it stay allocation-
// and lock-free. No-op in pure packet mode.
func (ps *fabricPart) noteFluid(tr FluidTrigger) {
	if ps.fab.fluid == nil {
		return
	}
	ps.fluidTrigN[tr]++
	now := ps.eng.Now()
	if !ps.fluidNoted {
		ps.fluidTrig = tr
		ps.fluidNoteAt = now
		ps.fluidNoted = true
	} else if now > ps.fluidNoteAt {
		ps.fluidNoteAt = now
	}
}

// engineHook is the serial-fabric fast-forward hook: before the engine
// commits to its next event, fold any trigger notes written by the event
// that just ran, demoting fluid flows at the note's timestamp. Completions
// are scheduled eagerly at admission on serial fabrics, so folding is the
// hook's whole job — the clock jump to the next (analytic) event is the
// heap's.
func (t *FlowTable) engineHook(now, until sim.Time) {
	if t.fab.parts[0].fluidNoted {
		t.fold()
	}
}

// fold merges the per-partition trigger notes into the table: bump the
// hold-off past the latest note and flush every fluid flow at that time.
// Runs single-threaded (engine hook or barrier) by construction.
//
//lint:barrier — engine fast-forward hook or barrier coordinator; never inside a window
func (t *FlowTable) fold() {
	noted := false
	var at sim.Time
	for _, ps := range t.fab.parts {
		if ps.fluidNoted {
			ps.fluidNoted = false
			ps.fluidTrig = TriggerNone
			if !noted || ps.fluidNoteAt > at {
				at = ps.fluidNoteAt
			}
			noted = true
		}
	}
	if !noted {
		return
	}
	if hu := at.Add(t.cfg.HoldOff); hu > t.holdUntil {
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
// flight). Runs at single-threaded points; at a barrier every engine's
// clock agrees, so partition 0's now is the flush time.
//
//lint:barrier — single-threaded flush point; every engine clock agrees here
func (t *FlowTable) flushAll() {
	now := t.fab.parts[0].eng.Now()
	t.stats.Demotions++
	for _, f := range t.flows {
		f.tracked = false
		k := f.sentBy(now)
		if k >= f.n {
			// Fully sent; the fin is in analytic flight. On serial fabrics
			// the completion event already exists; on coupled ones it has
			// not been materialized yet — do it now.
			if !f.done.Active() {
				t.materialize(f, now)
			}
			continue
		}
		f.done.Cancel()
		f.fluid = false
		f.svc.resume(f, k, now)
		t.scheduled = true
	}
	t.flows = t.flows[:0]
}

// materialize schedules the flow's analytic completion as a real event on
// the destination partition's engine (clamped to its current time — the
// recorded latency stays analytic either way).
func (t *FlowTable) materialize(f *fluidFlow, now sim.Time) {
	at := f.finArrival()
	if at < now {
		at = now
	}
	f.done = f.dst.part.eng.AtArg(at, fluidDone, f)
	t.scheduled = true
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

// admit attempts to promote f to a fluid flow at the current time. On
// refusal the caller paces f's packets for real. An infeasible admission
// with fluid flows active is incast onset: every fluid flow is flushed
// too, so the contention is simulated at packet fidelity.
//
//lint:barrier — reached only from Admit (serial fabric) or BarrierAdvance (coordinator)
func (t *FlowTable) admit(f *fluidFlow, now sim.Time) bool {
	if !t.eligible(now) {
		t.stats.Rejected++
		return false
	}
	if !t.resolvePath(f) {
		t.stats.Rejected++
		return false
	}
	if !t.feasible(f) {
		t.stats.Rejected++
		if len(t.flows) > 0 {
			t.fab.parts[0].fluidTrigN[TriggerIncast]++
			if hu := now.Add(t.cfg.HoldOff); hu > t.holdUntil {
				t.holdUntil = hu
			}
			t.flushAll()
		}
		return false
	}
	f.fluid = true
	f.tracked = true
	t.flows = append(t.flows, f)
	t.stats.Admitted++
	return true
}

// Admit is the serial-fabric admission path, called synchronously from
// the transfer's start event: fold pending notes, then admit and — if
// promoted — schedule the analytic completion eagerly, so the engine can
// jump straight to it.
//
//lint:barrier — serial fabric only: one engine, no concurrent window
func (t *FlowTable) Admit(f *fluidFlow) bool {
	t.fold()
	now := t.fab.parts[0].eng.Now()
	if !t.admit(f, now) {
		return false
	}
	t.materialize(f, now)
	return true
}

// BarrierAdvance is the coupled-fabric integration point, installed as
// runtime.Coupled.FastForward and called at every barrier with the
// runner's next-event horizon. It folds trigger notes (demoting at the
// barrier time if any fired), admits transfers that started during the
// last window (partition order, then start order — deterministic for any
// worker count), and materializes completions due within the upcoming
// window (all of them when no packet event remains). Returns true if any
// event was scheduled, so the runner recomputes its horizon.
//
//lint:barrier — the coupled runner's barrier callback itself
func (t *FlowTable) BarrierAdvance(next sim.Time, ok bool) bool {
	t.scheduled = false
	t.fold()
	now := t.fab.parts[0].eng.Now()
	for _, ps := range t.fab.parts {
		for _, f := range ps.fluidPending {
			if t.admit(f, now) {
				continue
			}
			f.svc.resume(f, 0, now)
			t.scheduled = true
		}
		ps.fluidPending = ps.fluidPending[:0]
	}
	horizon := sim.Time(math.MaxInt64)
	if ok {
		horizon = next.Add(t.fab.Lookahead())
	}
	for i := 0; i < len(t.flows); {
		f := t.flows[i]
		if f.finArrival() <= horizon {
			t.materialize(f, now)
			f.tracked = false
			t.flows = append(t.flows[:i], t.flows[i+1:]...)
			continue
		}
		i++
	}
	return t.scheduled
}
