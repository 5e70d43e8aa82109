package simnet

import (
	"time"

	"lunasolar/internal/sim"
)

// Fabric partitioning for coupled parallel execution.
//
// A partitioned fabric splits one Clos across P engines: every rack (its
// ToR pair plus its hosts) belongs to exactly one partition, and spines,
// cores and DC routers are spread round-robin by their deterministic build
// index. Links whose endpoints land in different partitions are "cut": a
// frame traversing a cut link is not scheduled locally but handed to the
// peer partition's mailbox, carrying its deliver time, and materialized
// into the receiving partition's pool at the next barrier. The minimum
// propagation delay over cut links is the coupled runner's lookahead.
//
// Host↔ToR links are never cut — a rack is the unit of placement — so the
// lookahead is always a switch-to-switch propagation delay.

// PartPlan is a deterministic assignment of fabric nodes to partitions,
// computed from the Config alone. Which links it cuts, and so the
// lookahead, is read off the built fabric (CutPorts, Lookahead).
type PartPlan struct {
	parts int
	cfg   Config
}

// PlanPartitions computes the partition assignment for cfg over the given
// partition count. parts < 1 is treated as 1.
func PlanPartitions(cfg Config, parts int) *PartPlan {
	if parts < 1 {
		parts = 1
	}
	return &PartPlan{parts: parts, cfg: cfg}
}

// Parts returns the partition count.
func (pl *PartPlan) Parts() int { return pl.parts }

// rackIndex is the global build index of a rack.
func (pl *PartPlan) rackIndex(dc, pod, rack int) int {
	return (dc*pl.cfg.PodsPerDC+pod)*pl.cfg.RacksPerPod + rack
}

// RackPart returns the partition owning a rack — its ToR pair and hosts.
func (pl *PartPlan) RackPart(dc, pod, rack int) int {
	return pl.rackIndex(dc, pod, rack) % pl.parts
}

// SpinePart returns the partition owning a pod spine.
func (pl *PartPlan) SpinePart(dc, pod, idx int) int {
	return ((dc*pl.cfg.PodsPerDC+pod)*pl.cfg.SpinesPerPod + idx) % pl.parts
}

// CorePart returns the partition owning a DC core switch.
func (pl *PartPlan) CorePart(dc, idx int) int {
	return (dc*pl.cfg.CoresPerDC + idx) % pl.parts
}

// DCRPart returns the partition owning a DC router.
func (pl *PartPlan) DCRPart(idx int) int { return idx % pl.parts }

// fabricPart is the per-partition slice of fabric state. Everything a
// packet's hot path touches — pools, free lists, drop counters, the drop
// randomness — lives here so partitions stay share-nothing within a
// window; the only cross-partition mutation is Mailbox.Post, which is
// thread-safe, and the barrier-time work below, which runs single-threaded
// on the coordinator.
//
//lint:partowned
type fabricPart struct {
	idx  int
	fab  *Fabric
	eng  *sim.Engine
	rand *sim.Rand

	drops map[string]uint64

	pool     PacketPool
	freeXfer *sim.Pool[linkXfer]
	freeFwd  *sim.Pool[swFwd]

	inbox   crossInbox
	mb      sim.Mailbox
	freeMsg *sim.Pool[crossMsg]
	msgSeq  uint64
}

func (ps *fabricPart) countDrop(reason string) { ps.drops[reason]++ }

// crossMsg carries one frame across a partition boundary: the sender-pool
// packet held hostage until the barrier, the sending partition (for node
// recycling and leak accounting), and the receiver-side ingress port.
type crossMsg struct {
	pkt     *Packet
	from    *fabricPart
	ingress *Port
}

func (ps *fabricPart) getMsg() *crossMsg {
	if m := ps.freeMsg.Get(); m != nil {
		return m
	}
	return &crossMsg{}
}

func (ps *fabricPart) putMsg(m *crossMsg) {
	m.pkt, m.from, m.ingress = nil, nil, nil
	ps.freeMsg.Put(m)
}

// crossInbox is a partition's inbound face: the cut-link transmit path
// hands frames to the peer partition through it.
//
//lint:crossing
type crossInbox struct {
	part *fabricPart
}

// Handoff transfers ownership of pkt to the inbox's partition, to be
// delivered at the given virtual time. It is the cross-partition
// counterpart of Packet.Release: the caller's reference is consumed (the
// receiving partition now owes the Release), which the slabown analyzer
// checks like any other release — using pkt after Handoff is a bug.
func (mb *crossInbox) Handoff(pkt *Packet, at sim.Time, from *fabricPart, ingress *Port) {
	m := from.getMsg()
	m.pkt, m.from, m.ingress = pkt, from, ingress
	from.msgSeq++
	mb.part.mb.Post(sim.Inbound{At: at, Src: from.idx, Seq: from.msgSeq, Arg: m})
}

// accept materializes one handed-off frame into this partition at a
// barrier: copy the frame into receiver-owned pool storage (the envelope,
// payload, zero-copy fragment and INT hops), release the sender's packet
// back to its own pool, and schedule local delivery at the frame's
// propagation-determined arrival time. The copy is counted against the
// pool's copy budget — a cut link is a real memory-domain crossing, the
// one place the zero-copy discipline legitimately pays a copy.
//
// Runs only on the barrier coordinator while no window is active, so
// touching two partitions' pools (and the non-atomic slab refcounts) here
// is single-threaded by construction.
func (ps *fabricPart) accept(at sim.Time, m *crossMsg) {
	src := m.pkt
	dst := ps.pool.Get(0)
	dst.Src, dst.Dst = src.Src, src.Dst
	dst.Proto = src.Proto
	dst.SrcPort, dst.DstPort = src.SrcPort, src.DstPort
	dst.ECN, dst.TTL = src.ECN, src.TTL
	dst.Overhead = src.Overhead
	dst.SentAt = src.SentAt
	if len(src.Payload) > 0 {
		dst.Payload = ps.pool.GetBuf(len(src.Payload))
		copy(dst.Payload, src.Payload)
		dst.ownsPayload = true
		ps.pool.CountCopy(len(src.Payload))
	}
	if len(src.Frag) > 0 {
		s := ps.pool.GetSlab(len(src.Frag))
		copy(s.Bytes(), src.Frag)
		dst.AttachFrag(s, s.Bytes())
		s.Release() // the packet's reference from AttachFrag is now the only one
		ps.pool.CountCopy(len(src.Frag))
	}
	if src.INT != nil {
		dst.ResetINT()
		dst.intStore.Hops = append(dst.intStore.Hops, src.INT.Hops...)
	}
	src.Release()
	ingress := m.ingress
	m.from.putMsg(m)
	x := ps.getXfer()
	x.port, x.pkt = ingress, dst
	ps.eng.AtArg(at, crossDeliver, x)
}

// NewPartitioned builds the fabric described by cfg split across the given
// engines, one partition per engine, as PlanPartitions(cfg, len(engs))
// assigns them. A single-engine call is exactly New.
func NewPartitioned(engs []*sim.Engine, cfg Config) *Fabric {
	return build(engs, cfg, PlanPartitions(cfg, len(engs)))
}

// Parts returns the fabric's partition count (1 for serial fabrics).
func (f *Fabric) Parts() int { return len(f.parts) }

// PartEngine returns partition i's engine.
func (f *Fabric) PartEngine(i int) *sim.Engine { return f.parts[i].eng }

// Engines returns the partition engines in partition order.
func (f *Fabric) Engines() []*sim.Engine {
	out := make([]*sim.Engine, len(f.parts))
	for i, ps := range f.parts {
		out[i] = ps.eng
	}
	return out
}

// CutPorts returns every port whose link crosses a partition boundary, in
// build order (both ends of each cut link appear).
func (f *Fabric) CutPorts() []*Port { return f.cutPorts }

// Lookahead returns the minimum propagation delay over the built fabric's
// cut links, or 0 when nothing is cut.
func (f *Fabric) Lookahead() time.Duration {
	var min time.Duration
	for _, p := range f.cutPorts {
		if min == 0 || p.propDelay < min {
			min = p.propDelay
		}
	}
	return min
}

// PublishCutState refreshes the peer-state snapshots on every cut port:
// link-up, peer-switch liveness and fail time. Forwarding decisions at a
// cut port read these snapshots instead of the live peer (which another
// partition may be mutating mid-window); refreshing them only at barriers
// bounds the staleness by one lookahead — physically, the time a real
// link-state or routing update would take to cross the same wire — and
// keeps the refresh points identical for every worker count.
//
//lint:barrier — coordinator-only refresh between windows (see staleness argument above)
func (f *Fabric) PublishCutState() {
	for _, p := range f.cutPorts {
		peer := p.peer
		p.pubPeerUp = peer.up
		if sw, ok := peer.owner.(*Switch); ok {
			p.pubPeerIsSwitch = true
			p.pubPeerAlive = sw.alive
			p.pubPeerDownAt = sw.downAt
		} else {
			p.pubPeerIsSwitch = false
			p.pubPeerAlive = true
		}
	}
}

// DrainInboxes materializes every handed-off frame into its receiving
// partition, walking partitions in index order and each mailbox in
// (time, source partition, sequence) order — the deterministic merge the
// coupled runner's determinism argument rests on. Must only be called
// from the barrier coordinator while no window is running.
//
//lint:barrier — barrier coordinator only, per the contract above
func (f *Fabric) DrainInboxes() {
	for _, ps := range f.parts {
		part := ps
		part.mb.Drain(func(in sim.Inbound) {
			part.accept(in.At, in.Arg.(*crossMsg))
		})
	}
}

// InboxPending returns the number of handed-off frames not yet
// materialized (nonzero only between a window and its barrier, or when a
// bounded run stopped with traffic in flight).
func (f *Fabric) InboxPending() int {
	n := 0
	for _, ps := range f.parts {
		n += ps.mb.Len()
	}
	return n
}

// OutstandingAll sums outstanding pool references across partitions, in
// partition order. The per-partition leak gate: with every engine drained
// and every inbox empty, each partition's pool must individually balance,
// and this sum is zero.
//
//lint:barrier — leak gate: runs after a full drain, no window active
func (f *Fabric) OutstandingAll() uint64 {
	var n uint64
	for _, ps := range f.parts {
		n += ps.pool.Outstanding()
	}
	return n
}
