package simnet

import (
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/wire"
)

// Node is anything a port can belong to: a Host or a Switch.
type Node interface {
	// Receive handles a packet arriving on one of the node's ports.
	Receive(pkt *Packet, ingress *Port)
	// Alive reports whether the node is currently functioning.
	Alive() bool
	// nodeName is a diagnostic label.
	nodeName() string
	// partRef is the partition owning the node (see partition.go).
	partRef() *fabricPart
}

// Port is one end of a link. Each port owns the egress direction: a
// store-and-forward output queue drained by a serializer at the link rate,
// with tail drop at the buffer limit, ECN marking above the threshold, and
// INT stamping at enqueue.
//
//lint:partowned
type Port struct {
	owner Node
	peer  *Port
	fab   *Fabric
	part  *fabricPart // the owner's partition

	id        int // port index on the owner, for diagnostics
	hopID     uint16
	rateBps   float64
	propDelay time.Duration
	bufBytes  int
	ecnThresh int

	up bool

	// cut marks a port whose peer lives in another partition. Cut ports
	// hand frames to the peer partition's mailbox instead of scheduling
	// delivery locally, and read the published peer-state snapshot below
	// instead of the live peer (which only the peer's partition may touch
	// mid-window). Snapshots refresh at every barrier (PublishCutState),
	// so they lag live state by at most one lookahead — the time any real
	// link-state signal would need to cross the same wire.
	cut             bool
	pubPeerUp       bool
	pubPeerIsSwitch bool
	pubPeerAlive    bool
	pubPeerDownAt   sim.Time

	// busyUntil is when the serializer frees up; q holds the frames
	// serializing until then, each leaving when its last bit is on the wire.
	busyUntil sim.Time
	q         *sim.Backlog

	// Telemetry counters: plain field writes that never feed back into
	// the simulation (the hotpath stays allocation-free).
	ecnMarks  uint64
	maxQueued int
}

// peerUp reports whether the link's far end is up, reading the published
// snapshot on cut ports and live state otherwise.
//
//lint:hotpath
func (p *Port) peerUp() bool {
	if p.cut {
		return p.pubPeerUp
	}
	return p.peer.up
}

// PartIndex returns the index of the partition owning the port's node.
func (p *Port) PartIndex() int { return p.part.idx }

// SetUp changes the port's link state (both directions of a link fail
// independently; FailLink takes both down). A transition either way is a
// fluid fidelity trigger: path capacity just changed.
func (p *Port) SetUp(up bool) {
	if p.up == up {
		return
	}
	p.up = up
	p.part.noteFluid(TriggerFailover)
}

// RateBps returns the link rate in bits/second.
func (p *Port) RateBps() float64 { return p.rateBps }

// serialization returns how long a frame of n bytes occupies the wire.
func (p *Port) serialization(n int) time.Duration {
	return time.Duration(float64(n*8) / p.rateBps * float64(time.Second))
}

// Send enqueues pkt on the port's output queue. It returns false if the
// packet was dropped (link down or tail drop). Delivery to the peer's owner
// happens after queueing + serialization + propagation.
//
//lint:hotpath
func (p *Port) Send(pkt *Packet) bool {
	eng := p.part.eng
	if !p.up || p.peer == nil || !p.peerUp() {
		p.part.countDrop("linkdown")
		return false
	}
	size := pkt.WireSize()
	queued := p.q.Queued()
	if queued+size > p.bufBytes {
		p.part.countDrop("taildrop")
		return false
	}
	// ECN: mark at enqueue if the queue already exceeds the threshold and
	// the flow is ECN-capable.
	if queued > p.ecnThresh && pkt.ECN == wire.ECNECT0 {
		pkt.ECN = wire.ECNCE
		p.ecnMarks++
		p.part.noteFluid(TriggerECN)
	}
	// INT: stamp telemetry at enqueue (queue depth seen by this packet).
	if pkt.INT != nil {
		pkt.INT.Push(wire.INTHop{
			HopID:   p.hopID,
			QLenB:   uint32(queued),
			TxBytes: p.q.Gone(),
			RateMbs: uint32(p.rateBps / 1e6),
			TSNanos: uint64(eng.Now()),
		})
	}
	queued += size
	if queued > p.maxQueued {
		p.maxQueued = queued
	}
	// Fluid low-water crossing: the queue just grew past the quiescence
	// threshold, so any analytically-advancing flow must drop back to
	// packet fidelity (fluidLow is zero in pure packet mode).
	if lw := p.fab.fluidLow; lw > 0 && queued > lw && queued-size <= lw {
		p.part.noteFluid(TriggerQueue)
	}
	now := eng.Now()
	start := p.busyUntil
	if start < now {
		start = now
	}
	ser := p.serialization(size)
	end := start.Add(ser)
	p.busyUntil = end
	// The frame leaves the queue at end, in the firing order place an event
	// scheduled now for end would take; nothing fires for it.
	p.q.Add(end, size)
	if p.cut {
		// Cross-partition link: the queue and serializer stay this port's,
		// but the frame itself is handed — ownership and all — to the peer
		// partition's mailbox, stamped with its propagation-determined
		// arrival time.
		p.peer.part.inbox.Handoff(pkt, end.Add(p.propDelay), p.part, p.peer)
		return true
	}
	x := p.part.getXfer()
	x.port, x.pkt = p, pkt
	eng.AtArg(end.Add(p.propDelay), linkDeliver, x)
	return true
}

// linkDeliver hands the frame to the peer's owner after propagation.
//
//lint:hotpath
func linkDeliver(a any) {
	x := a.(*linkXfer)
	p, pkt := x.port, x.pkt
	p.part.putXfer(x)
	peer := p.peer
	if peer.up && peer.owner.Alive() {
		peer.owner.Receive(pkt, peer)
	} else {
		p.part.countDrop("deadpeer")
		pkt.Release()
	}
}

// crossDeliver is linkDeliver's receiving-partition half: it runs on the
// ingress port's engine with a receiver-pool packet materialized at the
// barrier, applying the same liveness rules at the same virtual time as a
// local delivery would.
//
//lint:hotpath
func crossDeliver(a any) {
	x := a.(*linkXfer)
	p, pkt := x.port, x.pkt
	p.part.putXfer(x)
	if p.up && p.owner.Alive() {
		p.owner.Receive(pkt, p)
	} else {
		p.part.countDrop("deadpeer")
		pkt.Release()
	}
}

// connect wires two ports as a full-duplex link. Endpoints in different
// partitions make both ports cut.
func connect(f *Fabric, a, b Node, rateBps float64, prop time.Duration, buf, ecn int) (*Port, *Port) {
	f.hopSeq++
	pa := &Port{owner: a, fab: f, part: a.partRef(), q: sim.NewBacklog(a.partRef().eng), rateBps: rateBps, propDelay: prop, bufBytes: buf, ecnThresh: ecn, up: true, hopID: f.hopSeq}
	f.hopSeq++
	pb := &Port{owner: b, fab: f, part: b.partRef(), q: sim.NewBacklog(b.partRef().eng), rateBps: rateBps, propDelay: prop, bufBytes: buf, ecnThresh: ecn, up: true, hopID: f.hopSeq}
	pa.peer, pb.peer = pb, pa
	if pa.part != pb.part {
		pa.cut, pb.cut = true, true
		f.cutPorts = append(f.cutPorts, pa, pb)
	}
	return pa, pb
}

// Host is a server attached to the fabric via two ports (one to each ToR of
// its rack's pair). The attached network stack registers a Handler to
// receive frames.
type Host struct {
	fab     *Fabric
	part    *fabricPart
	addr    uint32
	ports   []*Port
	Handler func(pkt *Packet)
	name    string

	txPackets uint64
}

// Addr returns the host's fabric address.
func (h *Host) Addr() uint32 { return h.addr }

// Name returns the host's diagnostic name.
func (h *Host) Name() string { return h.name }

// Engine returns the engine owning the host's partition. Stacks and
// servers attached to this host must schedule on it.
func (h *Host) Engine() *sim.Engine { return h.part.eng }

// PartIndex returns the index of the partition owning the host.
func (h *Host) PartIndex() int { return h.part.idx }

func (h *Host) partRef() *fabricPart { return h.part }

// Alive always reports true: the experiments fail the network, not hosts.
func (h *Host) Alive() bool { return true }

func (h *Host) nodeName() string { return h.name }

// Receive delivers a frame to the registered handler.
func (h *Host) Receive(pkt *Packet, _ *Port) {
	if h.Handler != nil {
		h.Handler(pkt)
	}
}

// TxPackets returns frames the host attempted to send.
func (h *Host) TxPackets() uint64 { return h.txPackets }

// Send transmits a packet, selecting among the host's up ports by flow
// hash (NIC bonding). It returns false if the frame was dropped locally.
func (h *Host) Send(pkt *Packet) bool {
	h.txPackets++
	pkt.Src = h.addr
	if pkt.TTL == 0 {
		pkt.TTL = 64
	}
	// NIC bonding reacts to link signal only: a ToR that hangs with its
	// ports electrically up keeps receiving (and losing) the flows hashed
	// to it — the scenario that hurts single-path stacks in Table 2.
	// Counting then indexing (instead of building a slice) keeps the
	// per-packet path allocation-free.
	up := 0
	for _, p := range h.ports {
		if p.up && p.peerUp() {
			up++
		}
	}
	if up == 0 {
		h.part.countDrop("hostdark")
		return false
	}
	k := int(FlowHash(pkt, 0x9e3779b9) % uint32(up))
	for _, p := range h.ports {
		if p.up && p.peerUp() {
			if k == 0 {
				return p.Send(pkt)
			}
			k--
		}
	}
	return false
}

// PacketPool returns the packet pool of the host's partition; stacks
// attached to this host draw from and return to it.
func (h *Host) PacketPool() *PacketPool { return &h.part.pool }

// Ports exposes the host's NIC ports (tests and failure drills use this).
func (h *Host) Ports() []*Port { return h.ports }
