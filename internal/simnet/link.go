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
}

// Port is one end of a link. Each port owns the egress direction: a
// store-and-forward output queue drained by a serializer at the link rate,
// with tail drop at the buffer limit, ECN marking above the threshold, and
// INT stamping at enqueue.
type Port struct {
	owner Node
	peer  *Port
	fab   *Fabric

	id        int // port index on the owner, for diagnostics
	hopID     uint16
	rateBps   float64
	propDelay time.Duration
	bufBytes  int

	up bool

	// busyUntil is when the serializer frees up; q holds the frames
	// serializing until then, each leaving when its last bit is on the wire.
	busyUntil sim.Time
	q         *sim.Backlog

	// Telemetry counters: plain field writes that never feed back into
	// the simulation (the hotpath stays allocation-free).
	ecnMarks  uint64
	maxQueued int
}

// SetUp changes the port's link state (both directions of a link fail
// independently; FailLink takes both down).
func (p *Port) SetUp(up bool) {
	p.up = up
	p.fab.epoch++
}

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
	eng := p.fab.Eng
	if !p.up || p.peer == nil || !p.peer.up {
		p.fab.countDrop("linkdown")
		return false
	}
	size := pkt.WireSize()
	queued := p.q.Queued()
	if queued+size > p.bufBytes {
		p.fab.countDrop("taildrop")
		return false
	}
	// ECN: mark at enqueue if the queue already exceeds the threshold and
	// the flow is ECN-capable.
	if queued > ECNThresholdBytes && pkt.ECN == wire.ECNECT0 {
		pkt.ECN = wire.ECNCE
		p.ecnMarks++
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
	x := p.fab.getXfer()
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
	p.fab.putXfer(x)
	peer := p.peer
	if peer.up && peer.owner.Alive() {
		peer.owner.Receive(pkt, peer)
	} else {
		p.fab.countDrop("deadpeer")
		pkt.Release()
	}
}

// connect wires two ports as a full-duplex link.
func connect(f *Fabric, a, b Node, rateBps float64, prop time.Duration, buf int) (*Port, *Port) {
	f.hopSeq++
	pa := &Port{owner: a, fab: f, q: sim.NewBacklog(f.Eng), rateBps: rateBps, propDelay: prop, bufBytes: buf, up: true, hopID: f.hopSeq}
	f.hopSeq++
	pb := &Port{owner: b, fab: f, q: sim.NewBacklog(f.Eng), rateBps: rateBps, propDelay: prop, bufBytes: buf, up: true, hopID: f.hopSeq}
	pa.peer, pb.peer = pb, pa
	return pa, pb
}

// Host is a server attached to the fabric via two ports (one to each ToR of
// its rack's pair). The attached network stack registers a Handler to
// receive frames.
type Host struct {
	fab     *Fabric
	addr    uint32
	ports   []*Port
	Handler func(pkt *Packet)

	txPackets uint64
}

// Addr returns the host's fabric address.
func (h *Host) Addr() uint32 { return h.addr }

// Alive always reports true: the experiments fail the network, not hosts.
func (h *Host) Alive() bool { return true }

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
	pkt.flow, pkt.hasFlow = flowState(pkt), true
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
		if p.up && p.peer.up {
			up++
		}
	}
	if up == 0 {
		h.fab.countDrop("hostdark")
		return false
	}
	k := int(pkt.flowHash(0x9e3779b9) % uint32(up))
	for _, p := range h.ports {
		if p.up && p.peer.up {
			if k == 0 {
				return p.Send(pkt)
			}
			k--
		}
	}
	return false
}

// PacketPool returns the fabric's packet pool; stacks attached to this
// host draw from and return to it.
func (h *Host) PacketPool() *PacketPool { return &h.fab.pool }

// Ports exposes the host's NIC ports (tests and failure drills use this).
func (h *Host) Ports() []*Port { return h.ports }
