package core

import (
	"time"

	"lunasolar/internal/cc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// peer is the per-destination multipath state: N persistent paths plus a
// backlog of window-blocked packets.
type peer struct {
	addr    uint32
	paths   []*path
	backlog []*outPkt
}

// path is one persistent fabric path, identified by its UDP source port.
// ECMP's consistent hash keeps the port on a stable switch-level route, so
// per-path RTT and telemetry are meaningful.
type path struct {
	id   uint16
	rtt  *transport.RTT
	ctrl cc.Controller
	ewma time.Duration // EWMA RTT for the "favour the low-RTT path" rule

	inflightBytes int
	consecTO      int
	lastAckAt     sim.Time // for idle-path probing
	seq           uint64   // per-path transmission sequence
	maxAckedSeq   uint64   // highest pathSeq acknowledged
	outstanding   []outRef // send order; stale/acked entries skipped lazily

	sent, acked, failed uint64

	tele pathTelemetry // INT summary folded from echoed acks
}

// outRef is a generation-checked reference into a path's send queue.
// Packet records recycle when acknowledged; a ref whose generation no
// longer matches points at a recycled record and is skipped.
type outRef struct {
	e   *outPkt
	gen uint32
}

func (r outRef) live() bool { return r.e.gen == r.gen }

// outPkt is one reliably-delivered Solar packet (a write block, a read
// request, or a read-response block). Records are pooled per stack; see
// pool.go for the recycling rules.
type outPkt struct {
	key     pktKey
	msgType uint8
	pathSeq uint64 // per-path send sequence, for OOO loss detection
	ebs     wire.EBS
	payload []byte
	size    int // wire payload size (headers + data)

	// slab owns the payload bytes: every (re)transmitted frame attaches it
	// as a fragment, and the reference is released when the packet is
	// recycled. Nil on header-only packets (read requests, rejects).
	slab *simnet.Slab

	owner  *Stack
	pe     *peer
	path   *path
	retx   transport.Retransmitter // per-packet RTO; Consecutive() doubles as the retry count
	gen    uint32                  // bumped on recycle; validates outRefs
	sentAt sim.Time
	acked  bool
}

type pktKey struct {
	rpcID uint64
	pktID uint16
}

type serveKey struct {
	peer  uint32
	rpcID uint64
}

// outKey globally identifies an unacknowledged packet: server-sourced read
// responses reuse the client's RPC ID, so the peer address disambiguates.
type outKey struct {
	peer uint32
	k    pktKey
}

// addrWaiter is a read waiting for Addr-table capacity.
type addrWaiter struct {
	r     *rpc
	since sim.Time
}

func (s *Stack) peerFor(addr uint32) *peer {
	p := s.peers[addr]
	if p != nil {
		return p
	}
	p = &peer{addr: addr}
	for i := 0; i < s.params.NumPaths; i++ {
		p.paths = append(p.paths, s.newPath())
	}
	s.peers[addr] = p
	s.startProber(p)
	return p
}

// maxPktSize is the largest Solar packet (headers + one block); the HPCC
// window floor must admit at least one, or a collapsed window could stall
// the path permanently.
const maxPktSize = wire.RPCSize + wire.EBSSize + wire.BlockSize

func (s *Stack) newPath() *path {
	return &path{
		id:   s.allocPort(),
		rtt:  transport.NewRTT(s.params.MinRTO, s.params.MaxRTO),
		ctrl: cc.NewHPCC(maxPktSize, s.params.InitCwnd, s.params.MaxCwnd, s.params.BaseRTT),
	}
}

// pickPath selects the lowest-EWMA-RTT path with window headroom for size
// bytes. Unprobed paths (ewma 0) are tried eagerly so all paths stay warm.
// When every window is full but some path is completely idle, the idle one
// is returned: a sender must always be able to keep one packet in flight,
// or a collapsed window would deadlock the backlog.
func (pe *peer) pickPath(size int) *path {
	var best, idle *path
	for _, p := range pe.paths {
		if p.inflightBytes == 0 && idle == nil {
			idle = p
		}
		if p.inflightBytes+size > p.ctrl.Window() {
			continue
		}
		if best == nil {
			best = p
			continue
		}
		// Prefer unmeasured paths, then lower EWMA RTT.
		switch {
		case p.ewma == 0 && best.ewma != 0:
			best = p
		case p.ewma != 0 && best.ewma != 0 && p.ewma < best.ewma:
			best = p
		}
	}
	if best == nil {
		return idle
	}
	return best
}

// observe updates path condition from an acknowledgment.
func (p *path) observe(rtt time.Duration, fb cc.Feedback) {
	p.rtt.Observe(rtt)
	if p.ewma == 0 {
		p.ewma = rtt
	} else {
		p.ewma = (7*p.ewma + rtt) / 8
	}
	p.consecTO = 0
	p.acked++
	p.ctrl.OnAck(fb)
}

// failover replaces a failed path with a fresh source port — ECMP re-hashes
// the new 5-tuple onto a (very likely) different fabric route, routing
// around blackholes and hung switches within milliseconds (§4.5).
func (s *Stack) failover(pe *peer, old *path) *path {
	old.failed++
	s.PathFailovers++
	np := s.newPath()
	s.rec.Record(s.eng.Now().Duration(), trace.EvFailover, uint64(old.id), uint64(np.id))
	for i, p := range pe.paths {
		if p == old {
			pe.paths[i] = np
			break
		}
	}
	// Re-home the old path's outstanding packets.
	for _, r := range old.outstanding {
		if r.live() && !r.e.acked && r.e.path == old {
			r.e.path = np
		}
	}
	np.outstanding = append(np.outstanding, old.outstanding...)
	np.inflightBytes = old.inflightBytes
	return np
}
