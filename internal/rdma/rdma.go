// Package rdma models an RDMA RC (reliable connection) transport — the
// backend-network stack behind Luna and Solar, and the frontend baseline of
// Figs. 14–15. The protocol machinery is real: per-QP packet sequence
// numbers with go-back-N recovery (the pre-Selective-Repeat RNICs of §3.1),
// cumulative ACKs and NAKs, hardware retransmission timers, and message
// reassembly. Host CPU is charged only per message (posting and polling
// work requests); the packet path is "hardware". The era's scalability
// cliff is modelled as an LRU QP-context cache on the NIC: beyond its
// capacity every packet pays a context-fetch penalty ("the overall
// throughput of the RNIC went down quickly after the number of connections
// was beyond 5,000").
package rdma

import (
	"time"

	"lunasolar/internal/cc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Proto is the IP protocol number the fabric demultiplexes RDMA frames on
// (RoCEv2 in production rides UDP/4791; a dedicated protocol number keeps
// host-side demux trivial here).
const Proto = 254

// ListenPort is the well-known service QP number.
const ListenPort = 6010

// Params is the RC model.
type Params struct {
	MTU        int // packet payload (4096)
	WindowPkts int // send window per QP (the inflight bound all controllers inherit)
	MinRTO     time.Duration
	MaxRTO     time.Duration

	PerRPCCPU time.Duration // post WQE + poll CQE per message

	QPCacheSize      int           // NIC connection-context cache
	CacheMissPenalty time.Duration // per packet on context miss

	// CC selects the congestion controller every QP runs. The zero value
	// (cc.KindStatic) is the hardware fixed window — byte-identical to the
	// stack before controllers were pluggable. KindDCQCN marks data
	// packets ECT and reacts to receiver CNPs by pacing; KindSwift reacts
	// to hop-scaled delay by shrinking the window.
	CC cc.Kind

	CNPInterval     time.Duration // min gap between CNPs per QP (DCQCN)
	SwiftBaseTarget time.Duration // Swift base target delay
	SwiftHopScale   time.Duration // Swift extra target per fabric hop
}

// DefaultParams returns the RC model used in the comparisons.
func DefaultParams() Params {
	return Params{
		MTU:              4096,
		WindowPkts:       32,
		MinRTO:           time.Millisecond,
		MaxRTO:           100 * time.Millisecond,
		PerRPCCPU:        700 * time.Nanosecond,
		QPCacheSize:      5000,
		CacheMissPenalty: 1500 * time.Nanosecond,
		CNPInterval:      50 * time.Microsecond,
		SwiftBaseTarget:  12 * time.Microsecond,
		SwiftHopScale:    3 * time.Microsecond,
	}
}

// Stack is one RDMA endpoint. It implements transport.Stack.
type Stack struct {
	eng    *sim.Engine
	host   *simnet.Host
	cores  *sim.Server
	pcie   *sim.Channel
	params Params

	qps       map[qpKey]*qp
	clientQP  map[uint32]*qp // peer → the QP Call sends on (remoteQPN == ListenPort)
	pending   map[uint64]func(*transport.Response)
	freeJobs  *sim.Pool[rpcJob]
	handler   transport.Handler
	ids       transport.IDAlloc
	pool      *simnet.PacketPool
	nextQPN   uint16
	cacheLRU  []qpKey     // front = coldest
	ctxFetch  *sim.Server // serialized context-fetch engine (miss bandwidth)
	lineBytes float64     // NIC port rate, bytes/s (DCQCN's rate ceiling)

	CacheMisses uint64
	Retransmits uint64
	CNPsSent    uint64
	CNPsRecv    uint64
}

type qpKey struct {
	peer      uint32
	localQPN  uint16
	remoteQPN uint16
}

// New attaches an RDMA stack to a host. Pass a mux-managed host by calling
// mux.Handle(rdma.Proto, s.ReceivePacket) instead of letting New own the
// host handler.
func New(eng *sim.Engine, host *simnet.Host, cores *sim.Server, pcie *sim.Channel, params Params) *Stack {
	if params.MTU <= 0 {
		params.MTU = 4096
	}
	if params.WindowPkts <= 0 {
		params.WindowPkts = 32
	}
	if params.CNPInterval <= 0 {
		params.CNPInterval = 50 * time.Microsecond
	}
	if params.SwiftBaseTarget <= 0 {
		params.SwiftBaseTarget = 12 * time.Microsecond
	}
	if params.SwiftHopScale <= 0 {
		params.SwiftHopScale = 3 * time.Microsecond
	}
	s := &Stack{
		eng:      eng,
		host:     host,
		cores:    cores,
		pcie:     pcie,
		params:   params,
		qps:      map[qpKey]*qp{},
		clientQP: map[uint32]*qp{},
		pending:  map[uint64]func(*transport.Response){},
		freeJobs: sim.NewPool[rpcJob](eng),
		nextQPN:  40000,
		ctxFetch: sim.NewServer(eng, "rnic-ctx", 1),
		pool:     host.PacketPool(),
	}
	if ports := host.Ports(); len(ports) > 0 {
		s.lineBytes = ports[0].RateBps() / 8
	}
	if host.Handler == nil {
		host.Handler = s.ReceivePacket
	}
	return s
}

// ccEnabled reports whether a reactive controller (anything beyond the
// static hardware window) is selected.
func (s *Stack) ccEnabled() bool { return s.params.CC != cc.KindStatic }

// newController builds one QP's congestion controller from the stack
// params. Every controller inherits the static baseline's inflight bound
// (WindowPkts × MTU) so the comparison isolates the reaction policy.
func (s *Stack) newController() cc.Controller {
	win := s.params.WindowPkts * s.params.MTU
	switch s.params.CC {
	case cc.KindDCQCN:
		return cc.NewDCQCN(s.params.MTU, win, s.lineBytes)
	case cc.KindSwift:
		return cc.NewSwift(s.params.MTU, win, win, s.params.SwiftBaseTarget, s.params.SwiftHopScale, s.lineBytes)
	default:
		return cc.NewStatic(win)
	}
}

// LocalAddr returns the host's fabric address.
func (s *Stack) LocalAddr() uint32 { return s.host.Addr() }

// SetHandler installs the server-side request handler.
func (s *Stack) SetHandler(h transport.Handler) { s.handler = h }

// cacheHit reports whether this QP's context is resident on the NIC, and
// on a hit moves it to the hot end of the LRU in place.
//
//lint:hotpath
func (s *Stack) cacheHit(k qpKey) bool {
	lru := s.cacheLRU
	for i, e := range lru {
		if e == k {
			copy(lru[i:], lru[i+1:])
			lru[len(lru)-1] = k
			return true
		}
	}
	return false
}

// cacheMiss fetches a QP context from host memory, evicting the coldest
// entry, and then runs then. Fetches serialize through the RNIC's single
// context engine, so beyond the cache size the fetch bandwidth — not the
// wire — caps throughput: the §3.1 cliff.
func (s *Stack) cacheMiss(k qpKey, then func()) {
	s.CacheMisses++
	// The context becomes resident only once the fetch completes: packets
	// arriving for this QP in the meantime miss too and queue behind the
	// engine — the thrash regime past the cache size.
	s.ctxFetch.Submit(s.params.CacheMissPenalty, func() {
		if lru := s.cacheLRU; len(lru) < s.params.QPCacheSize {
			s.cacheLRU = append(lru, k)
		} else if len(lru) > 0 {
			copy(lru, lru[1:])
			lru[len(lru)-1] = k
		}
		then()
	})
}

func (s *Stack) qpTo(dst uint32) *qp {
	if q := s.clientQP[dst]; q != nil {
		return q
	}
	s.nextQPN++
	k := qpKey{peer: dst, localQPN: s.nextQPN, remoteQPN: ListenPort}
	q := newQP(s, k)
	s.qps[k] = q
	s.clientQP[dst] = q
	return q
}

// Call implements transport.Client.
func (s *Stack) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	id := s.ids.Next()
	s.pending[id] = done
	j := s.getJob(s.qpTo(dst), id)
	j.req = req
	s.cores.SubmitArg(s.params.PerRPCCPU, rpcSend, j)
}

// ReceivePacket feeds one inbound frame into the stack. The stack takes
// ownership: the frame is released once packetArrived returns, which keeps
// a reference on the frame's slab for a request it delivers by reference
// and copies everything else it needs.
func (s *Stack) ReceivePacket(pkt *simnet.Packet) {
	var bth wire.TCPSeg
	if err := bth.Decode(pkt.Payload); err != nil {
		pkt.Release()
		return
	}
	k := qpKey{peer: pkt.Src, localQPN: bth.DstPort, remoteQPN: bth.SrcPort}
	q := s.qps[k]
	if q == nil {
		if bth.DstPort != ListenPort {
			pkt.Release()
			return // stale frame for a forgotten queue pair
		}
		q = newQP(s, k)
		s.qps[k] = q
	}
	data := len(pkt.Payload) - wire.TCPSegSize + len(pkt.Frag)
	if (s.pcie == nil || data == 0) && s.cacheHit(k) {
		q.packetArrived(bth, pkt)
		pkt.Release()
		return
	}
	s.receiveSlow(q, bth, pkt, data)
}

// receiveSlow is the arrival that has to wait: for the payload's PCIe
// crossing, a context fetch, or both.
func (s *Stack) receiveSlow(q *qp, bth wire.TCPSeg, pkt *simnet.Packet, data int) {
	step := func() { q.packetArrived(bth, pkt); pkt.Release() }
	if s.pcie == nil || data == 0 {
		s.cacheMiss(q.key, step)
		return
	}
	s.pcie.Transfer(2*data, func() {
		if s.cacheHit(q.key) {
			step()
		} else {
			s.cacheMiss(q.key, step)
		}
	})
}

var _ transport.Stack = (*Stack)(nil)
