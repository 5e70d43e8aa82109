// Package tcpstack is a message-oriented reliable byte-stream transport
// over the simulated fabric — the engine behind both the kernel TCP
// baseline and Luna. The protocol machinery is genuine (byte-sequenced
// sliding window, cumulative ACKs with wraparound arithmetic, fast
// retransmit on duplicate ACKs, RTO with exponential backoff, bounded
// out-of-order reassembly buffers, ECN echo); what distinguishes kernel TCP
// from Luna is the Params cost model (per-packet/per-RPC CPU busy time and
// non-busy latency adders, copies vs zero-copy, TSO batching) — exactly the
// paper's framing, where Luna is "a user-space TCP stack" whose wins come
// from run-to-complete, zero-copy and share-nothing scheduling rather than
// protocol changes.
package tcpstack

import (
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// ListenPort is the well-known block-service port.
const ListenPort = 5010

// Params is the stack cost and protocol model.
type Params struct {
	MSS      int // segment payload bytes (1448 kernel-era, 4096 with jumbo)
	InitCwnd int
	MaxCwnd  int
	MinRTO   time.Duration
	MaxRTO   time.Duration
	UseECN   bool // DCTCP-style marking/echo (Luna); plain AIMD otherwise

	// CPU busy time charged to the core pool.
	PerRPCTxCPU time.Duration // marshalling + socket work per request/response
	PerRPCRxCPU time.Duration
	PerPktTxCPU time.Duration // per segment (and per pure ACK at half cost)
	PerPktRxCPU time.Duration
	CopyPer4K   time.Duration // payload copy cost per 4 KiB (zero for Luna)

	// Latency adders that do not consume CPU: syscall/wakeup/interrupt
	// coalescing for the kernel path; near zero for run-to-complete Luna.
	PerRPCTxDelay time.Duration
	PerRPCRxDelay time.Duration

	// TSOBatch > 1 amortizes PerPktTxCPU over that many segments
	// (TSO/GSO offload).
	TSOBatch int

	// RxBufferSegs bounds the out-of-order reassembly buffer per
	// connection; segments beyond it are dropped (receiver memory
	// pressure).
	RxBufferSegs int
}

// Stack is one host endpoint. It implements transport.Stack.
type Stack struct {
	eng    *sim.Engine
	host   *simnet.Host
	params Params
	cores  *sim.Server
	pcie   *sim.Channel // optional DPU internal PCIe: payload crosses twice

	handler  transport.Handler
	conns    map[connKey]*conn
	clients  map[uint32]*conn // peer → the conn Call sends on (remotePort == ListenPort)
	pending  map[uint64]func(*transport.Response)
	ids      transport.IDAlloc
	pool     *simnet.PacketPool
	nextPort uint16
	freeRx   *sim.Pool[rxSeg]
	freeTx   *sim.Pool[txSeg]
	freeJobs *sim.Pool[rpcJob]

	// Stats.
	Retransmits uint64
	Timeouts    uint64
	EcnMarks    uint64 // CE-marked segments received
}

type connKey struct {
	peer       uint32
	localPort  uint16
	remotePort uint16
}

// New attaches a stack to a fabric host. cores is the CPU pool charged for
// stack processing; pcie, when non-nil, is the bare-metal DPU's internal
// channel every payload byte must cross twice (Fig. 10a).
func New(eng *sim.Engine, host *simnet.Host, cores *sim.Server, pcie *sim.Channel, params Params) *Stack {
	s := &Stack{
		eng:      eng,
		host:     host,
		params:   params,
		cores:    cores,
		pcie:     pcie,
		conns:    map[connKey]*conn{},
		clients:  map[uint32]*conn{},
		pending:  map[uint64]func(*transport.Response){},
		pool:     host.PacketPool(),
		nextPort: 20000,
		freeRx:   sim.NewPool[rxSeg](eng),
		freeTx:   sim.NewPool[txSeg](eng),
		freeJobs: sim.NewPool[rpcJob](eng),
	}
	if host.Handler == nil {
		host.Handler = s.receive
	}
	return s
}

// LocalAddr returns the host's fabric address.
func (s *Stack) LocalAddr() uint32 { return s.host.Addr() }

// SetHandler installs the server-side request handler.
func (s *Stack) SetHandler(h transport.Handler) { s.handler = h }

// Pool returns the host packet pool the stack draws its buffers from.
func (s *Stack) Pool() *simnet.PacketPool { return s.pool }

// connTo returns (creating if needed) the client connection to dst.
func (s *Stack) connTo(dst uint32) *conn {
	// One persistent connection per peer, like production SA↔block-server
	// sessions.
	if c := s.clients[dst]; c != nil {
		return c
	}
	s.nextPort++
	k := connKey{peer: dst, localPort: s.nextPort, remotePort: ListenPort}
	c := newConn(s, k)
	s.conns[k] = c
	s.clients[dst] = c
	return c
}

// Call implements transport.Client.
//
//lint:hotpath
func (s *Stack) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	id := s.ids.Next()
	s.pending[id] = done
	j := s.getJob(s.connTo(dst), id)
	j.req = req
	// Per-RPC CPU + non-busy latency, then enqueue on the stream.
	s.cores.SubmitArg(s.params.PerRPCTxCPU+s.copyCost(len(req.Data)), rpcTxCharged, j)
}

func (s *Stack) copyCost(payload int) time.Duration {
	if s.params.CopyPer4K == 0 || payload == 0 {
		return 0
	}
	return time.Duration(float64(s.params.CopyPer4K) * float64(payload) / 4096)
}

// ReceivePacket feeds one inbound frame into the stack; hosts running
// multiple stacks route frames here through a simnet.Mux.
func (s *Stack) ReceivePacket(pkt *simnet.Packet) { s.receive(pkt) }

// receive demultiplexes an arriving frame to its connection. The stack
// takes ownership of the frame; it is released once the segment has been
// processed, so whatever the connection keeps it copies: in-order bytes into
// their record's payload, an out-of-order segment into the reassembly
// buffer.
//
//lint:hotpath
func (s *Stack) receive(pkt *simnet.Packet) {
	var hdr wire.TCPSeg
	if err := hdr.Decode(pkt.Payload); err != nil {
		pkt.Release()
		return
	}
	k := connKey{peer: pkt.Src, localPort: hdr.DstPort, remotePort: hdr.SrcPort}
	c := s.conns[k]
	if c == nil {
		if hdr.DstPort != ListenPort {
			pkt.Release()
			return // stale segment for a forgotten connection
		}
		c = newConn(s, k)
		s.conns[k] = c
	}
	n := len(pkt.Payload) - wire.TCPSegSize
	r := s.getRx()
	r.c, r.pkt, r.hdr, r.ce = c, pkt, hdr, pkt.ECN == wire.ECNCE
	if r.ce {
		s.EcnMarks++
	}

	// Per-packet receive CPU (pure ACKs cost half), then protocol
	// processing. PCIe crossing for payload-bearing segments.
	r.cost = s.params.PerPktRxCPU
	if n == 0 {
		r.cost /= 2
	}
	if s.pcie != nil && n > 0 {
		s.pcie.TransferArg(2*n, rxCrossed, r)
		return
	}
	s.cores.SubmitArg(r.cost, rxArrived, r)
}

// dispatchRecord hands one complete record up the stack, after the per-RPC
// receive charge and latency.
//
//lint:hotpath
func (s *Stack) dispatchRecord(c *conn, rec record) {
	j := s.getJob(c, rec.rpc.RPCID)
	j.rec = rec
	s.cores.SubmitArg(s.params.PerRPCRxCPU+s.copyCost(len(rec.payload)), rpcRxCharged, j)
}

// --- stream records -------------------------------------------------------

// record is one framed RPC on the stream:
// [u32 totalLen][wire.RPC][wire.EBS][payload]. A request's payload is
// pooled: slab holds the reference on it.
type record struct {
	rpc     wire.RPC
	ebs     wire.EBS
	payload []byte
	slab    *simnet.Slab
}

const recordHdrSize = wire.RecordHeaderSize

// makeRecordSpan frames one RPC as a stream span: the record header
// encoded into a pooled prefix, the payload attached by reference — it
// shares the request's or response's slab (retaining it) or wraps the
// caller's buffer without copying.
func (s *Stack) makeRecordSpan(id uint64, op uint8, req *transport.Message, resp *transport.Response) span {
	var payload []byte
	var slab *simnet.Slab
	var ebs wire.EBS
	if req != nil {
		payload, slab, ebs = req.Data, req.Payload, transport.RequestHeader(req)
	} else {
		payload, slab, ebs = resp.Data, resp.Payload, transport.ResponseHeader(resp)
	}
	rpc := wire.RPC{RPCID: id, MsgType: op, NumPkts: 1}
	sp := span{hdr: s.pool.GetBuf(recordHdrSize)}
	if err := wire.EncodeRecordHeader(sp.hdr, recordHdrSize+len(payload), &rpc, &ebs); err != nil {
		panic(err)
	}
	if len(payload) == 0 {
		return sp
	}
	if slab != nil {
		sp.slab = slab.Retain()
	} else {
		sp.slab = s.pool.WrapSlab(payload)
	}
	sp.pay = payload
	return sp
}

var _ transport.Stack = (*Stack)(nil)
