// Package transport defines the interface every frontend-network stack
// (kernel TCP, Luna, RDMA, Solar) implements, plus the pieces they share:
// Jacobson RTT estimation, retransmission timer state, and RPC ID
// allocation. The storage agent and block server are written against this
// interface, which is how every cross-stack comparison in the paper's
// evaluation runs on identical storage code.
package transport

import (
	"errors"
	"slices"
	"time"

	"lunasolar/internal/simnet"
)

// Message is one storage RPC: a WRITE carrying block data toward a block
// server, or a READ requesting blocks back. Addressing fields mirror the
// EBS wire header; Data is real bytes.
type Message struct {
	Op        uint8 // wire.RPCWriteReq or wire.RPCReadReq
	VDisk     uint32
	SegmentID uint64
	LBA       uint64
	Gen       uint32
	Flags     uint8
	Data      []byte // WRITE: payload (multiple 4 KiB blocks)
	ReadLen   int    // READ: bytes requested

	// Payload, when non-nil, is the refcounted slab whose bytes Data
	// aliases. The reference belongs to whoever set the
	// field — a stack receive path or a fan-out layer — and only that
	// owner releases it; stacks that keep the payload in flight Retain
	// their own references instead of copying the bytes.
	Payload *simnet.Slab

	// BlockCRCs carries the raw CRC-32C of each 4 KiB block of Data,
	// computed once at SA ingress (nil means "recompute locally").
	// Downstream stages
	// verify by folding these with crc.CombineBlocks instead of
	// re-walking payload bytes.
	BlockCRCs []uint32
}

// Response is the outcome of a Call. ServerWall and SSDTime are the
// distributed-trace annotations Fig. 6's latency breakdown needs: total
// residence time in the block server (BN replication + media) and the
// media portion alone.
type Response struct {
	Data []byte // READ: payload
	Err  error

	// Payload, when non-nil, is the refcounted slab whose bytes Data
	// aliases, as Message.Payload is for a request. The reference belongs
	// to whoever set the field and is released once the function the
	// response was passed to returns: a replier that drew Data from its
	// stack's pool (the chunk server's read buffer) releases it after
	// reply, a stack that delivers an inbound response in pooled memory
	// (rdma) after done. So a stack that keeps Data in flight past reply,
	// or a receiver that keeps it past done, Retains the slab (a relay,
	// such as the block server's FN reply) or copies the bytes (the
	// storage agent handing them to a guest).
	Payload *simnet.Slab

	// BlockCRCs returns the stored raw CRC-32C per 4 KiB block of Data on
	// reads, so the reader verifies against device
	// metadata without the server re-walking the bytes.
	BlockCRCs []uint32

	ServerWall time.Duration // block-server residence time (BN + SSD)
	SSDTime    time.Duration // chunk-server + media portion
}

// Handler processes an inbound request on the server side and must
// eventually invoke reply exactly once. Both envelopes are valid until the
// function they were passed to returns — req until reply, the response until
// reply (at the client, done) — and whoever needs one or its BlockCRCs later
// copies them. The same holds for Data whenever the envelope's Payload is
// set: req.Data is pooled memory the stack recycles after reply, and an
// inbound response's Data pooled memory its stack recycles after done. A
// receiver that keeps such Data longer retains Payload or copies the
// bytes. A response without Payload hands its Data over: the receiver may
// keep it. A replier that answers from its stack's pool sets the response's
// Payload and releases that reference after reply returns: the stack
// retains the slab for as long as it keeps the bytes in flight.
type Handler func(src uint32, req *Message, reply func(*Response))

// Client issues RPCs to remote hosts.
type Client interface {
	// Call sends req to the host with fabric address dst; done is invoked
	// when the response arrives. Stacks retry internally — like production
	// storage stacks they never give up, so a network that heals late
	// yields a late (not failed) response. Callers measure hang time. The
	// response is valid until done returns. done may keep its Data only
	// when Payload is nil; otherwise it retains Payload or copies the
	// bytes.
	Call(dst uint32, req *Message, done func(*Response))
}

// Stack is a full FN endpoint: client and server on one host.
type Stack interface {
	Client
	// SetHandler installs the server-side request handler.
	SetHandler(Handler)
	// LocalAddr returns the host's fabric address.
	LocalAddr() uint32
	// Pool returns the packet pool the stack draws its buffers from — a
	// handler that answers from pooled memory (Response.Payload) draws
	// from it.
	Pool() *simnet.PacketPool
}

// ErrAdmission is returned when QoS admission rejects an I/O outright
// (callers normally see queueing, not errors).
var ErrAdmission = errors.New("transport: rejected by QoS admission")

// ErrNotOwner is returned by a block server for a segment it has released
// to another owner (live segment migration cutover). The storage agent
// treats it as a routing miss: re-resolve the segment in the segment
// table, which the cutover remapped, and retry against the new location.
var ErrNotOwner = errors.New("transport: segment not owned by this server")

// ErrRemote is what a client sees for any other server error: the wire
// carries that the request failed, not why.
var ErrRemote = errors.New("transport: request failed at the server")

// ErrIntegrity ends a read whose data kept failing the client's end-to-end
// integrity check: every re-issue arrived corrupted.
var ErrIntegrity = errors.New("transport: read failed its integrity check on every re-issue")

// RTT tracks smoothed RTT and variance per Jacobson/Karels and derives the
// retransmission timeout.
type RTT struct {
	srtt   time.Duration
	rttvar time.Duration
	minRTO time.Duration
	maxRTO time.Duration
	init   bool
}

// NewRTT creates an estimator with the given RTO clamp.
func NewRTT(minRTO, maxRTO time.Duration) *RTT {
	return &RTT{minRTO: minRTO, maxRTO: maxRTO}
}

// Observe folds in one RTT sample.
func (r *RTT) Observe(sample time.Duration) {
	if sample <= 0 {
		sample = time.Nanosecond
	}
	if !r.init {
		r.srtt = sample
		r.rttvar = sample / 2
		r.init = true
		return
	}
	d := r.srtt - sample
	if d < 0 {
		d = -d
	}
	r.rttvar = (3*r.rttvar + d) / 4
	r.srtt = (7*r.srtt + sample) / 8
}

// SRTT returns the smoothed RTT (zero before the first sample).
func (r *RTT) SRTT() time.Duration { return r.srtt }

// RTO returns the current retransmission timeout: srtt + 4·rttvar, clamped.
func (r *RTT) RTO() time.Duration {
	rto := r.srtt + 4*r.rttvar
	if !r.init || rto < r.minRTO {
		rto = r.minRTO
	}
	if rto > r.maxRTO {
		rto = r.maxRTO
	}
	return rto
}

// Backoff returns the RTO after n consecutive timeouts (exponential,
// clamped).
func (r *RTT) Backoff(n int) time.Duration {
	rto := r.RTO()
	for i := 0; i < n && rto < r.maxRTO; i++ {
		rto *= 2
	}
	if rto > r.maxRTO {
		rto = r.maxRTO
	}
	return rto
}

// IDAlloc hands out unique RPC IDs.
type IDAlloc struct{ next uint64 }

// Next returns a fresh non-zero ID.
func (a *IDAlloc) Next() uint64 {
	a.next++
	return a.next
}

// Loopback is an in-process transport: Call invokes the local handler after
// a fixed latency, with no network underneath. It models the paper's §4.8
// "Integrated EBS with DPU" direction, where the storage agent and the
// block server share the DPU and the frontend-network hop disappears. It
// owns the pool its handler draws pooled responses from.
type Loopback struct {
	schedule func(d time.Duration, fn func())
	latency  time.Duration
	local    uint32
	handler  Handler
	pool     simnet.PacketPool
}

// NewLoopback builds a loopback endpoint. schedule is the event-engine hook
// (sim.Engine.Schedule fits); latency is the intra-DPU handover cost.
func NewLoopback(schedule func(time.Duration, func()), latency time.Duration, local uint32) *Loopback {
	return &Loopback{schedule: schedule, latency: latency, local: local}
}

// Call implements Client: deliver to the local handler after the handover
// latency, and its response, copied at reply, after another. A pooled
// response's Data is not copied: its Payload is retained across the
// handover and released once done returns, the rule every stack's inbound
// response follows.
func (l *Loopback) Call(dst uint32, req *Message, done func(*Response)) {
	l.schedule(l.latency, func() {
		if l.handler == nil {
			done(&Response{Err: ErrAdmission})
			return
		}
		l.handler(l.local, req, func(resp *Response) {
			out := *resp
			out.BlockCRCs = slices.Clone(resp.BlockCRCs)
			out.Payload = resp.Payload.Retain()
			l.schedule(l.latency, func() {
				done(&out)
				out.Payload.Release()
			})
		})
	})
}

// SetHandler implements Stack.
func (l *Loopback) SetHandler(h Handler) { l.handler = h }

// LocalAddr implements Stack.
func (l *Loopback) LocalAddr() uint32 { return l.local }

// Pool implements Stack.
func (l *Loopback) Pool() *simnet.PacketPool { return &l.pool }

var _ Stack = (*Loopback)(nil)
