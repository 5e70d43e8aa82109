package core

import (
	"errors"

	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// The Solar hot path runs allocation-free in steady state: client RPCs,
// outbound packet records, wire frames, acknowledgment jobs and server-side
// request envelopes all come from stack-owned sim.Pools. Each get builds the
// record on a miss and each put wipes what the record must not carry over.

// newOutPkt takes a packet record from the stack's free list. Records are
// recycled when their acknowledgment completes; generation counters make
// stale references (path send-queue entries) detectable.
func (s *Stack) newOutPkt() *outPkt {
	if e := s.freePkts.Get(); e != nil {
		return e
	}
	e := &outPkt{owner: s}
	e.retx.Init(s.eng, nil, maxRetxExp, timerExpired, e)
	return e
}

// maxRetxExp caps the per-packet backoff exponent; see transmitOn.
const maxRetxExp = 3

// freeOutPkt recycles an acknowledged packet record: the retransmission
// timer dies, the payload slab reference is dropped, and the generation
// bump turns any surviving outRef into a no-op. The record wipe clears the
// embedded retransmitter, so it is rebound here.
func (s *Stack) freeOutPkt(e *outPkt) {
	e.retx.Disarm()
	e.slab.Release() // nil (header-only packet) is a no-op
	gen := e.gen + 1
	*e = outPkt{owner: s, gen: gen}
	e.retx.Init(s.eng, nil, maxRetxExp, timerExpired, e)
	s.freePkts.Put(e)
}

// wireTx carries one fully built frame through the data-path placement
// events (FPGA pipeline latency, per-block CPU, PCIe transfer) to the NIC.
// The frame is encoded at transmit-decision time, so a packet record that
// is recycled while its frame sits in the pipeline cannot corrupt it.
type wireTx struct {
	s   *Stack
	pkt *simnet.Packet
	n   int // block bytes, sizing the PCIe crossing in CPUPath mode
}

func (s *Stack) getTx(pkt *simnet.Packet, n int) *wireTx {
	x := s.freeTx.Get()
	if x == nil {
		x = &wireTx{}
	}
	x.s, x.pkt, x.n = s, pkt, n
	return x
}

func wireTxSend(a any) {
	x := a.(*wireTx)
	s, pkt := x.s, x.pkt
	x.s, x.pkt, x.n = nil, nil, 0
	s.freeTx.Put(x)
	if !s.host.Send(pkt) {
		pkt.Release() // dropped at the NIC: ownership stayed with us
	}
}

func wireTxPCIe(a any) {
	x := a.(*wireTx)
	x.s.card.PCIe.TransferArg(2*x.n, wireTxSend, x)
}

func (s *Stack) getRPC() *rpc {
	if r := s.freeRPCs.Get(); r != nil {
		return r
	}
	return &rpc{s: s}
}

// putRPC recycles a client RPC once done has returned. The wipe drops the
// caller's req, done and guest buffer and any adopted slabs; the one-block
// arrays stay in the record.
func (s *Stack) putRPC(r *rpc) {
	*r = rpc{s: s}
	s.freeRPCs.Put(r)
}

// getMsg builds a pooled server-side request envelope. The envelope (and
// the payload slab reference a write attaches to it) is valid until the
// handler's reply returns; handlers that need the data longer must retain
// or copy it.
func (s *Stack) getMsg() *transport.Message {
	if m := s.freeMsgs.Get(); m != nil {
		return m
	}
	return &transport.Message{}
}

func (s *Stack) putMsg(m *transport.Message) {
	m.Payload.Release() // m.Data aliases the slab; nil on reads
	crcs := m.BlockCRCs
	*m = transport.Message{}
	if crcs != nil {
		m.BlockCRCs = crcs[:0] // keep the backing array across recycles
	}
	s.freeMsgs.Put(m)
}

// writeJob carries one inbound write block from the wire to the handler and
// back out as its durable acknowledgment. The reply closure is built once
// per node and reused, so the per-block server path does not allocate.
type writeJob struct {
	s       *Stack
	pkt     *simnet.Packet // the data packet, held for the INT echo in the ack
	rpcID   uint64
	pktID   uint16
	src     uint32
	arrived sim.Time
	req     *transport.Message
	replyFn func(*transport.Response)
}

func (s *Stack) getWriteJob() *writeJob {
	if j := s.freeWriteJobs.Get(); j != nil {
		return j
	}
	j := &writeJob{s: s}
	j.replyFn = j.reply
	return j
}

func writeJobStart(a any) {
	j := a.(*writeJob)
	j.s.handler(j.src, j.req, j.replyFn)
}

func (j *writeJob) reply(resp *transport.Response) {
	s := j.s
	flags := uint8(AckFlagDurable)
	if resp.Err != nil {
		flags = AckFlagError
		if errors.Is(resp.Err, transport.ErrNotOwner) {
			flags = AckFlagReject // terminal: ownership moved, don't retransmit
		}
	}
	wall := resp.ServerWall
	if wall == 0 {
		wall = s.eng.Now().Sub(j.arrived)
	}
	s.sendAckTimes(j.pkt, j.rpcID, j.pktID, flags, wall, resp.SSDTime)
	s.putMsg(j.req)
	j.pkt, j.req = nil, nil
	s.freeWriteJobs.Put(j)
}

// readJob carries one inbound read request to the handler; the reply
// streams the response blocks and recycles the envelope.
type readJob struct {
	s       *Stack
	key     serveKey
	req     *transport.Message
	replyFn func(*transport.Response)
}

func (s *Stack) getReadJob() *readJob {
	if j := s.freeReadJobs.Get(); j != nil {
		return j
	}
	j := &readJob{s: s}
	j.replyFn = j.reply
	return j
}

func readJobStart(a any) {
	j := a.(*readJob)
	j.s.handler(j.key.peer, j.req, j.replyFn)
}

func (j *readJob) reply(resp *transport.Response) {
	s := j.s
	s.serveReadBlocks(j.key, j.req, resp)
	s.putMsg(j.req)
	j.req = nil
	s.freeReadJobs.Put(j)
}

// commitJob carries one inbound read-response block through the data-path
// placement events to commitReadBlock. The packet stays alive until the
// commit acknowledges it, because payload aliases the packet's buffer.
type commitJob struct {
	s       *Stack
	pkt     *simnet.Packet
	rpc     wire.RPC
	ebs     wire.EBS
	payload []byte
}

func (s *Stack) getCommit() *commitJob {
	if j := s.freeCommits.Get(); j != nil {
		return j
	}
	return &commitJob{s: s}
}

func commitRun(a any) {
	j := a.(*commitJob)
	s, pkt, rpc, ebs, payload := j.s, j.pkt, j.rpc, j.ebs, j.payload
	j.pkt, j.payload = nil, nil
	s.freeCommits.Put(j)
	s.commitReadBlock(pkt, rpc, ebs, payload)
}

func commitPCIe(a any) {
	j := a.(*commitJob)
	j.s.card.PCIe.TransferArg(2*len(j.payload), commitRun, j)
}

// ackJob carries a decoded acknowledgment through the per-ack CPU charge.
// The INT stack's backing array is reused across acks (HPCC reads the hops
// during OnAck and keeps nothing).
type ackJob struct {
	s        *Stack
	src      uint32
	rpcFlags uint8
	ack      wire.Ack
	intStack wire.INTStack
}

func (s *Stack) getAckJob() *ackJob {
	if j := s.freeAckJobs.Get(); j != nil {
		return j
	}
	return &ackJob{s: s}
}

func (s *Stack) putAckJob(j *ackJob) {
	j.intStack.Hops = j.intStack.Hops[:0]
	s.freeAckJobs.Put(j)
}

func ackJobRun(a any) {
	j := a.(*ackJob)
	j.s.runAck(j)
	j.s.putAckJob(j)
}
