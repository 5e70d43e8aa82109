package core

import (
	"errors"

	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// The Solar hot path runs allocation-free in steady state: client RPCs,
// served requests, outbound packet records, wire frames and acknowledgment
// jobs all come from stack-owned sim.Pools. Each get builds the record on a
// miss and each put wipes what the record must not carry over.

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
// caller's req, done and guest buffer and any adopted slabs, and zeroes the
// re-issue count. The per-block slices keep their arrays, cleared over
// their full capacity: no guest block or packet record stays reachable, and
// no received flag stays set.
func (s *Stack) putRPC(r *rpc) {
	clear(r.blocks[:cap(r.blocks)])
	clear(r.pkts[:cap(r.pkts)])
	clear(r.received[:cap(r.received)])
	*r = rpc{s: s, blocks: r.blocks[:0], pkts: r.pkts[:0], received: r.received[:0]}
	s.freeRPCs.Put(r)
}

// serve is one inbound request on the server side, from its arrival to its
// retirement: a WRITE block from the wire to the handler and back out as
// its ACK, or a READ from the wire to the handler and out as one packet per
// block, retired when the last block is acknowledged. msg is the handler's
// request envelope, valid — like the payload slab a write retains behind
// msg.Data — until reply returns; crc1 backs a write's one-entry CRC list.
// replyFn is bound once, when the record is built.
type serve struct {
	s       *Stack
	key     serveKey // the requester and its RPC ID
	pktID   uint16
	pkt     *simnet.Packet // a write's data packet, held for the ACK's INT echo
	arrived sim.Time
	msg     transport.Message
	crc1    [1]uint32
	replyFn func(*transport.Response)
	unacked int // a read's response blocks not yet acknowledged
}

func (s *Stack) getServe() *serve {
	if v := s.freeServes.Get(); v != nil {
		return v
	}
	v := &serve{s: s}
	v.replyFn = v.reply
	return v
}

// putServe recycles a served request, dropping the payload slab reference a
// write retained (nil on reads).
func (s *Stack) putServe(v *serve) {
	v.msg.Payload.Release()
	*v = serve{s: s, replyFn: v.replyFn}
	s.freeServes.Put(v)
}

// serveStart hands the request to the handler once its CPU charge has
// elapsed.
//
//lint:hotpath
func serveStart(a any) {
	v := a.(*serve)
	v.s.handler(v.key.peer, &v.msg, v.replyFn)
}

// reply answers a write with its ACK — durable, or flagged with the error —
// and recycles the record; it streams a read's response blocks, and the
// record lives on until runAck has seen each acknowledged.
//
//lint:hotpath
func (v *serve) reply(resp *transport.Response) {
	s := v.s
	if v.msg.Op == wire.RPCReadReq {
		s.serveReadBlocks(v, resp)
		if v.unacked == 0 {
			delete(s.serves, v.key)
			s.putServe(v)
		}
		return
	}
	flags := uint8(AckFlagDurable)
	if resp.Err != nil {
		flags = AckFlagError
		if errors.Is(resp.Err, transport.ErrNotOwner) {
			flags = AckFlagReject // terminal: ownership moved, don't retransmit
		}
	}
	wall := resp.ServerWall
	if wall == 0 {
		wall = s.eng.Now().Sub(v.arrived)
	}
	s.sendAckTimes(v.pkt, v.key.rpcID, v.pktID, flags, wall, resp.SSDTime)
	s.putServe(v)
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
