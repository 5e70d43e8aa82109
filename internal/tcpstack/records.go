package tcpstack

import (
	"time"

	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// The stack's three pooled records. Each carries one unit of work across
// the CPU charges, PCIe crossings and latency adders between its hops, so a
// hop is one SubmitArg/TransferArg/ScheduleArg with a package-level step
// function instead of a closure — the idiom core's jobs and rdma.rpcJob use.

// rxSeg carries one inbound frame across its PCIe crossing, when one is
// modelled, and its per-packet receive charge.
type rxSeg struct {
	c    *conn
	pkt  *simnet.Packet
	hdr  wire.TCPSeg
	cost time.Duration
	ce   bool
}

func (s *Stack) getRx() *rxSeg {
	if r := s.freeRx.Get(); r != nil {
		return r
	}
	return &rxSeg{}
}

// rxCrossed queues a frame's receive charge once its PCIe crossing is done.
//
//lint:hotpath
func rxCrossed(a any) {
	r := a.(*rxSeg)
	r.c.s.cores.SubmitArg(r.cost, rxArrived, r)
}

// rxArrived runs protocol processing for a frame whose receive charge has
// elapsed, then releases the frame.
//
//lint:hotpath
func rxArrived(a any) {
	r := a.(*rxSeg)
	c, pkt, hdr, ce := r.c, r.pkt, r.hdr, r.ce
	*r = rxSeg{}
	c.s.freeRx.Put(r)
	c.segmentArrived(hdr, pkt.Payload[wire.TCPSegSize:], ce)
	pkt.Release()
}

// txSeg carries one outbound segment of n stream bytes from seq, or — with
// n == 0 — a pure ACK, across its per-packet transmit charge and PCIe
// crossing. A pure ACK takes its sequence number from sndNxt when it is
// sent, not when it is queued.
type txSeg struct {
	c     *conn
	seq   uint32
	n     int
	flags uint8
}

func (c *conn) getTx(seq uint32, n int, flags uint8) *txSeg {
	t := c.s.freeTx.Get()
	if t == nil {
		t = &txSeg{}
	}
	t.c, t.seq, t.n, t.flags = c, seq, n, flags
	return t
}

// txCharged sends a segment whose transmit charge has elapsed, across the
// PCIe channel first when it carries payload and one is modelled.
//
//lint:hotpath
func txCharged(a any) {
	t := a.(*txSeg)
	if pcie := t.c.s.pcie; pcie != nil && t.n > 0 {
		pcie.TransferArg(2*t.n, txSend, t)
		return
	}
	txSend(t)
}

// txSend builds the frame and hands it to the host.
//
//lint:hotpath
func txSend(a any) {
	t := a.(*txSeg)
	c, seq, n, flags := t.c, t.seq, t.n, t.flags
	*t = txSeg{}
	c.s.freeTx.Put(t)
	if n == 0 {
		seq = c.sndNxt
	}
	pkt := c.makePacket(seq, n, flags)
	if !c.s.host.Send(pkt) {
		pkt.Release()
	}
}

// rpcJob carries one RPC across its per-RPC charges and latency adders: an
// outbound request from Call to the send stream; an inbound record from the
// reader to the handler or the pending callback; and — in the request's own
// job — the handler's response back to the send stream.
type rpcJob struct {
	c  *conn
	id uint64

	// Outbound: req, or the handler's response, copied by reply.
	req  *transport.Message
	resp transport.Response

	// Inbound: the record as the reader completed it.
	rec record

	// msg is the request envelope handed to the handler, valid — like the
	// slab behind msg.Data, which msg.Payload takes over from the record —
	// until reply returns: the contract core's serve and rdma's rpcJob give.
	// replyFn is bound once per record.
	msg     transport.Message
	replyFn func(*transport.Response)
}

func (s *Stack) getJob(c *conn, id uint64) *rpcJob {
	j := s.freeJobs.Get()
	if j == nil {
		j = &rpcJob{}
		j.replyFn = j.reply
	}
	j.c, j.id = c, id
	return j
}

// putJob recycles a job, dropping the slabs it still holds: an undelivered
// request's, one whose reply never ran, and a pooled response's.
func (s *Stack) putJob(j *rpcJob) {
	j.rec.slab.Release()
	j.msg.Payload.Release()
	j.resp.Payload.Release()
	*j = rpcJob{replyFn: j.replyFn}
	s.freeJobs.Put(j)
}

// reply ends the request's life — the envelope and the slab behind its
// Data go back — and queues a copy of the handler's response on the
// request's connection, to be framed once its transmit charge has elapsed;
// a pooled response's slab is retained until the job is recycled. An error
// crosses the wire alone, without Data.
//
//lint:hotpath
func (j *rpcJob) reply(resp *transport.Response) {
	s := j.c.s
	j.resp = *resp
	if resp.Err != nil {
		j.resp.Data, j.resp.Payload = nil, nil
	} else {
		j.resp.Payload = resp.Payload.Retain() // before the request's goes: they may be one slab
	}
	j.msg.Payload.Release()
	j.msg = transport.Message{}
	s.cores.SubmitArg(s.params.PerRPCTxCPU+s.copyCost(len(j.resp.Data)), rpcTxCharged, j)
}

// rpcTxCharged waits out the outbound non-busy latency.
//
//lint:hotpath
func rpcTxCharged(a any) {
	j := a.(*rpcJob)
	j.c.s.eng.ScheduleArg(j.c.s.params.PerRPCTxDelay, rpcEnqueue, j)
}

// rpcEnqueue frames the job's request or response onto its stream.
//
//lint:hotpath
func rpcEnqueue(a any) {
	j := a.(*rpcJob)
	s := j.c.s
	if j.req != nil {
		j.c.enqueueRecord(s.makeRecordSpan(j.id, j.req.Op, j.req, nil))
	} else {
		j.c.enqueueRecord(s.makeRecordSpan(j.id, wire.RPCWriteResp, nil, &j.resp))
	}
	s.putJob(j)
}

// rpcRxCharged waits out the inbound non-busy latency.
//
//lint:hotpath
func rpcRxCharged(a any) {
	j := a.(*rpcJob)
	j.c.s.eng.ScheduleArg(j.c.s.params.PerRPCRxDelay, rpcDeliver, j)
}

// rpcDeliver hands a record up: a request to the handler, in the job that
// will carry its response, and a response, built in the job, to its pending
// callback.
//
//lint:hotpath
func rpcDeliver(a any) {
	j := a.(*rpcJob)
	s := j.c.s
	switch j.rec.rpc.MsgType {
	case wire.RPCWriteReq, wire.RPCReadReq:
		if s.handler == nil {
			s.putJob(j)
			return
		}
		j.msg = transport.MessageFromHeader(j.rec.rpc.MsgType, j.rec.ebs, j.rec.payload)
		j.msg.Payload, j.rec.slab = j.rec.slab, nil
		s.handler(j.c.key.peer, &j.msg, j.replyFn)
	default: // response
		if done, ok := s.pending[j.id]; ok {
			delete(s.pending, j.id)
			j.resp = transport.ResponseFromHeader(j.rec.ebs, j.rec.payload)
			done(&j.resp)
		}
		s.putJob(j)
	}
}
