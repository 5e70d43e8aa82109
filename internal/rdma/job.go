package rdma

import (
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// rpcJob is the pooled record that carries one message across its
// per-message CPU charge in either direction: an outbound request from Call
// to the send queue, an inbound message from its arrival to the handler or
// the pending callback, and — in the same record — the handler's response
// back to the send queue. It replaces a closure per hop and the heap
// envelopes, as core's serve does for Solar.
type rpcJob struct {
	s  *Stack
	q  *qp
	id uint64

	// Outbound: req, or the handler's response, copied by reply.
	req  *transport.Message
	resp transport.Response

	// Inbound message state; ebs is the first packet's header, payload the
	// message's bytes: a one-packet message's fragment, or the reassembly.
	ebs      wire.EBS
	msgType  uint8
	numPkts  int
	received int
	payload  []byte
	crcs     []uint32 // block CRCs, carried in PSN order or copied by reply

	// msg.Payload holds the slab behind payload from arrival on. A request
	// keeps it there: msg is the envelope handed to the handler, valid —
	// like the slab — until reply returns. A response's moves to
	// resp.Payload, valid until done returns. crc1 backs the CRC list of a
	// one-packet message. replyFn is bound once per record.
	msg     transport.Message
	crc1    [1]uint32
	replyFn func(*transport.Response)
}

func (s *Stack) getJob(q *qp, id uint64) *rpcJob {
	j := s.freeJobs.Get()
	if j == nil {
		j = &rpcJob{s: s}
		j.replyFn = j.reply
	}
	j.q, j.id = q, id
	return j
}

// putJob recycles a job, dropping the request slab if reply never ran, and
// the response slab reply retained or done was handed.
func (s *Stack) putJob(j *rpcJob) {
	j.msg.Payload.Release()
	j.resp.Payload.Release()
	*j = rpcJob{s: s, replyFn: j.replyFn, crcs: j.crcs[:0]}
	s.freeJobs.Put(j)
}

// carried returns the message's carried block CRCs: a one-packet message's
// from its header, a reassembled one's as collected (empty unless every
// packet carried one).
func (j *rpcJob) carried() []uint32 {
	if j.numPkts > 1 {
		return j.crcs
	}
	if j.ebs.Flags&wire.EBSFlagHasCRC == 0 {
		return nil
	}
	j.crc1[0] = j.ebs.BlockCRC
	return j.crc1[:]
}

// rpcDeliver hands a complete message up once its CPU charge has elapsed:
// a request, in the job's envelope around the slab msg.Payload holds, to
// the handler; a response, built in the job with that slab as its Payload,
// to its pending callback, and the job — slab included — is recycled once
// done returns.
//
//lint:hotpath
func rpcDeliver(a any) {
	j := a.(*rpcJob)
	s := j.s
	if wire.IsRequest(j.msgType) {
		if s.handler == nil {
			s.putJob(j)
			return
		}
		slab := j.msg.Payload
		j.msg = transport.MessageFromHeader(j.msgType, j.ebs, j.payload)
		j.msg.Payload = slab
		j.msg.Flags &^= wire.EBSFlagHasCRC // per-packet carriage, not the request's
		j.msg.BlockCRCs = j.carried()
		s.handler(j.q.key.peer, &j.msg, j.replyFn)
		return
	}
	if done, ok := s.pending[j.id]; ok {
		delete(s.pending, j.id)
		j.resp = transport.ResponseFromHeader(j.ebs, j.payload)
		j.resp.Payload, j.msg.Payload = j.msg.Payload, nil
		j.resp.BlockCRCs = j.carried()
		done(&j.resp)
	}
	s.putJob(j)
}

// reply ends the request's life — the envelope and the slab behind its
// Data go back — and charges the CPU of the response, copied to send later;
// a pooled response's slab is retained until the job is recycled. An error
// crosses the wire alone, without Data or CRCs.
//
//lint:hotpath
func (j *rpcJob) reply(resp *transport.Response) {
	j.resp = *resp
	j.resp.BlockCRCs = j.keepCRCs(resp.BlockCRCs)
	if resp.Err != nil {
		j.resp.Data, j.resp.Payload, j.resp.BlockCRCs = nil, nil, nil
	} else {
		j.resp.Payload = resp.Payload.Retain() // before the request's goes: they may be one slab
	}
	j.msg.Payload.Release()
	j.msg = transport.Message{}
	j.s.cores.SubmitArg(perRPCCPU, rpcSend, j)
}

// keepCRCs copies crcs into the job's own backing array.
func (j *rpcJob) keepCRCs(crcs []uint32) []uint32 {
	j.crcs = append(j.crcs[:0], crcs...)
	return j.crcs
}

// rpcSend queues a job's outbound message once its CPU charge has elapsed.
//
//lint:hotpath
func rpcSend(a any) {
	j := a.(*rpcJob)
	if j.req != nil {
		j.q.sendMessage(j.id, j.req.Op, j.req, nil)
	} else {
		j.q.sendMessage(j.id, wire.RPCWriteResp, nil, &j.resp)
	}
	j.s.putJob(j)
}
