package core

import (
	"bytes"
	"time"

	"lunasolar/internal/cc"
	"lunasolar/internal/crc"
	"lunasolar/internal/dpu"
	"lunasolar/internal/simnet"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// receivePacket is the host's frame handler: New installs it when the
// stack is the first on its host. The stack takes ownership of the
// packet: every path through the handlers ends in a Release, either
// directly or via the acknowledgment it triggers.
func (s *Stack) receivePacket(pkt *simnet.Packet) {
	var rpc wire.RPC
	if err := rpc.Decode(pkt.Payload); err != nil {
		pkt.Release()
		return
	}
	rest := pkt.Payload[wire.RPCSize:]
	switch rpc.MsgType {
	case wire.RPCAck:
		s.handleAck(pkt, rpc, rest)
	case wire.RPCWriteReq:
		s.handleWriteBlock(pkt, rpc, rest)
	case wire.RPCReadReq:
		s.handleReadReq(pkt, rpc, rest)
	case wire.RPCReadResp:
		s.handleReadBlock(pkt, rpc, rest)
	default:
		pkt.Release()
	}
}

// sendAck emits the per-packet acknowledgment, echoing the data packet's
// path ID, timestamp, congestion marks and INT stack (Fig. 12's "Path
// Condition & Congestion Signal"). It consumes pkt: the echo fields are
// copied into the ack frame and the received packet is released.
func (s *Stack) sendAck(pkt *simnet.Packet, rpcID uint64, pktID uint16, flags uint8) {
	s.sendAckTimes(pkt, rpcID, pktID, flags, 0, 0)
}

// sendAckTimes is sendAck carrying the distributed-trace server times
// (durable write ACKs report block-server residence and media time).
func (s *Stack) sendAckTimes(pkt *simnet.Packet, rpcID uint64, pktID uint16, flags uint8, wall, ssd time.Duration) {
	intStack := pkt.INT
	size := wire.RPCSize + wire.AckSize
	if intStack != nil {
		size += intStack.EncodedSize()
	}
	out := s.pool.Get(size)
	buf := out.Payload
	rpcHdr := wire.RPC{RPCID: rpcID, PktID: pktID, NumPkts: 1, MsgType: wire.RPCAck, Flags: flags}
	if err := rpcHdr.Encode(buf); err != nil {
		panic(err)
	}
	ack := wire.Ack{
		RPCID:     rpcID,
		PktID:     pktID,
		PathID:    pkt.SrcPort,
		EchoTS:    uint64(pkt.SentAt),
		ECNMarked: pkt.ECN == wire.ECNCE,
		ServerNS:  uint32(wall.Nanoseconds()),
		SSDNS:     uint32(ssd.Nanoseconds()),
	}
	if intStack != nil && len(intStack.Hops) > 0 {
		last := intStack.Hops[len(intStack.Hops)-1]
		ack.QLen = last.QLenB
		ack.TxRate = last.RateMbs
	}
	if err := ack.Encode(buf[wire.RPCSize:]); err != nil {
		panic(err)
	}
	if intStack != nil {
		if err := intStack.Encode(buf[wire.RPCSize+wire.AckSize:]); err != nil {
			panic(err)
		}
	}
	out.Dst = pkt.Src
	out.Proto = wire.ProtoUDP
	out.SrcPort = ListenPort
	out.DstPort = pkt.SrcPort
	out.Overhead = simnet.DefaultOverheadUDP
	out.SentAt = s.eng.Now()
	pkt.Release() // everything echoed is now in the ack frame

	x := s.getTx(out, 0)
	if s.params.Mode == Offloaded {
		// Fig. 13: the pipeline's packet generator emits acknowledgments
		// "without interrupting the CPU".
		s.eng.ScheduleArg(dpu.PktGen, wireTxSend, x)
		return
	}
	s.cores.SubmitArg(s.cpu.ack/2, wireTxSend, x)
}

// handleWriteBlock is the server side of a WRITE: each packet is one
// self-contained block — the handler is invoked immediately, per block,
// with no assembly or buffering (the one-block-one-packet property). The
// block is served in one pooled record (see serve).
//
//lint:hotpath
func (s *Stack) handleWriteBlock(pkt *simnet.Packet, rpc wire.RPC, rest []byte) {
	var ebs wire.EBS
	if err := ebs.Decode(rest); err != nil {
		pkt.Release()
		return
	}
	payload := rest[wire.EBSSize:]
	if len(pkt.Frag) > 0 {
		payload = pkt.Frag // zero-copy frame: the block rides as a fragment
	}
	if int(ebs.BlockLen) <= len(payload) {
		payload = payload[:ebs.BlockLen]
	}
	if s.handler == nil {
		pkt.Release()
		return
	}
	// The request references the frame's payload slab; the retained
	// reference keeps the bytes alive for the block service (and its
	// replica fan-out) until the record is recycled. One-touch CRC: the
	// block's CRC travels with the packet; the block service folds and
	// forwards it downstream (chunk servers verify it at the device
	// boundary) instead of re-walking the payload.
	v := s.getServe()
	v.key, v.pktID = serveKey{peer: pkt.Src, rpcID: rpc.RPCID}, rpc.PktID
	v.pkt, v.arrived = pkt, s.eng.Now()
	v.crc1[0] = ebs.BlockCRC
	v.msg = transport.Message{
		Op: wire.RPCWriteReq, VDisk: ebs.VDisk, SegmentID: ebs.SegmentID,
		LBA: ebs.LBA, Gen: ebs.Gen, Flags: ebs.Flags,
		Data: payload, Payload: pkt.FragSlab().Retain(), BlockCRCs: v.crc1[:],
	}
	// Per-block server CPU, then hand to the block service; the durable
	// ACK (Fig. 12's WRITE response) is sent when it replies. The packet
	// rides along until then: the ack echoes its INT and timestamps.
	s.cores.SubmitArg(s.cpu.block, serveStart, v)
}

// handleReadReq is the server side of a READ: acknowledge the request
// packet, then stream one packet per block back, each reliably delivered.
// A stack with no handler acknowledges the request and drops it.
//
//lint:hotpath
func (s *Stack) handleReadReq(pkt *simnet.Packet, rpc wire.RPC, rest []byte) {
	var ebs wire.EBS
	if err := ebs.Decode(rest); err != nil {
		pkt.Release()
		return
	}
	key := serveKey{peer: pkt.Src, rpcID: rpc.RPCID}
	s.sendAck(pkt, rpc.RPCID, rpc.PktID, 0) // consumes pkt
	if _, dup := s.serves[key]; dup || s.handler == nil {
		return // a retransmitted request's blocks retransmit themselves
	}
	v := s.getServe()
	v.key = key
	v.msg = transport.Message{
		Op: wire.RPCReadReq, VDisk: ebs.VDisk, SegmentID: ebs.SegmentID,
		LBA: ebs.LBA, Gen: ebs.Gen, Flags: ebs.Flags, ReadLen: int(ebs.BlockLen),
	}
	s.serves[key] = v
	s.cores.SubmitArg(s.cpu.rpcIssue, serveStart, v)
}

// serveReadBlocks sends each block of a read response as an independent
// reliable packet across this endpoint's own paths to the requester,
// counting it in v.unacked.
//
//lint:hotpath
func (s *Stack) serveReadBlocks(v *serve, resp *transport.Response) {
	req, pe := &v.msg, s.peerFor(v.key.peer)
	if resp.Err != nil {
		// A data-less terminal packet tells the client to fail the read now
		// rather than wait forever, flagged as the message stacks flag an
		// error: a reject when ownership moved mid-flight, an error
		// otherwise. It rides the reliable-delivery machinery like any
		// response block.
		e := s.newOutPkt()
		e.key = pktKey{rpcID: v.key.rpcID, pktID: 0}
		e.msgType = wire.RPCReadResp
		e.ebs = wire.EBS{
			Version: wire.EBSVersion, Op: wire.OpRead,
			Flags: transport.ResponseHeader(resp).Flags | wire.EBSFlagLastBlock,
			VDisk: req.VDisk, SegmentID: req.SegmentID,
			LBA: req.LBA, Gen: req.Gen,
		}
		e.size = wire.RPCSize + wire.EBSSize
		v.unacked++
		s.sendPkt(pe, e)
		return
	}
	data := resp.Data
	n := wire.Blocks(len(data))
	// One-touch CRC: the chunk store reports each block's stored CRC with
	// the read; when the list covers every outgoing block, the server
	// forwards those values instead of re-walking the payload.
	carried := resp.BlockCRCs
	if len(carried) != n {
		carried = nil
	}
	// Every response block references the service's buffer through one
	// shared slab: the response's own, when the handler drew it from a pool.
	var ioSlab *simnet.Slab
	switch {
	case n == 0:
	case resp.Payload != nil:
		ioSlab = resp.Payload.Retain()
	default:
		ioSlab = s.pool.WrapSlab(data)
	}
	for i := 0; i < n; i++ {
		lo := i * wire.BlockSize
		hi := min(lo+wire.BlockSize, len(data))
		block := data[lo:hi]
		var sum uint32
		if carried != nil {
			sum = carried[i] // trusted: the chunk store's stored CRC
		} else {
			sum = crc.Raw(block) // trusted: storage-side software CRC
		}
		var flags uint8
		if i == n-1 {
			flags = wire.EBSFlagLastBlock
		}
		e := s.newOutPkt()
		e.key = pktKey{rpcID: v.key.rpcID, pktID: uint16(i)}
		e.msgType = wire.RPCReadResp
		e.ebs = wire.EBS{
			Version: wire.EBSVersion, Op: wire.OpRead, Flags: flags,
			VDisk: req.VDisk, SegmentID: req.SegmentID,
			LBA: req.LBA + uint64(lo), Gen: req.Gen,
			BlockLen: uint32(hi - lo), BlockCRC: sum,
			ServerNS: uint32(resp.ServerWall.Nanoseconds()),
			SSDNS:    uint32(resp.SSDTime.Nanoseconds()),
		}
		e.payload = block
		e.slab = ioSlab.Retain()
		e.size = wire.RPCSize + wire.EBSSize + len(block)
		v.unacked++
		s.sendPkt(pe, e)
	}
	ioSlab.Release()
}

// handleReadBlock is the client side of a READ response: one independent
// block per packet. The Addr table entry placed at issue time tells the
// pipeline where in guest memory the block lands; processing never touches
// the DPU CPU except for the header (integrity aggregation + congestion).
func (s *Stack) handleReadBlock(pkt *simnet.Packet, rpc wire.RPC, rest []byte) {
	var ebs wire.EBS
	if err := ebs.Decode(rest); err != nil {
		pkt.Release()
		return
	}
	payload := rest[wire.EBSSize:]
	if len(pkt.Frag) > 0 {
		payload = pkt.Frag // zero-copy frame: the block rides as a fragment
	}
	if int(ebs.BlockLen) <= len(payload) {
		payload = payload[:ebs.BlockLen]
	}
	r := s.readRPC(rpc.RPCID)
	if ebs.Flags&(wire.EBSFlagReject|wire.EBSFlagError) != 0 {
		// The server failed the read: ack its terminal packet (so it stops
		// retransmitting) and fail the whole read. Duplicates find the read
		// already gone and just ack.
		s.sendAck(pkt, rpc.RPCID, rpc.PktID, 0)
		if r != nil {
			s.releaseAddr(r.n - r.got)
			s.complete(r, transport.ResponseFromHeader(ebs, nil).Err)
		}
		return
	}
	if r == nil || int(rpc.PktID) >= r.n || r.received[rpc.PktID] {
		// Duplicate or stale: ack so the server stops retransmitting.
		s.sendAck(pkt, rpc.RPCID, rpc.PktID, 0)
		return
	}
	// The packet stays alive through the placement events: payload aliases
	// its buffer, and the terminal ack in commitReadBlock releases it.
	j := s.getCommit()
	j.pkt, j.rpc, j.ebs, j.payload = pkt, rpc, ebs, payload
	switch {
	case s.params.Mode == Offloaded:
		s.eng.ScheduleArg(s.card.PipelineReadLatency(), commitRun, j)
	case s.params.Mode == CPUPath:
		s.cores.SubmitArg(s.cpu.block+softCRCPer4K, commitPCIe, j)
	default:
		s.cores.SubmitArg(s.cpu.block, commitRun, j)
	}
}

// readRPC returns the read in flight under id, or nil.
func (s *Stack) readRPC(id uint64) *rpc {
	if r := s.rpcs[id]; r != nil && r.op == wire.RPCReadReq {
		return r
	}
	return nil
}

func (s *Stack) commitReadBlock(pkt *simnet.Packet, rpc wire.RPC, ebs wire.EBS, payload []byte) {
	r := s.readRPC(rpc.RPCID)
	if r == nil || r.received[rpc.PktID] {
		s.sendAck(pkt, rpc.RPCID, rpc.PktID, 0)
		return
	}
	// The CRC engine checks the block on its way to guest memory; in
	// Offloaded mode it is fault-injectable (it may corrupt the block or
	// misreport the sum). The trusted per-block value from the storage
	// side rides in the header; the CPU folds both into the RPC-level
	// aggregate and verifies once per RPC.
	var engineSum uint32
	var scratch *simnet.Slab
	if s.params.Mode == Offloaded {
		// The payload fragment aliases the server's slab (shared with its
		// retransmit queue), so a datapath fault is materialised into
		// private scratch instead of flipped in place; the corrupt bytes
		// reach guest memory below.
		var corrupted []byte
		engineSum, corrupted = s.card.ComputeCRC(payload, 0, false, s.crcScratchFn)
		if corrupted != nil {
			payload = corrupted
			scratch = s.crcScratchSlab
			s.crcScratchSlab = nil
		}
	} else {
		engineSum = crc.Raw(payload)
	}
	r.agg.AddExpected(ebs.BlockCRC)
	r.agg.AddBlockCRC(engineSum)
	r.resp.ServerWall = max(r.resp.ServerWall, time.Duration(ebs.ServerNS))
	r.resp.SSDTime = max(r.resp.SSDTime, time.Duration(ebs.SSDNS))

	// The block's headers and metadata go to the CPU for the integrity
	// aggregation and congestion update (Fig. 13); the payload does not.
	s.cores.Submit(s.cpu.block, nil)

	off := int(rpc.PktID) * wire.BlockSize
	copy(r.buf[off:], payload) // DMA into guest memory
	r.received[rpc.PktID] = true
	r.got++
	if scratch != nil {
		scratch.Release() // corrupt copy has been DMA'd; scratch is done
	}
	s.releaseAddr(1)
	s.sendAck(pkt, rpc.RPCID, rpc.PktID, 0)

	if r.got == r.n {
		s.complete(r, nil)
	}
}

// aggCost is the software aggregation cost: one cheap XOR fold per block.
func (s *Stack) aggCost(blocks int) time.Duration {
	return time.Duration(int64(aggXORPer4K) * int64(blocks))
}

// handleAck decodes a per-packet acknowledgment into a pooled job and
// releases the packet immediately — nothing downstream needs the frame.
func (s *Stack) handleAck(pkt *simnet.Packet, rpc wire.RPC, rest []byte) {
	j := s.getAckJob()
	if err := j.ack.Decode(rest); err != nil {
		s.putAckJob(j)
		pkt.Release()
		return
	}
	if len(rest) > wire.AckSize {
		j.intStack.Decode(rest[wire.AckSize:]) //nolint:errcheck // absent INT is fine
	}
	j.src = pkt.Src
	j.rpcFlags = rpc.Flags
	pkt.Release()
	s.cores.SubmitArg(s.cpu.ack, ackJobRun, j)
}

// runAck processes one acknowledgment after its CPU charge: path condition
// update, HPCC window update, RPC progress, out-of-order loss detection.
// A successfully acknowledged packet record is recycled at the end.
func (s *Stack) runAck(j *ackJob) {
	ack := &j.ack
	key := outKey{peer: j.src, k: pktKey{rpcID: ack.RPCID, pktID: ack.PktID}}
	e := s.out[key]
	if e == nil || e.acked {
		return
	}
	if j.rpcFlags&AckFlagReject != 0 {
		s.rejectPacket(key, e, transport.ErrNotOwner)
		return
	}
	if j.rpcFlags&AckFlagError != 0 {
		s.repairAndResend(key, e)
		return
	}
	p := s.retire(key, e)
	rttSample := s.eng.Now().Sub(e.sentAt)
	foldINT(&p.tele, j.intStack.Hops, ack.ECNMarked)
	if e.retx.Consecutive() == 0 { // Karn: only sample unambiguous transmissions
		p.observe(rttSample, cc.Feedback{AckedBytes: e.size, INT: j.intStack.Hops})
	} else {
		p.consecTO = 0
		p.acked++
	}
	s.earlyRetransmit(e.pe, p)
	s.drainBacklog(e.pe)

	switch e.msgType {
	case wire.RPCWriteReq:
		if w := s.rpcs[e.key.rpcID]; w != nil {
			w.got++
			w.resp.ServerWall = max(w.resp.ServerWall, time.Duration(ack.ServerNS))
			w.resp.SSDTime = max(w.resp.SSDTime, time.Duration(ack.SSDNS))
			if w.got == w.n {
				s.complete(w, nil)
			}
		}
	case wire.RPCReadResp:
		skey := serveKey{peer: j.src, rpcID: e.key.rpcID}
		if v := s.serves[skey]; v != nil {
			if v.unacked--; v.unacked == 0 {
				delete(s.serves, skey)
				s.putServe(v)
			}
		}
	}
	s.freeOutPkt(e)
}

// rejectPacket handles a terminal server rejection — AckFlagReject (the
// segment's ownership moved) or an error repairAndResend cannot repair — so
// retransmitting can never succeed. The packet record is retired like a
// normal ack (window credit returned, no retransmission), and the first
// rejection observed for a WRITE completes the RPC with err; sibling
// packets of the same RPC clean up as their own rejections arrive.
func (s *Stack) rejectPacket(key outKey, e *outPkt, err error) {
	s.retire(key, e)
	if e.msgType == wire.RPCWriteReq {
		if w := s.rpcs[e.key.rpcID]; w != nil {
			s.complete(w, err)
		}
	}
	s.drainBacklog(e.pe)
	s.freeOutPkt(e)
}

// retire takes an acknowledged or rejected packet off its path: no more
// retransmissions, its window credit returned, its path sequence counted
// as acknowledged. It returns the path.
func (s *Stack) retire(key outKey, e *outPkt) *path {
	e.acked = true
	e.retx.Disarm()
	delete(s.out, key)
	p := e.path
	p.inflightBytes = max(p.inflightBytes-e.size, 0)
	p.maxAckedSeq = max(p.maxAckedSeq, e.pathSeq)
	return p
}

// repairAndResend handles a server's rejection of a write block
// (AckFlagError). A block the FPGA damaged on its way out — its bytes or
// its CRC differ from the trusted guest buffer — is rebuilt with a software
// CRC and retransmitted. An intact block has nothing to rebuild: the error
// is the server's own and a resend would only repeat it, so the write fails
// with transport.ErrRemote, as a block of an already failed write retires.
func (s *Stack) repairAndResend(key outKey, e *outPkt) {
	w := s.rpcs[e.key.rpcID]
	if w == nil || e.msgType != wire.RPCWriteReq {
		s.rejectPacket(key, e, transport.ErrRemote)
		return
	}
	orig := w.blocks[e.key.pktID]
	trusted := crc.Raw(orig)
	if e.ebs.BlockCRC == trusted && bytes.Equal(e.payload, orig) {
		s.rejectPacket(key, e, transport.ErrRemote)
		return
	}
	// The payload may BE the trusted buffer (the rejection was a CRC-value
	// flip, not data corruption); the copy is then a no-op.
	copy(e.payload, orig)
	e.ebs.BlockCRC = trusted
	s.IntegrityHits++
	s.rec.Record(s.eng.Now().Duration(), trace.EvIntegrityHit, e.key.rpcID, 0)
	s.cores.SubmitArg(softCRCPer4K, resendRepaired, outRef{e: e, gen: e.gen})
}

// resendRepaired retransmits a repaired block after its software CRC
// charge, unless an acknowledgment recycled the record meanwhile.
func resendRepaired(a any) {
	if r := a.(outRef); r.live() {
		r.e.owner.retransmit(r.e.pe, r.e)
	}
}
