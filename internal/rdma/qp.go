package rdma

import (
	"time"

	"lunasolar/internal/cc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// pktHdrSize is the fixed header of every RC data packet: BTH (reusing the
// 20-byte segment header layout: ports = QPNs, Seq = PSN, Ack = cumulative
// PSN) + RPC header + EBS header.
const pktHdrSize = wire.TCPSegSize + wire.RPCSize + wire.EBSSize

// outPkt is one unacknowledged data packet, kept scattered: the RPC+EBS
// header image lives in a small pooled prefix encoded once at queue time,
// the chunk is referenced through a slab shared with the message payload.
// Every (re)transmission builds its own frame — BTH + header copy +
// fragment — so nothing the pool reclaims is ever shared with an in-flight
// frame.
type outPkt struct {
	psn    uint32
	hdr    []byte       // pooled RPC+EBS header image (wire.HeadersSize)
	pay    []byte       // chunk bytes; subrange of slab
	slab   *simnet.Slab // reference held until the packet is acknowledged
	sentAt sim.Time     // NIC fire time of the latest transmission
	retxed bool         // Karn: retransmitted PSNs give no delay samples
}

// qp is one reliable-connection queue pair: go-back-N over PSNs.
type qp struct {
	s   *Stack
	key qpKey

	// Sender. The live queue is sndQueue[sndHead:] — [inflight... unsent],
	// its first entry holding psn sndUna; the slots before sndHead are
	// retired (wiped) and reclaimed by retire.
	sndQueue []outPkt
	sndHead  int
	sndUna   uint32
	sndNxt   uint32 // next psn to (re)transmit; within queue bounds
	sndMax   uint32 // one past the highest psn ever transmitted (>= sndNxt)
	nextPSN  uint32 // psn for the next freshly built packet
	rtt      *transport.RTT
	retx     transport.Retransmitter

	samplePSN   uint32
	sampleAt    sim.Time
	sampleValid bool

	// Congestion control: the pluggable controller bounds inflight through
	// Window() and, for rate-based kinds, paces transmissions through the
	// pacer. The default static kind reproduces the old hardware window.
	ctrl  cc.Controller
	pacer cc.Pacer

	// Receiver.
	expectPSN uint32
	nakSent   bool // one NAK per gap (RC behaviour), cleared on in-order
	assembler map[uint64]*rpcJob
	rxHops    uint8 // fabric hops data packets crossed, echoed on acks
	lastCNP   sim.Time

	lastRewind sim.Time // rate-limits go-back-N to once per RTT
}

func newQP(s *Stack, k qpKey) *qp {
	q := &qp{
		s:         s,
		key:       k,
		rtt:       transport.NewRTT(s.params.MinRTO, s.params.MaxRTO),
		assembler: map[uint64]*rpcJob{},
		ctrl:      s.newController(),
	}
	q.retx.Init(s.eng, q.rtt, -1, qpRTOExpired, q)
	q.pacer.Init(s.eng, qpPacerFire, q)
	return q
}

// qpPacerFire resumes the transmit loop when the pacing gap elapses.
func qpPacerFire(a any) { a.(*qp).pump() }

func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// sendMessage segments one RPC message into MTU packets and queues them.
// Each packet's RPC+EBS header image is encoded once into a pooled prefix;
// the chunk is attached by reference. When the caller supplied per-block
// one-touch CRCs and the chunking aligns with them — MTU == BlockSize for
// data, or a single header-only packet carrying a fold — each packet's EBS
// header carries its block's CRC, flagged with EBSFlagHasCRC.
func (q *qp) sendMessage(id uint64, op uint8, req *transport.Message, resp *transport.Response) {
	var payload []byte
	var crcs []uint32
	var paySlab *simnet.Slab
	var ebs wire.EBS
	if req != nil {
		payload = req.Data
		crcs = req.BlockCRCs
		paySlab = req.Payload
		ebs = transport.RequestHeader(req)
		ebs.Flags &^= wire.EBSFlagHasCRC // set per packet below, never by the caller
	} else {
		payload = resp.Data
		crcs = resp.BlockCRCs
		ebs = transport.ResponseHeader(resp)
	}
	mtu := q.s.params.MTU
	numPkts := (len(payload) + mtu - 1) / mtu
	if numPkts == 0 {
		numPkts = 1
	}
	if len(crcs) != numPkts || (len(payload) > 0 && mtu != wire.BlockSize) {
		crcs = nil // carriage only when packets and CRC entries correspond 1:1
	}
	// Chunks reference the message payload through one shared slab (the
	// caller's, when it already has one).
	var ioSlab *simnet.Slab
	if len(payload) > 0 {
		if paySlab != nil {
			ioSlab = paySlab.Retain()
		} else {
			ioSlab = q.s.pool.WrapSlab(payload)
		}
	}
	baseFlags := ebs.Flags
	for i := 0; i < numPkts; i++ {
		lo := i * mtu
		hi := lo + mtu
		if hi > len(payload) {
			hi = len(payload)
		}
		chunk := payload[lo:hi]
		ebs.Flags = baseFlags
		ebs.BlockCRC = 0
		if crcs != nil {
			ebs.BlockCRC = crcs[i]
			ebs.Flags |= wire.EBSFlagHasCRC
		}
		rpc := wire.RPC{RPCID: id, PktID: uint16(i), NumPkts: uint16(numPkts), MsgType: op}
		if resp != nil {
			rpc.MsgType = wire.RPCWriteResp
		}
		p := outPkt{psn: q.nextPSN, hdr: q.s.pool.GetBuf(wire.HeadersSize)}
		if err := wire.EncodeHeaders(p.hdr, &rpc, &ebs); err != nil {
			panic(err)
		}
		if len(chunk) > 0 {
			p.slab = ioSlab.Retain()
			p.pay = chunk
		}
		q.sndQueue = append(q.sndQueue, p)
		q.nextPSN++
	}
	ioSlab.Release()
	q.pump()
}

func (q *qp) inflight() int { return int(q.sndNxt - q.sndUna) }

// unacked returns the live send queue: index 0 holds psn sndUna.
func (q *qp) unacked() []outPkt { return q.sndQueue[q.sndHead:] }

// retire drops the first n live packets, which the caller has released.
// The queue slides back to the front of its backing array once the retired
// prefix is at least as long as what is left, so it neither creeps forward
// into a re-grow nor pays a full shift per ack; the vacated tail is cleared
// so it pins no header or slab.
func (q *qp) retire(n int) {
	q.sndHead += n
	if live := len(q.sndQueue) - q.sndHead; live <= q.sndHead {
		copy(q.sndQueue, q.sndQueue[q.sndHead:])
		clear(q.sndQueue[q.sndHead:])
		q.sndQueue = q.sndQueue[:live]
		q.sndHead = 0
	}
}

// pump transmits packets while the controller's window — and, for
// rate-based controllers, its pacing budget — allows. With the default
// static controller the window is WindowPkts×MTU and Rate() is 0, which
// reduces to the old fixed-window loop exactly.
func (q *qp) pump() {
	winPkts := q.ctrl.Window() / q.s.params.MTU
	if winPkts < 1 {
		winPkts = 1
	}
	for q.inflight() < winPkts {
		idx := int(q.sndNxt - q.sndUna)
		sq := q.unacked()
		if idx >= len(sq) {
			break
		}
		if rate := q.ctrl.Rate(); rate > 0 {
			now := q.s.eng.Now()
			if !q.pacer.Ready(now) {
				q.pacer.Arm(now)
				break
			}
			q.pacer.Charge(now, pktHdrSize+len(sq[idx].pay), rate)
		}
		psn := sq[idx].psn
		if !q.sampleValid {
			q.samplePSN = psn + 1
			q.sampleAt = q.s.eng.Now()
			q.sampleValid = true
		}
		q.transmit(psn)
		q.sndNxt++
		if seqLT(q.sndMax, q.sndNxt) {
			q.sndMax = q.sndNxt
		}
	}
	if q.inflight() > 0 && !q.retx.Active() {
		q.retx.Arm()
	}
}

// lookup returns the queued packet holding psn, or nil when a cumulative
// ack already retired it.
func (q *qp) lookup(psn uint32) *outPkt {
	idx := int(int32(psn - q.sndUna))
	sq := q.unacked()
	if idx < 0 || idx >= len(sq) {
		return nil
	}
	return &sq[idx]
}

// transmit sends the queued packet holding psn, paying cache and PCIe
// costs. With the QP context resident and no PCIe crossing to pay — every
// BN endpoint — it runs straight through to the NIC; a closure is built
// only for the wait on a context fetch or a PCIe transfer.
func (q *qp) transmit(psn uint32) {
	if q.s.cacheHit(q.key) {
		q.transmitResident(psn)
		return
	}
	q.s.cacheMiss(q.key, func() { q.transmitResident(psn) })
}

func (q *qp) transmitResident(psn uint32) {
	p := q.lookup(psn)
	if p == nil {
		return
	}
	if data := len(p.pay); q.s.pcie != nil && data > 0 {
		q.s.pcie.Transfer(2*data, func() { q.send(psn) })
		return
	}
	q.send(psn)
}

// send builds and fires the frame for psn. The frame is built only when the
// NIC actually fires: a cumulative ack racing the cache/PCIe crossing may
// retire the PSN first, in which case nothing goes out — an RNIC never
// replays acknowledged PSNs, and the packet's pooled header and payload
// reference are already reclaimed.
//
//lint:hotpath
func (q *qp) send(psn uint32) {
	p := q.lookup(psn)
	if p == nil {
		return
	}
	bth := wire.TCPSeg{
		SrcPort: q.key.localQPN,
		DstPort: q.key.remoteQPN,
		Seq:     psn,
		Ack:     q.expectPSN,
		Flags:   wire.TCPFlagACK,
	}
	// Every transmission builds its own frame: BTH and header image are
	// private to the frame, the chunk rides as a refcounted fragment —
	// the RNIC's gather DMA from registered memory.
	pkt := q.s.pool.Get(pktHdrSize)
	if err := bth.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	copy(pkt.Payload[wire.TCPSegSize:], p.hdr)
	if p.slab != nil {
		pkt.AttachFrag(p.slab, p.pay)
	}
	pkt.Dst = q.key.peer
	pkt.Proto = Proto
	pkt.SrcPort = q.key.localQPN
	pkt.DstPort = q.key.remoteQPN
	pkt.Overhead = simnet.EthOverhead + wire.IPv4Size
	pkt.SentAt = q.s.eng.Now()
	if q.s.params.CC == cc.KindDCQCN {
		// DCQCN data is ECN-capable: switches CE-mark instead of only
		// tail-dropping, and the receiver answers marks with CNPs.
		pkt.ECN = wire.ECNECT0
	}
	p.sentAt = pkt.SentAt
	if !q.s.host.Send(pkt) {
		pkt.Release()
	}
}

// control sends a pure ACK or NAK frame.
func (q *qp) control(nak bool) {
	var flags uint8 = wire.TCPFlagACK
	if nak {
		flags |= wire.TCPFlagRST
	}
	bth := wire.TCPSeg{
		SrcPort: q.key.localQPN,
		DstPort: q.key.remoteQPN,
		Seq:     q.nextPSN,
		Ack:     q.expectPSN,
		Flags:   flags,
	}
	if q.s.ccEnabled() {
		// Echo the hop count data packets crossed so the sender's
		// controller can scale its delay target (Swift). The field is
		// unused (0) under the static baseline, keeping frames identical.
		bth.Window = uint16(q.rxHops)
	}
	pkt := q.s.pool.Get(wire.TCPSegSize)
	if err := bth.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	pkt.Dst = q.key.peer
	pkt.Proto = Proto
	pkt.SrcPort = q.key.localQPN
	pkt.DstPort = q.key.remoteQPN
	pkt.Overhead = simnet.EthOverhead + wire.IPv4Size
	pkt.SentAt = q.s.eng.Now()
	if !q.s.host.Send(pkt) {
		pkt.Release()
	}
}

// maybeCNP emits one congestion notification toward the data sender,
// rate-limited per QP so a burst of CE-marked arrivals folds into a single
// signal (the RNIC's CNP moderation timer).
func (q *qp) maybeCNP() {
	now := q.s.eng.Now()
	if q.lastCNP != 0 && now.Sub(q.lastCNP) < q.s.params.CNPInterval {
		return
	}
	q.lastCNP = now
	q.s.CNPsSent++
	bth := wire.TCPSeg{
		SrcPort: q.key.localQPN,
		DstPort: q.key.remoteQPN,
		Seq:     q.nextPSN,
		Ack:     q.expectPSN,
		Flags:   wire.TCPFlagACK | wire.TCPFlagECE,
	}
	cnp := wire.CNP{QPN: q.key.remoteQPN, PSN: q.expectPSN, TSNanos: uint64(now)}
	pkt := q.s.pool.Get(wire.TCPSegSize + wire.CNPSize)
	if err := bth.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	if err := cnp.Encode(pkt.Payload[wire.TCPSegSize:]); err != nil {
		panic(err)
	}
	pkt.Dst = q.key.peer
	pkt.Proto = Proto
	pkt.SrcPort = q.key.localQPN
	pkt.DstPort = q.key.remoteQPN
	pkt.Overhead = simnet.EthOverhead + wire.IPv4Size
	pkt.SentAt = now
	if !q.s.host.Send(pkt) {
		pkt.Release()
	}
}

// qpRTOExpired adapts the shared retransmitter's expiry to the QP's
// go-back-N policy.
func qpRTOExpired(a any) { a.(*qp).onRTO() }

// onRTO rewinds to the first unacknowledged PSN (go-back-N).
func (q *qp) onRTO() {
	if q.inflight() == 0 && int(q.sndNxt-q.sndUna) >= len(q.unacked()) {
		return
	}
	q.retx.RecordTimeout()
	q.ctrl.OnTimeout()
	q.goBackN()
	q.retx.Arm()
}

func (q *qp) goBackN() {
	// At most one rewind per RTT: in-flight packets beyond the gap keep
	// arriving out of order and would otherwise trigger rewind storms.
	now := q.s.eng.Now()
	srtt := q.rtt.SRTT()
	if srtt <= 0 {
		srtt = q.s.params.MinRTO
	}
	if q.lastRewind != 0 && now.Sub(q.lastRewind) < srtt {
		return
	}
	q.lastRewind = now
	q.s.Retransmits++
	q.sampleValid = false // Karn: retransmitted PSNs give no samples
	sq := q.unacked()
	for i := 0; i < q.inflight() && i < len(sq); i++ {
		sq[i].retxed = true
	}
	q.sndNxt = q.sndUna
	q.pump()
}

// releasePkt returns a retired packet's pooled header and payload
// reference; the wipe keeps the recycled slice backing from pinning them.
func (q *qp) releasePkt(p *outPkt) {
	if p.hdr != nil {
		q.s.pool.PutBuf(p.hdr)
	}
	if p.slab != nil {
		p.slab.Release()
	}
	*p = outPkt{}
}

// packetArrived processes one inbound frame on this QP; bth is the frame's
// decoded transport header. The caller still owns pkt and releases it when
// this returns, so anything kept beyond the call is either copied or holds
// its own reference on the frame's slab.
func (q *qp) packetArrived(bth wire.TCPSeg, pkt *simnet.Packet) {
	rest := pkt.Payload[wire.TCPSegSize:]
	if bth.Flags&wire.TCPFlagECE != 0 {
		// CNP: a pure congestion signal, carrying no ack or data. Feed the
		// controller and stop — the payload is the wire.CNP frame.
		var cnp wire.CNP
		if cnp.Decode(rest) != nil {
			return
		}
		q.s.CNPsRecv++
		q.ctrl.OnAck(cc.Feedback{CNP: true})
		q.pump() // rate changed; the pacer re-evaluates
		return
	}
	// Acknowledgment side (cumulative; NAK flagged with RST). Validity is
	// bounded by the highest PSN ever transmitted, not sndNxt: a go-back-N
	// rewind pulls sndNxt below packets the receiver already holds, and its
	// duplicate re-ACKs legitimately acknowledge past the rewound pointer —
	// dropping them would wedge the QP in a retransmit/re-ACK standoff.
	ack := bth.Ack
	if seqLT(q.sndUna, ack) && !seqLT(q.sndMax, ack) {
		now := q.s.eng.Now()
		n := int(ack - q.sndUna)
		acked := 0
		var delay time.Duration
		sq := q.unacked()
		for i := 0; i < n; i++ {
			p := &sq[i]
			acked += pktHdrSize + len(p.pay)
			if !p.retxed && p.sentAt != 0 {
				delay = now.Sub(p.sentAt) // newest retired clean sample wins
			}
			q.releasePkt(p)
		}
		q.retire(n)
		q.sndUna = ack
		if seqLT(q.sndNxt, ack) {
			q.sndNxt = ack // the ack retired PSNs the rewind meant to resend
		}
		q.retx.RecordAck()
		if q.sampleValid && !seqLT(ack, q.samplePSN) {
			q.rtt.Observe(now.Sub(q.sampleAt))
			q.sampleValid = false
		}
		q.ctrl.OnAck(cc.Feedback{
			RTT:        q.rtt.SRTT(),
			AckedBytes: acked,
			Delay:      delay,
			Hops:       int(bth.Window), // receiver-echoed (0 under static)
		})
		if q.inflight() > 0 || len(q.unacked()) > 0 {
			q.retx.Arm()
			q.pump()
		} else {
			q.retx.Disarm()
		}
	}
	if bth.Flags&wire.TCPFlagRST != 0 && ack == q.sndUna && q.inflight() > 0 {
		// NAK: receiver saw a gap. Rewind immediately.
		q.ctrl.OnLoss()
		q.goBackN()
	}

	if len(rest) == 0 {
		return
	}
	// Data side: record congestion state for the feedback the acks carry.
	if q.s.ccEnabled() {
		q.rxHops = uint8(64 - int(pkt.TTL)) // Host.Send seeds TTL=64; switches decrement
		if pkt.ECN == wire.ECNCE && q.s.params.CC == cc.KindDCQCN {
			q.maybeCNP()
		}
	}
	// Strict in-order acceptance (go-back-N receiver).
	if bth.Seq != q.expectPSN {
		if seqLT(q.expectPSN, bth.Seq) {
			if !q.nakSent {
				q.control(true) // one NAK per gap
				q.nakSent = true
			}
		} else {
			q.control(false) // duplicate: re-ACK
		}
		return
	}
	q.expectPSN++
	q.nakSent = false
	q.control(false)

	var rpc wire.RPC
	if err := rpc.Decode(rest); err != nil {
		return
	}
	var ebs wire.EBS
	if err := ebs.Decode(rest[wire.RPCSize:]); err != nil {
		return
	}
	// Zero-copy frames carry the chunk as a fragment; a flat frame has it
	// inline after the headers.
	inline := rest[wire.RPCSize+wire.EBSSize:]
	if isRequest(rpc.MsgType) && rpc.NumPkts == 1 && len(inline) == 0 {
		q.requestArrived(&rpc, &ebs, pkt)
		return
	}
	chunk := pkt.Frag
	if chunk == nil {
		chunk = inline
	}
	q.reassemble(&rpc, &ebs, chunk)
}

func isRequest(msgType uint8) bool {
	return msgType == wire.RPCWriteReq || msgType == wire.RPCReadReq
}

// requestArrived delivers a one-packet request by reference: Data is the
// frame's fragment and Payload the slab behind it, retained until the
// handler's reply returns. Nothing is copied and nothing allocated.
//
//lint:hotpath
func (q *qp) requestArrived(rpc *wire.RPC, ebs *wire.EBS, pkt *simnet.Packet) {
	j := q.s.getJob(q, rpc.RPCID)
	j.msgType = rpc.MsgType
	j.fillRequest(ebs, pkt.Frag, nil)
	j.msg.Payload = pkt.FragSlab().Retain()
	if ebs.Flags&wire.EBSFlagHasCRC != 0 {
		j.crc1[0] = ebs.BlockCRC
		j.msg.BlockCRCs = j.crc1[:]
	}
	q.s.cores.SubmitArg(q.s.params.PerRPCCPU, rpcDeliver, j)
}

// reassemble lands one chunk of a response or a multi-packet request. This
// is the receive side's one materialisation — the chunks must be contiguous
// for the handler, and a response's Data is handed over to its receiver —
// so the payload is fresh, sized once from the packet count, and each chunk
// is counted as a copy. The CRC list is the job's.
func (q *qp) reassemble(rpc *wire.RPC, ebs *wire.EBS, chunk []byte) {
	j := q.assembler[rpc.RPCID]
	if j == nil {
		j = q.s.getJob(q, rpc.RPCID)
		j.ebs, j.msgType, j.numPkts = *ebs, rpc.MsgType, int(rpc.NumPkts)
		if j.numPkts > 1 {
			q.assembler[rpc.RPCID] = j
		}
	}
	if len(chunk) > 0 {
		if j.payload == nil {
			size := len(chunk)
			if j.numPkts > 1 {
				size = j.numPkts * q.s.params.MTU
			}
			j.payload = make([]byte, 0, size)
		}
		j.payload = append(j.payload, chunk...)
		q.s.pool.CountCopy(len(chunk))
	}
	// Carried one-touch CRCs arrive in PSN order (strict in-order receiver);
	// the set is usable only if every packet of the message carried one.
	if ebs.Flags&wire.EBSFlagHasCRC != 0 {
		j.crcs = append(j.crcs, ebs.BlockCRC)
	}
	j.received++
	if j.received != j.numPkts {
		return
	}
	if j.numPkts > 1 {
		delete(q.assembler, rpc.RPCID)
	}
	if len(j.crcs) != j.numPkts {
		j.crcs = j.crcs[:0]
	}
	if isRequest(j.msgType) {
		j.fillRequest(&j.ebs, j.payload, j.crcs)
	}
	q.s.cores.SubmitArg(q.s.params.PerRPCCPU, rpcDeliver, j)
}
