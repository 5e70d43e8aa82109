package core

import (
	"slices"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/simnet"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// readReqPktID marks the read-request packet within an RPC's ID space
// (response blocks use 0..n-1).
const readReqPktID = 0xffff

// maxReadReissues bounds how often one read is re-issued after its
// aggregate check fails, so a card that corrupts every block ends the read
// with transport.ErrIntegrity. A card that corrupts most blocks still gets
// its reads through well inside it: Example_integrity's, at a third of
// blocks corrupted and a third of sums flipped, take up to 28.
const maxReadReissues = 64

// rpc is one client RPC, from Call to its one completion. Every step of it
// is a function of this record: the issue charge (rpcIssue), Addr-table
// admission (admitRead), per-block progress (runAck, commitReadBlock), the
// done charge (complete, rpcDone) and the read integrity re-issue. The
// per-block slices keep their arrays across reuse (see putRPC), so an RPC
// allocates nothing beyond a read's guest buffer. done receives &r.resp,
// valid until it returns; the record then goes back to the pool.
type rpc struct {
	s    *Stack
	id   uint64
	dst  uint32
	op   uint8 // wire.RPCWriteReq or wire.RPCReadReq
	n    int   // blocks
	got  int   // blocks acknowledged (WRITE) or received (READ)
	req  *transport.Message
	done func(*transport.Response)
	agg  crc.Aggregator
	// resp is what done receives; its ServerWall/SSDTime accumulate the
	// distributed-trace maxima over blocks.
	resp transport.Response

	// WRITE: every block is an independent packet; the RPC completes when
	// each block has its durable ACK.
	blocks [][]byte // original (trusted) payloads
	pkts   []*outPkt
	// slabs holds payload-slab references the RPC itself must keep alive —
	// the caller's buffer, for blocks whose packet switched to a
	// corruption-scratch slab — released when the write completes. Empty on
	// the fault-free path.
	slabs []*simnet.Slab

	// READ: the expected response blocks (Fig. 13's Addr table entries).
	received []bool
	buf      []byte
	reissues int // integrity re-issues so far, see maxReadReissues
}

// Call implements transport.Client. A write takes its RPC ID at once; a
// read takes one when the Addr table admits it. A read that needs more
// entries than the table holds fails at once: FIFO admission would queue it
// forever, and every later read behind it.
func (s *Stack) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	r := s.getRPC()
	r.op, r.dst, r.req, r.done, r.n = req.Op, dst, req, done, wire.Blocks(req.ReadLen)
	switch {
	case req.Op == wire.RPCWriteReq:
		r.n = wire.Blocks(len(req.Data))
		s.issue(r)
	case req.Op != wire.RPCReadReq || r.n > s.addrCap:
		r.resp.Err = transport.ErrAdmission
		r.finish()
	case r.n <= 0:
		r.finish()
	default:
		r.received = slices.Grow(r.received, r.n)[:r.n]
		r.buf = make([]byte, req.ReadLen)
		s.admitRead(r)
	}
}

// issue gives r a fresh RPC ID and charges the issue CPU; rpcIssue then
// puts its packets on the wire.
func (s *Stack) issue(r *rpc) {
	r.id = s.ids.Next()
	s.rpcs[r.id] = r
	s.cores.SubmitArg(s.params.PerRPCIssueCPU, rpcIssue, r)
}

// rpcIssue runs after the issue charge: a READ sends its request packet; a
// WRITE becomes one packet per block, folds the software CRC aggregate,
// rebuilds from the trusted buffers any block the engine disagrees with,
// and sends them all.
func rpcIssue(a any) {
	r := a.(*rpc)
	s, req, n := r.s, r.req, r.n
	pe := s.peerFor(r.dst)
	if r.op == wire.RPCReadReq {
		e := s.newOutPkt()
		e.key = pktKey{rpcID: r.id, pktID: readReqPktID}
		e.msgType = wire.RPCReadReq
		e.ebs = wire.EBS{
			Version: wire.EBSVersion, Op: wire.OpRead, Flags: req.Flags,
			VDisk: req.VDisk, SegmentID: req.SegmentID,
			LBA: req.LBA, Gen: req.Gen, BlockLen: uint32(req.ReadLen),
		}
		e.size = wire.RPCSize + wire.EBSSize
		s.sendPkt(pe, e)
		return
	}
	r.blocks, r.pkts = slices.Grow(r.blocks, n), slices.Grow(r.pkts, n)
	// One-touch CRC metadata from SA ingress: valid only when it covers
	// exactly the blocks we transmit. The values feed both the trusted
	// aggregate and the engine's cached input.
	carried := req.BlockCRCs
	if len(carried) != n {
		carried = nil
	}
	// Blocks ride the caller's buffer by reference; ioSlab is the shared
	// refcount for all of them.
	var ioSlab *simnet.Slab
	if req.Payload != nil {
		ioSlab = req.Payload.Retain()
	} else {
		ioSlab = s.pool.WrapSlab(req.Data)
	}
	for i := 0; i < n; i++ {
		lo := i * wire.BlockSize
		hi := min(lo+wire.BlockSize, len(req.Data))
		orig := req.Data[lo:hi]
		paySlab := ioSlab.Retain() // one owned reference to place
		r.blocks = append(r.blocks, orig)

		carriedSum, haveCarried := uint32(0), false
		if carried != nil {
			carriedSum, haveCarried = carried[i], true
		}

		e := s.newOutPkt()
		// What streams through the FPGA is the trusted buffer itself; a
		// datapath fault materialises a private scratch copy instead of
		// corrupting it (see txCRC).
		tx := orig
		sum, corrupted := s.txCRC(tx, carriedSum, haveCarried)
		if corrupted != nil {
			tx = corrupted
			e.slab = s.crcScratchSlab
			s.crcScratchSlab = nil
			// The trusted bytes must outlive the packet: the RPC adopts the
			// displaced payload reference.
			r.slabs = append(r.slabs, paySlab)
		} else {
			e.slab = paySlab
		}

		// Software CRC aggregation: the CPU folds the trusted per-block
		// value (the carried one-touch CRC, or one XOR-accumulate pass over
		// guest memory) and the engine-reported value.
		if haveCarried {
			r.agg.AddExpected(carriedSum)
		} else {
			r.agg.AddExpected(crc.Raw(orig))
		}
		r.agg.AddBlockCRC(sum)

		flags := req.Flags
		if i == n-1 {
			flags |= wire.EBSFlagLastBlock
		}
		e.key = pktKey{rpcID: r.id, pktID: uint16(i)}
		e.msgType = wire.RPCWriteReq
		e.ebs = wire.EBS{
			Version: wire.EBSVersion, Op: wire.OpWrite, Flags: flags,
			VDisk: req.VDisk, SegmentID: req.SegmentID,
			LBA: req.LBA + uint64(lo), Gen: req.Gen,
			BlockLen: uint32(hi - lo), BlockCRC: sum,
		}
		e.payload = tx
		e.size = wire.RPCSize + wire.EBSSize + len(tx)
		r.pkts = append(r.pkts, e)
	}
	ioSlab.Release()

	// Software integrity pass: one XOR-accumulate per block.
	s.cores.Submit(s.aggCost(n), nil)

	// Aggregation check before the blocks hit the wire: a mismatch means
	// the FPGA corrupted data or CRCs; rebuild the affected blocks in
	// software (full CRC cost) from the trusted buffers.
	if !r.agg.Verify() {
		s.IntegrityHits++
		s.rec.Record(s.eng.Now().Duration(), trace.EvIntegrityHit, r.id, 0)
		var fixCPU time.Duration
		for i, e := range r.pkts {
			trusted := crc.Raw(r.blocks[i])
			if crc.Raw(e.payload) != trusted || e.ebs.BlockCRC != trusted {
				copy(e.payload, r.blocks[i]) // same length: tx was copied from this block
				e.ebs.BlockCRC = trusted
				fixCPU += s.params.SoftCRCPer4K
			}
		}
		s.cores.Submit(fixCPU, nil)
	}
	for _, e := range r.pkts {
		s.sendPkt(pe, e)
	}
}

// complete is the one place an RPC ends — a write fully acknowledged, a
// write or read rejected by its server, a read fully received: r leaves
// the RPC table, a write's adopted slabs are released, and the done charge
// (plus the aggregate fold for a received read) runs before rpcDone.
//
//lint:hotpath
func (s *Stack) complete(r *rpc, err error) {
	delete(s.rpcs, r.id)
	for _, sl := range r.slabs {
		sl.Release()
	}
	r.slabs = nil
	cost := s.params.PerRPCDoneCPU
	if err != nil {
		r.resp = transport.Response{Err: err}
	} else if r.op == wire.RPCReadReq {
		cost += s.aggCost(r.n)
	}
	s.cores.SubmitArg(cost, rpcDone, r)
}

// rpcDone verifies a received read's aggregate — a mismatch means the FPGA
// corrupted at least one block on its way to guest memory, so the read is
// re-issued with fresh Addr entries and a fresh RPC ID, up to
// maxReadReissues times, and then fails with transport.ErrIntegrity — and
// otherwise calls done.
//
//lint:hotpath
func rpcDone(a any) {
	r := a.(*rpc)
	if r.op == wire.RPCReadReq && r.resp.Err == nil {
		if !r.agg.Verify() {
			s := r.s
			s.IntegrityHits++
			s.rec.Record(s.eng.Now().Duration(), trace.EvIntegrityHit, r.id, 0)
			if r.reissues == maxReadReissues {
				r.resp = transport.Response{Err: transport.ErrIntegrity}
				r.finish()
				return
			}
			r.reissues++
			r.agg, r.resp, r.got = crc.Aggregator{}, transport.Response{}, 0
			clear(r.received)
			s.admitRead(r)
			return
		}
		r.resp.Data = r.buf
	}
	r.finish()
}

// finish hands the response to done, then recycles the record.
//
//lint:hotpath
func (r *rpc) finish() {
	r.done(&r.resp)
	r.s.putRPC(r)
}

// txCRC runs the outbound CRC stage for one block. carried/haveCarried is
// the block's one-touch raw CRC from SA ingress, sparing the engine model
// a host-side byte walk on the fault-free path. tx aliases trusted memory,
// so a datapath fault is materialised into a pooled scratch slab — parked
// in s.crcScratchSlab, corrupted bytes returned — instead of being flipped
// in place.
func (s *Stack) txCRC(tx []byte, carried uint32, haveCarried bool) (uint32, []byte) {
	if s.params.Mode == Offloaded && s.card != nil {
		// FPGA engine: fault-injectable.
		return s.card.ComputeCRCShared(tx, carried, haveCarried, s.crcScratchFn)
	}
	// CPUPath/StorageServer: software CRC (trusted), charged to the CPU.
	s.cores.Submit(s.params.SoftCRCPer4K, nil)
	if haveCarried {
		return carried, nil
	}
	return crc.Raw(tx), nil
}

// --- READ admission ---------------------------------------------------------

// admitRead issues r once the Addr table has an entry for each of its
// blocks; reads queue in FIFO order when it is full.
func (s *Stack) admitRead(r *rpc) {
	if len(s.addrQueue) == 0 && s.addrInUse+r.n <= s.addrCap {
		s.addrInUse += r.n
		s.issue(r)
		return
	}
	s.addrQueue = append(s.addrQueue, addrWaiter{r: r, since: s.eng.Now()})
}

// releaseAddr frees n Addr entries and admits the reads at the head of the
// queue that now fit, oldest first.
func (s *Stack) releaseAddr(n int) {
	s.addrInUse -= n
	admitted := 0
	for _, w := range s.addrQueue {
		if s.addrInUse+w.r.n > s.addrCap {
			break
		}
		admitted++
		s.addrInUse += w.r.n
		wait := s.eng.Now().Sub(w.since)
		s.AdmissionWait += wait
		s.issue(w.r)
		s.rec.Record(s.eng.Now().Duration(), trace.EvAdmissionWait, w.r.id, uint64(wait))
	}
	s.addrQueue = slices.Delete(s.addrQueue, 0, admitted)
}

// --- packet transmission ----------------------------------------------------

// sendPkt dispatches a packet onto the peer's best path, or backlogs it
// when every path's window is full.
func (s *Stack) sendPkt(pe *peer, e *outPkt) {
	p := pe.pickPath(e.size)
	if p == nil {
		pe.backlog = append(pe.backlog, e)
		return
	}
	s.transmitOn(pe, p, e)
}

// drainBacklog moves window-blocked packets, oldest first, onto paths freed
// by acks. The sent ones leave the front of the queue in place, so the
// queue keeps its array.
//
//lint:hotpath
func (s *Stack) drainBacklog(pe *peer) {
	sent := 0
	for _, e := range pe.backlog {
		p := pe.pickPath(e.size)
		if p == nil {
			break
		}
		s.transmitOn(pe, p, e)
		sent++
	}
	pe.backlog = slices.Delete(pe.backlog, 0, sent)
}

func (s *Stack) transmitOn(pe *peer, p *path, e *outPkt) {
	s.out[outKey{peer: pe.addr, k: e.key}] = e
	e.pe = pe
	e.path = p
	p.seq++
	e.pathSeq = p.seq
	e.sentAt = s.eng.Now()
	p.inflightBytes += e.size
	p.outstanding = append(p.outstanding, outRef{e: e, gen: e.gen})
	p.sent++

	// The frame is encoded now, from a pooled buffer; the placement events
	// below only model where the bytes travel before reaching the NIC.
	dataLen := len(e.payload)
	x := s.getTx(s.buildWire(e, p.id), dataLen)

	// Data-path placement: Offloaded blocks ride the FPGA pipeline;
	// CPUPath pays PCIe (×2) and per-block CPU; servers pay per-block CPU.
	switch {
	case s.params.Mode == Offloaded && s.card != nil && dataLen > 0:
		s.eng.ScheduleArg(s.card.PipelineWriteLatency(), wireTxSend, x)
	case s.params.Mode == CPUPath && s.card != nil && dataLen > 0:
		s.cores.SubmitArg(s.params.PerBlockCPU, wireTxPCIe, x)
	case dataLen > 0:
		s.cores.SubmitArg(s.params.PerBlockCPU, wireTxSend, x)
	default:
		wireTxSend(x)
	}

	// Backoff is capped low (maxExp 3, set at Init): retransmissions are
	// idempotent and the SLA punishes hangs, not duplicates. The estimator
	// is the chosen path's, so the RTO tracks the route actually in use.
	e.retx.ArmOn(&p.rtt)
}

// buildWire encodes e into a pooled frame addressed down the given path.
// The frame carries headers only; a payload block rides as a refcounted
// fragment of e.slab — the NIC's gather DMA — and each (re)transmission
// attaches its own reference.
//
//lint:hotpath
func (s *Stack) buildWire(e *outPkt, pathID uint16) *simnet.Packet {
	rpc := wire.RPC{
		RPCID: e.key.rpcID, PktID: e.key.pktID,
		NumPkts: 1, MsgType: e.msgType,
	}
	pkt := s.pool.Get(wire.HeadersSize)
	if err := wire.EncodeHeaders(pkt.Payload, &rpc, &e.ebs); err != nil {
		panic(err)
	}
	if e.slab != nil {
		pkt.AttachFrag(e.slab, e.payload)
	}
	pkt.Dst = e.pe.addr
	pkt.Proto = wire.ProtoUDP
	pkt.SrcPort = pathID
	pkt.DstPort = ListenPort
	pkt.ECN = wire.ECNECT0
	pkt.Overhead = simnet.DefaultOverheadUDP
	pkt.ResetINT()
	pkt.SentAt = e.sentAt
	return pkt
}

// timerExpired is the pooled-record RTO trampoline, invoked by the packet's
// embedded retransmitter. The record cannot have been recycled: recycling
// disarms the retransmitter first.
func timerExpired(a any) {
	e := a.(*outPkt)
	e.owner.onTimeout(e.pe, e)
}

// onTimeout handles a per-packet RTO: selective retransmission, and path
// failover after consecutive timeouts.
func (s *Stack) onTimeout(pe *peer, e *outPkt) {
	if e.acked {
		return
	}
	p := e.path
	p.consecTO++
	p.ctrl.OnTimeout()
	if p.consecTO >= s.params.PathFailThreshold {
		s.failover(p)
	}
	s.retransmit(pe, e)
}

// retransmit re-sends a packet on the peer's current best path (bypassing
// the window: loss recovery is urgent).
func (s *Stack) retransmit(pe *peer, e *outPkt) {
	s.Retransmits++
	s.rec.Record(s.eng.Now().Duration(), trace.EvRetransmit, e.key.rpcID, uint64(e.key.pktID))
	e.retx.RecordTimeout()
	old := e.path
	if old != nil {
		old.inflightBytes -= e.size
		if old.inflightBytes < 0 {
			old.inflightBytes = 0
		}
	}
	// Prefer a window-open low-RTT path; otherwise round-robin away from
	// the timed-out one.
	p := pe.pickPath(e.size)
	if p == nil {
		p = pe.paths[int(s.randomizer.Int31n(int32(len(pe.paths))))]
	}
	if p == old && len(pe.paths) > 1 {
		for _, cand := range pe.paths {
			if cand != old {
				p = cand
				break
			}
		}
	}
	s.transmitOn(pe, p, e)
}

// earlyRetransmit scans a path's send queue after an ack: packets sent
// before ≥3 subsequently-acked packets on the same path are declared lost
// (out-of-order arrival detection, §4.5).
func (s *Stack) earlyRetransmit(pe *peer, p *path) {
	live := p.outstanding[:0]
	var lost []*outPkt
	for _, r := range p.outstanding {
		e := r.e
		if !r.live() || e.acked || e.path != p {
			continue // lazily drop recycled/acked/re-homed entries
		}
		// Write blocks are excluded: their (durable) ACKs return in
		// persistence order, not arrival order, so ack counting would
		// misfire. Writes recover via the per-packet RTO, whose estimator
		// absorbs the persistence variance. For transport-acked packets the
		// rule is dup-ACK-like: lost if ≥3 packets sent after it on the
		// same path were already acknowledged.
		if e.msgType != wire.RPCWriteReq && p.maxAckedSeq >= e.pathSeq+3 {
			lost = append(lost, e)
			continue
		}
		live = append(live, r)
	}
	p.outstanding = live
	for _, e := range lost {
		p.ctrl.OnLoss()
		s.retransmit(pe, e)
	}
}
