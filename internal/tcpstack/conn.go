package tcpstack

import (
	"time"

	"lunasolar/internal/cc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// seqLT reports a < b in 32-bit wraparound arithmetic.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// conn is one direction-pair of a persistent connection. Both peers hold a
// conn with mirrored ports; each side sends its own byte stream and acks
// the other's.
type conn struct {
	s   *Stack
	key connKey

	ctrl *cc.DCTCP // window-only: pump never paces
	rtt  *transport.RTT

	// Sender state.
	outQ    spanQueue // bytes [sndUna, sndUna+outQ.len())
	sndUna  uint32
	sndNxt  uint32
	maxSent uint32 // high-water mark of sndNxt (survives RTO rewinds)
	dupAcks int
	retx    transport.Retransmitter

	// NewReno fast recovery: while inFastRec, each partial ack below
	// recover retransmits the next hole immediately instead of waiting for
	// an RTO per lost segment.
	inFastRec bool
	recover   uint32

	sampleSeq   uint32
	sampleAt    sim.Time
	sampleValid bool

	txSegs uint64 // for TSO amortization

	// Receiver state.
	rcvNxt uint32
	ooo    map[uint32][]byte
	rx     recordReader
}

func newConn(s *Stack, k connKey) *conn {
	p := s.params
	c := &conn{
		s:   s,
		key: k,
		// Luna runs DCTCP over ECN; the kernel baseline runs plain AIMD
		// (the same controller never sees marks, so it reduces only on
		// loss).
		ctrl: cc.NewDCTCP(p.MSS, p.InitCwnd, p.MaxCwnd),
		rtt:  transport.NewRTT(p.MinRTO, p.MaxRTO),
		ooo:  map[uint32][]byte{},
	}
	c.retx.Init(s.eng, c.rtt, -1, connRTOExpired, c)
	return c
}

// enqueueRecord appends a framed record span to the send stream and pumps.
func (c *conn) enqueueRecord(sp span) {
	c.outQ.push(sp)
	c.pump()
}

// inflight returns unacknowledged bytes.
func (c *conn) inflight() int { return int(c.sndNxt - c.sndUna) }

// unsent returns bytes queued but not yet transmitted.
func (c *conn) unsent() int { return c.outQ.len() - c.inflight() }

// gatherStream copies stream bytes [seq, seq+len(dst)) into dst. Bytes a
// racing cumulative ack already trimmed are zero-filled — the receiver
// discards any segment overlapping acknowledged bytes unread, so the fill
// can never change what the stream delivers.
func (c *conn) gatherStream(dst []byte, seq uint32) {
	rel := int(int32(seq - c.sndUna))
	if rel < 0 {
		nz := -rel
		if nz > len(dst) {
			nz = len(dst)
		}
		for i := 0; i < nz; i++ {
			dst[i] = 0
		}
		if nz == len(dst) {
			return
		}
		c.outQ.copyOut(dst[nz:], 0)
		return
	}
	c.outQ.copyOut(dst, rel)
}

// pump transmits while the congestion window allows.
func (c *conn) pump() {
	p := c.s.params
	for c.unsent() > 0 && c.inflight() < c.ctrl.Window() {
		n := c.unsent()
		if n > p.MSS {
			n = p.MSS
		}
		seq := c.sndNxt
		c.sndNxt += uint32(n)
		if seqLT(c.maxSent, c.sndNxt) {
			c.maxSent = c.sndNxt
		}
		if !c.sampleValid {
			c.sampleSeq = c.sndNxt
			c.sampleAt = c.s.eng.Now()
			c.sampleValid = true
		}
		c.transmit(seq, n, false)
	}
	if c.inflight() > 0 && !c.retx.Active() {
		c.retx.Arm()
	}
}

// transmit sends one segment of n stream bytes starting at seq (data or
// retransmission). The bytes are gathered from the span queue at frame
// build, so the record carries only (seq, n).
//
//lint:hotpath
func (c *conn) transmit(seq uint32, n int, isRetx bool) {
	p := &c.s.params
	cost := p.PerPktTxCPU
	if p.TSOBatch > 1 {
		cost = time.Duration(int64(cost) / int64(p.TSOBatch))
	}
	cost += c.s.contention()
	c.txSegs++
	if isRetx {
		c.s.Retransmits++
	}
	c.s.cores.SubmitArg(cost, txCharged, c.getTx(seq, n, 0))
}

// makePacket builds the frame (TCP header + n stream bytes from seq) from
// the host's packet pool. The gather here is the data path's single
// payload copy: headers were encoded once into the record's pooled
// prefix, and the payload bytes move straight from their slab into the
// frame (the NIC's scatter-gather DMA, modelled as one memcpy).
func (c *conn) makePacket(seq uint32, n int, extraFlags uint8) *simnet.Packet {
	hdr := wire.TCPSeg{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   wire.TCPFlagACK | extraFlags,
		Window:  65535,
	}
	pkt := c.s.pool.Get(wire.TCPSegSize + n)
	if err := hdr.Encode(pkt.Payload); err != nil {
		panic(err)
	}
	if n > 0 {
		c.gatherStream(pkt.Payload[wire.TCPSegSize:], seq)
		c.s.pool.CountCopy(n)
	}
	ecn := uint8(wire.ECNNotECT)
	if c.s.params.UseECN {
		ecn = wire.ECNECT0
	}
	pkt.Dst = c.key.peer
	pkt.Proto = wire.ProtoTCP
	pkt.SrcPort = c.key.localPort
	pkt.DstPort = c.key.remotePort
	pkt.ECN = ecn
	pkt.Overhead = simnet.EthOverhead + wire.IPv4Size
	pkt.SentAt = c.s.eng.Now()
	return pkt
}

// sendPureAck acknowledges received data; ece echoes a CE mark.
//
//lint:hotpath
func (c *conn) sendPureAck(ece bool) {
	var flags uint8
	if ece {
		flags |= wire.TCPFlagECE
	}
	c.s.cores.SubmitArg(c.s.params.PerPktTxCPU/2, txCharged, c.getTx(0, 0, flags))
}

// connRTOExpired adapts the shared retransmitter's expiry to the
// connection's RTO policy.
func connRTOExpired(a any) { a.(*conn).onRTO() }

func (c *conn) onRTO() {
	if c.inflight() == 0 {
		// Spurious expiry (everything was acked after the last arm): no
		// backoff penalty.
		return
	}
	c.s.Timeouts++
	c.s.Retransmits++
	c.retx.RecordTimeout()
	c.inFastRec = false
	c.ctrl.OnTimeout()
	c.sampleValid = false // Karn: never sample retransmissions
	// Slow-start retransmission: rewind to the hole so the window governs
	// recovery (everything past sndUna is presumed lost or will be re-acked
	// cumulatively). Keeping sndNxt forward would wedge the pipe: inflight
	// could exceed the collapsed window forever.
	c.sndNxt = c.sndUna
	c.pump()
	c.retx.Arm()
}

// retransmitHead resends the first unacknowledged segment.
func (c *conn) retransmitHead() {
	n := c.inflight()
	if n > c.s.params.MSS {
		n = c.s.params.MSS
	}
	if n <= 0 {
		return
	}
	c.transmit(c.sndUna, n, true)
}

// segmentArrived processes an inbound segment (data, ack, or both).
func (c *conn) segmentArrived(hdr wire.TCPSeg, payload []byte, ce bool) {
	c.processAck(hdr, len(payload) == 0)
	if len(payload) > 0 {
		c.processData(hdr.Seq, payload, ce)
	}
}

func (c *conn) processAck(hdr wire.TCPSeg, pureAck bool) {
	ack := hdr.Ack
	if seqLT(c.sndUna, ack) && !seqLT(c.maxSent, ack) {
		// After an RTO rewind, data sent before the rewind may still be
		// delivered and acknowledged beyond sndNxt; accept anything up to
		// the high-water mark and fast-forward sndNxt over it.
		if seqLT(c.sndNxt, ack) {
			c.sndNxt = ack
		}
		acked := int(ack - c.sndUna)
		c.outQ.trim(c.s.pool, acked)
		c.sndUna = ack
		c.dupAcks = 0
		c.retx.RecordAck()
		if c.sampleValid && !seqLT(ack, c.sampleSeq) {
			c.rtt.Observe(c.s.eng.Now().Sub(c.sampleAt))
			c.sampleValid = false
		}
		if c.inFastRec {
			if seqLT(ack, c.recover) {
				// Partial ack: the next hole is lost too — retransmit it
				// now (NewReno) rather than stalling for an RTO.
				c.retransmitHead()
			} else {
				c.inFastRec = false
			}
		}
		c.ctrl.OnAck(cc.Feedback{
			RTT:        c.rtt.SRTT(),
			AckedBytes: acked,
			ECNMarked:  hdr.Flags&wire.TCPFlagECE != 0,
		})
		if c.inflight() > 0 {
			c.retx.Arm()
		} else {
			c.retx.Disarm()
		}
		c.pump()
		return
	}
	if pureAck && ack == c.sndUna && c.inflight() > 0 {
		c.dupAcks++
		if c.dupAcks == 3 && !c.inFastRec {
			// Fast retransmit; enter NewReno recovery.
			c.inFastRec = true
			c.recover = c.sndNxt
			c.ctrl.OnLoss()
			c.sampleValid = false
			c.retransmitHead()
		}
	}
}

// processData takes a data segment: in order, its bytes and any buffered
// segments it makes contiguous go to the record reader; ahead of rcvNxt,
// it is buffered. Either way it is acknowledged.
//
//lint:hotpath
func (c *conn) processData(seq uint32, payload []byte, ce bool) {
	switch {
	case seq == c.rcvNxt:
		c.rcvNxt += uint32(len(payload))
		framed := c.readRecords(payload)
		// Drain contiguous out-of-order segments.
		for {
			seg, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.rcvNxt += uint32(len(seg))
			framed = framed && c.readRecords(seg)
		}
		// An RTO rewind re-cuts segments from sndUna, so a buffered segment
		// can start below the new rcvNxt; no drain would ever reach it, and
		// it would pin its copy and a reassembly slot for good.
		for start := range c.ooo {
			if seqLT(start, c.rcvNxt) {
				delete(c.ooo, start)
			}
		}
	case seqLT(c.rcvNxt, seq):
		c.bufferOutOfOrder(seq, payload)
	default:
		// Old duplicate; re-ack below.
	}
	c.sendPureAck(ce)
}

// readRecords feeds in-order stream bytes to the record reader and
// dispatches every record they complete, in stream order. It returns false
// when the framing broke: processData then drops the rest of the bytes it
// is delivering (a connection would reset in production; the simulation
// re-frames on retransmit).
func (c *conn) readRecords(b []byte) bool {
	for len(b) > 0 {
		rec, rest, ok, err := c.rx.next(b)
		if err != nil {
			return false
		}
		if ok {
			c.s.dispatchRecord(c, rec)
		}
		b = rest
	}
	return true
}

// bufferOutOfOrder keeps a copy of a segment that arrived ahead of rcvNxt,
// if capacity allows (head-of-line blocking — the cost Solar's design
// eliminates).
func (c *conn) bufferOutOfOrder(seq uint32, payload []byte) {
	if len(c.ooo) < c.s.params.RxBufferSegs {
		if _, dup := c.ooo[seq]; !dup {
			c.ooo[seq] = append([]byte(nil), payload...)
		}
	}
}
