package tcpstack

import (
	"encoding/binary"
	"errors"

	"lunasolar/internal/simnet"
	"lunasolar/internal/wire"
)

// span is one framed record on the send stream, kept scattered until frame
// build: the record header lives in a small pooled prefix, the payload is
// attached by reference to a shared slab. Spans are copied at most once,
// by the frame gather.
type span struct {
	hdr  []byte       // pooled record header prefix (wire.RecordHeaderSize)
	pay  []byte       // payload bytes: a subrange of slab
	slab *simnet.Slab // reference held until the span is acked away
}

func (sp *span) size() int { return len(sp.hdr) + len(sp.pay) }

// spanQueue is the send stream [sndUna, sndUna+length): a FIFO of record
// spans with byte-granular head trimming, so cumulative acks release
// header buffers and payload references as soon as the bytes are
// acknowledged. Storage is a head-indexed slice reused in place — no
// allocation in steady state, deterministic reuse order.
type spanQueue struct {
	spans   []span
	head    int // index of the first live span
	headOff int // bytes of spans[head] already trimmed
	length  int // live bytes in the queue
}

func (q *spanQueue) len() int { return q.length }

func (q *spanQueue) push(sp span) {
	if q.head == len(q.spans) {
		// Fully drained: rewind so append reuses the backing array.
		q.spans = q.spans[:0]
		q.head = 0
	}
	q.spans = append(q.spans, sp)
	q.length += sp.size()
}

// trim drops n acknowledged bytes from the head, returning header buffers
// to the pool and dropping payload references of fully consumed spans.
func (q *spanQueue) trim(pool *simnet.PacketPool, n int) {
	q.length -= n
	n += q.headOff
	q.headOff = 0
	for n > 0 {
		sp := &q.spans[q.head]
		if sz := sp.size(); n < sz {
			q.headOff = n
			return
		} else {
			n -= sz
		}
		q.release(pool, sp)
		q.head++
	}
}

func (q *spanQueue) release(pool *simnet.PacketPool, sp *span) {
	if sp.hdr != nil {
		pool.PutBuf(sp.hdr)
	}
	sp.slab.Release() // nil (payload-less record) is a no-op
	*sp = span{}
}

// copyOut gathers queue bytes [off, off+len(dst)) into dst, off relative
// to the queue head. Ranges beyond the queued bytes are zero-filled: a
// deferred (re)transmission can race with a cumulative ack that already
// trimmed part of its range, and the receiver provably discards any
// segment overlapping acknowledged bytes without reading its content, so
// the fill value can never influence the stream.
func (q *spanQueue) copyOut(dst []byte, off int) {
	off += q.headOff
	n := 0
	for i := q.head; i < len(q.spans) && n < len(dst); i++ {
		sp := &q.spans[i]
		for _, part := range [2][]byte{sp.hdr, sp.pay} {
			if off >= len(part) {
				off -= len(part)
				continue
			}
			n += copy(dst[n:], part[off:])
			off = 0
			if n == len(dst) {
				return
			}
		}
	}
	for ; n < len(dst); n++ {
		dst[n] = 0
	}
}

// recordReader turns the in-order receive stream back into records without
// buffering the stream: header bytes collect in a fixed array, and when the
// header is complete the reader takes one buffer of exactly the payload's
// size and copies segment bytes straight into it. A request's payload is a
// slab from the host's pool, which the record carries to the handler and
// reply gives back; a response's is a fresh buffer of its own, because its
// Data is handed over to its receiver. Neither is ever a packet's.
type recordReader struct {
	pool *simnet.PacketPool // a request payload's slab comes from here
	hdr  [recordHdrSize]byte
	nhdr int          // header bytes collected
	pay  []byte       // payload of the record being read, made when its header completes
	slab *simnet.Slab // pay's slab, for a request
	npay int          // payload bytes filled
}

// errFraming reports a record whose length word or headers do not decode.
var errFraming = errors.New("tcpstack: corrupt record framing")

// next consumes b up to the end of the record being read and returns the
// bytes after it; ok reports that the record completed, and rec is then
// that record, holding the reference on a request payload's slab. A length
// shorter than the record header is caught as soon as the length word is
// in, headers that do not decode when the record completes; either resets
// the reader, dropping the record's slab, and returns errFraming.
func (r *recordReader) next(b []byte) (rec record, rest []byte, ok bool, err error) {
	if r.nhdr < len(r.hdr) {
		n := copy(r.hdr[r.nhdr:], b)
		r.nhdr += n
		b = b[n:]
		if r.nhdr < 4 {
			return record{}, b, false, nil
		}
		total := int(binary.BigEndian.Uint32(r.hdr[:4]))
		if total < recordHdrSize {
			r.reset()
			return record{}, nil, false, errFraming
		}
		if r.nhdr < len(r.hdr) {
			return record{}, b, false, nil
		}
		if n := total - recordHdrSize; n > 0 {
			var rpc wire.RPC
			if rpc.Decode(r.hdr[4:]) == nil && wire.IsRequest(rpc.MsgType) {
				r.slab = r.pool.GetSlab(n)
				r.pay = r.slab.Bytes()
			} else {
				r.pay = make([]byte, n)
			}
		}
	}
	n := copy(r.pay[r.npay:], b)
	r.npay += n
	if r.npay < len(r.pay) {
		return record{}, b[n:], false, nil
	}
	rec.payload, rec.slab = r.pay, r.slab
	rpcErr := rec.rpc.Decode(r.hdr[4:])
	ebsErr := rec.ebs.Decode(r.hdr[4+wire.RPCSize:])
	r.slab = nil
	r.reset()
	if rpcErr != nil || ebsErr != nil {
		rec.slab.Release()
		return record{}, nil, false, errFraming
	}
	return rec, b[n:], true, nil
}

// reset readies the reader for the next record, dropping the slab of one
// it was reading.
func (r *recordReader) reset() {
	r.slab.Release()
	*r = recordReader{pool: r.pool}
}
