package simnet

import (
	"math/bits"

	"lunasolar/internal/wire"
)

// Payload buffer size classes. Small covers ACKs and control
// frames; mid covers RDMA/TCP control and partial blocks; data covers a
// full 4 KiB block plus every header the stacks prepend. Above data, the
// large classes are powers of two from bufLargeMin to bufLargeMax, for
// multi-block payloads: a request reassembled at its server, a chunk
// server's read buffer. bufLargeMax is the largest piece a guest I/O is cut
// into, one 2 MiB segment (sa.SegmentBytes).
const (
	bufClassSmall = 256
	bufClassMid   = 1152
	bufClassData  = wire.RPCSize + wire.EBSSize + wire.BlockSize + 128

	bufLargeShift = 13 // bufLargeMin is 1 << bufLargeShift
	bufLargeMin   = 1 << bufLargeShift
	bufLargeMax   = 2 << 20
	bufLarge      = 9 // classes bufLargeMin << 0 .. bufLargeMin << 8 == bufLargeMax
)

// PacketPool is an engine-owned free list of packets and payload buffers.
// It deliberately avoids sync.Pool: free lists are plain LIFO slices owned
// by the fabric's engine, so reuse order is deterministic for a fixed seed
// and nothing is shared between engines. Share-nothing shards each own
// their fabric and therefore their pool.
//
// Ownership discipline: the sender obtains a packet from the pool, the
// fabric carries it, and whoever terminates the packet's life releases it —
// the receiving stack after processing, the fabric on in-flight drops, or
// the sender when Send reports a local drop. Release on a packet that did
// not come from a pool is a no-op, so tests and cold paths can keep
// building packets with struct literals.
type PacketPool struct {
	pkts  []*Packet
	small [][]byte
	mid   [][]byte
	data  [][]byte
	large [bufLarge][][]byte
	slabs []*Slab

	gets, puts, news uint64

	copies      uint64
	copiedBytes uint64

	// Poison is a check mode for tests: PutBuf — and with it the last
	// Release of a pool-owned slab and of a packet's payload — fills the
	// buffer with 0xDB and drops it instead of reusing it, so a holder
	// that reads after release sees garbage. The counters move as usual.
	Poison bool
}

// Get returns a packet with a zeroed envelope and a pool-owned payload
// buffer of length n (no payload when n == 0). The packet's INT pointer is
// nil; senders that want telemetry call ResetINT.
func (pp *PacketPool) Get(n int) *Packet {
	var p *Packet
	if ln := len(pp.pkts); ln > 0 {
		p = pp.pkts[ln-1]
		pp.pkts[ln-1] = nil
		pp.pkts = pp.pkts[:ln-1]
		p.free = false
	} else {
		p = &Packet{pool: pp}
		pp.news++
	}
	pp.gets++
	if n > 0 {
		p.Payload = pp.GetBuf(n)
		p.ownsPayload = true
	}
	return p
}

// GetBuf returns a pooled byte slice of length n, drawn from the smallest
// size class that holds it. A recycled buffer is not cleared: the caller
// overwrites all n bytes. Sizes above the largest class fall back to a plain
// allocation (and PutBuf will drop them).
func (pp *PacketPool) GetBuf(n int) []byte {
	list, size := pp.class(n)
	if list == nil {
		return make([]byte, n)
	}
	if ln := len(*list); ln > 0 {
		b := (*list)[ln-1]
		(*list)[ln-1] = nil
		*list = (*list)[:ln-1]
		return b[:n]
	}
	return make([]byte, n, size)
}

// PutBuf returns a buffer obtained from GetBuf to the free list of its
// capacity's class. Buffers whose capacity is not a class size are dropped
// for the garbage collector.
func (pp *PacketPool) PutBuf(b []byte) {
	if pp.Poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
		return
	}
	if list, size := pp.class(cap(b)); list != nil && size == cap(b) {
		*list = append(*list, b)
	}
}

// class returns the free list and buffer capacity of the smallest size
// class holding n bytes, or nil above the largest class.
func (pp *PacketPool) class(n int) (*[][]byte, int) {
	switch {
	case n <= bufClassSmall:
		return &pp.small, bufClassSmall
	case n <= bufClassMid:
		return &pp.mid, bufClassMid
	case n <= bufClassData:
		return &pp.data, bufClassData
	case n <= bufLargeMax:
		i := max(0, bits.Len(uint(n-1))-bufLargeShift)
		return &pp.large[i], bufLargeMin << i
	}
	return nil, 0
}

// put returns a released packet to the free list (called via
// Packet.Release, which resets the struct first).
func (pp *PacketPool) put(p *Packet) {
	pp.puts++
	pp.pkts = append(pp.pkts, p)
}

// News returns the number of pool misses (fresh packet allocations).
func (pp *PacketPool) News() uint64 { return pp.news }

// Outstanding returns packets and slab references handed out but not yet
// released. With the fabric idle this should be zero; anything else is a
// leaked packet (a receive path that forgot to Release) or a leaked slab
// reference (a Retain without its Release).
func (pp *PacketPool) Outstanding() uint64 { return pp.gets - pp.puts }

// linkXfer carries one in-flight frame to its delivery event; nodes are
// pooled on the fabric so link transit does not allocate.
type linkXfer struct {
	port *Port
	pkt  *Packet
}

// swFwd carries one frame through a switch's pipeline-latency event.
type swFwd struct {
	sw     *Switch
	egress *Port
	pkt    *Packet
}

func (f *Fabric) getXfer() *linkXfer {
	if x := f.freeXfer.Get(); x != nil {
		return x
	}
	return &linkXfer{}
}

func (f *Fabric) putXfer(x *linkXfer) {
	x.port, x.pkt = nil, nil
	f.freeXfer.Put(x)
}

func (f *Fabric) getFwd() *swFwd {
	if x := f.freeFwd.Get(); x != nil {
		return x
	}
	return &swFwd{}
}

func (f *Fabric) putFwd(x *swFwd) {
	x.sw, x.egress, x.pkt = nil, nil, nil
	f.freeFwd.Put(x)
}
