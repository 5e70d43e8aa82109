package simnet

import (
	"encoding/binary"
	"time"

	"lunasolar/internal/sim"
)

// BulkService models open-loop paced host-to-host bulk transfers, such as
// steady-state background traffic between pods. A transfer of B
// bytes is n = ceil(B/chunk) packets sent on the exact grid t0 + k·iv,
// where iv is the wire size serialized at the pace rate; there is no
// acking or retransmission, and the receiver records a completion when
// the final packet (the fin) arrives.
//
// The service claims every host's Handler, so it is for raw-fabric
// scenarios (no protocol stacks attached).
type BulkService struct {
	nextID uint64
	// flows recycles the sender records: a transfer takes one and its last
	// packet's send returns it.
	flows *sim.Pool[bulkFlow]
	// compl holds the completions in arrival order, in blocks of
	// complBlock records. A full block is never grown: a record, once
	// written, does not move, so a long run frees no large arrays behind
	// it and its resident memory does not depend on when the Go runtime
	// returns freed pages to the OS.
	compl [][]BulkCompletion
}

// complBlock is the number of records in one block of BulkService.compl
// (96 KiB).
const complBlock = 4096

// BulkProto is the IP protocol number bulk frames carry (distinct from
// TCP, UDP and the RDMA BTH proto so ECMP hashes them as their own
// flows).
const BulkProto = 251

// bulkDstPort is the well-known receiver port of every bulk transfer.
const bulkDstPort = 7

// bulkHdrSize is the bulk header carried as the packet payload: flow ID
// (u64), packet index (u32), packet count (u32), t0 (i64), chunk bytes
// (u32). The modeled chunk payload itself is never materialized; it rides
// in Packet.Overhead so wire sizes (and serialization, buffering, ECN)
// are exact without touching bytes.
const bulkHdrSize = 8 + 4 + 4 + 8 + 4

func bulkSrcPort(id uint64) uint16 { return uint16(1024 + id%60000) }

// BulkCompletion is one finished transfer as seen by its receiver.
type BulkCompletion struct {
	ID    uint64
	Lat   time.Duration // fin arrival minus t0
	Bytes int64         // modeled payload bytes
}

// bulkFlow is one transfer's sender state: packet next of n goes out at
// t0 + next·iv.
type bulkFlow struct {
	svc      *BulkService
	id       uint64
	src, dst *Host
	chunk    int // modeled payload bytes per packet
	n        int // packets in the transfer

	t0 sim.Time      // first packet's send time
	iv time.Duration // pacing grid interval at the pace rate

	next int // next packet index to send
}

// NewBulkService attaches a bulk sender/receiver to every host of fab.
func NewBulkService(fab *Fabric) *BulkService {
	b := &BulkService{flows: sim.NewPool[bulkFlow](fab.Eng)}
	for _, h := range fab.hostList {
		h := h
		h.Handler = func(pkt *Packet) { b.recv(h, pkt) }
	}
	return b
}

// Transfer schedules a bulk transfer of the given size from src to dst,
// paced at paceBps on the wire, starting at absolute virtual time at. The
// byte count is modeled in whole chunks (the last packet is padded), each
// carried as one packet of chunk payload bytes plus headers. Returns the
// transfer's flow ID; its completion appears in Completions.
func (b *BulkService) Transfer(src, dst *Host, bytes int64, chunk int, paceBps float64, at sim.Time) uint64 {
	if chunk <= 0 || bytes <= 0 || paceBps <= 0 {
		panic("simnet: bulk transfer needs positive bytes, chunk and pace")
	}
	id := b.nextID
	b.nextID++
	n := int((bytes + int64(chunk) - 1) / int64(chunk))
	wire := DefaultOverheadUDP + chunk + bulkHdrSize
	f := b.flows.Get()
	if f == nil {
		f = &bulkFlow{}
	}
	*f = bulkFlow{
		svc:   b,
		id:    id,
		src:   src,
		dst:   dst,
		chunk: chunk,
		n:     n,
		iv:    time.Duration(float64(wire*8) / paceBps * float64(time.Second)),
	}
	src.fab.Eng.AtArg(at, bulkStart, f)
	return id
}

// bulkStart fires at the transfer's t0 and sends its first packet.
//
//lint:hotpath
func bulkStart(a any) {
	f := a.(*bulkFlow)
	f.t0 = f.src.fab.Eng.Now()
	bulkSend(f)
}

// bulkSend transmits the flow's next packet and chains the following one
// on the pacing grid. Every packet is sent, reachable or not, so the last
// send always comes and returns the record to the pool, wiped.
//
//lint:hotpath
func bulkSend(a any) {
	f := a.(*bulkFlow)
	eng := f.src.fab.Eng
	pool := &f.src.fab.pool
	pkt := pool.Get(bulkHdrSize)
	p := pkt.Payload
	binary.BigEndian.PutUint64(p[0:], f.id)
	binary.BigEndian.PutUint32(p[8:], uint32(f.next))
	binary.BigEndian.PutUint32(p[12:], uint32(f.n))
	binary.BigEndian.PutUint64(p[16:], uint64(f.t0))
	binary.BigEndian.PutUint32(p[24:], uint32(f.chunk))
	pkt.Dst = f.dst.addr
	pkt.Proto = BulkProto
	pkt.SrcPort = bulkSrcPort(f.id)
	pkt.DstPort = bulkDstPort
	pkt.Overhead = DefaultOverheadUDP + f.chunk
	pkt.SentAt = eng.Now()
	if !f.src.Send(pkt) {
		pkt.Release()
	}
	f.next++
	if f.next < f.n {
		at := f.t0 + sim.Time(time.Duration(f.next)*f.iv)
		if now := eng.Now(); at < now {
			at = now
		}
		eng.AtArg(at, bulkSend, f)
		return
	}
	b := f.svc
	*f = bulkFlow{}
	b.flows.Put(f)
}

// recv terminates bulk frames at the receiving host, recording a
// completion when the fin (last index) arrives. A lost fin means the
// transfer never completes.
func (b *BulkService) recv(h *Host, pkt *Packet) {
	defer pkt.Release()
	p := pkt.Payload
	if pkt.Proto != BulkProto || len(p) < bulkHdrSize {
		return
	}
	idx := binary.BigEndian.Uint32(p[8:])
	n := binary.BigEndian.Uint32(p[12:])
	if idx != n-1 {
		return
	}
	id := binary.BigEndian.Uint64(p[0:])
	t0 := sim.Time(binary.BigEndian.Uint64(p[16:]))
	chunk := binary.BigEndian.Uint32(p[24:])
	if k := len(b.compl); k == 0 || len(b.compl[k-1]) == complBlock {
		b.compl = append(b.compl, make([]BulkCompletion, 0, complBlock))
	}
	last := &b.compl[len(b.compl)-1]
	*last = append(*last, BulkCompletion{
		ID:    id,
		Lat:   h.fab.Eng.Now().Sub(t0),
		Bytes: int64(n) * int64(chunk),
	})
}

// Completions returns a copy of every recorded completion in arrival
// order — deterministic for a fixed seed.
func (b *BulkService) Completions() []BulkCompletion {
	n := 0
	for _, c := range b.compl {
		n += len(c)
	}
	out := make([]BulkCompletion, 0, n)
	for _, c := range b.compl {
		out = append(out, c...)
	}
	return out
}
