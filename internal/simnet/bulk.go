package simnet

import (
	"encoding/binary"
	"time"

	"lunasolar/internal/sim"
)

// BulkService models open-loop paced host-to-host bulk transfers — the
// steady-state background traffic of a diurnal campaign — and is the
// customer of the fluid fast-forward mode (flow.go). A transfer of B
// bytes is n = ceil(B/chunk) packets sent on the exact grid t0 + k·iv,
// where iv is the wire size serialized at the pace rate; there is no
// acking or retransmission, and the receiver records a completion when
// the final packet (the fin) arrives. With the fabric in hybrid fidelity
// an eligible transfer never materializes packets at all: the flow table
// fast-forwards it on the same grid and delivers the completion
// analytically, bit-equal to packet mode on an uncongested path.
//
// The service claims every host's Handler, so it is for raw-fabric
// scenarios (no protocol stacks attached), like the diurnal campaign.
// Hybrid fidelity additionally needs a serial fabric (EnableFluid).
type BulkService struct {
	fab    *Fabric
	nextID uint64
	compl  [][]BulkCompletion // per destination partition, arrival order
}

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
	Fluid bool          // completed analytically (no packets materialized)
}

// NewBulkService attaches a bulk sender/receiver to every host of fab.
func NewBulkService(fab *Fabric) *BulkService {
	b := &BulkService{fab: fab, compl: make([][]BulkCompletion, fab.Parts())}
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
	f := &fluidFlow{
		id:    id,
		src:   src,
		dst:   dst,
		svc:   b,
		chunk: chunk,
		n:     n,
		wire:  wire,
		pace:  paceBps,
		iv:    time.Duration(float64(wire*8) / paceBps * float64(time.Second)),
	}
	src.part.eng.AtArg(at, bulkStart, f)
	return id
}

// bulkStart fires at the transfer's t0 on the source partition's engine:
// promote to a fluid flow when possible, otherwise pace packets for real.
func bulkStart(a any) {
	f := a.(*fluidFlow)
	f.t0 = f.src.part.eng.Now()
	if tab := f.svc.fab.fluid; tab == nil || !tab.admit(f) {
		bulkSend(f)
	}
}

// resume restarts packet pacing at grid index k — the demotion path's
// byte-conservation point: packets [0, k) stay analytically delivered,
// packet k is sent at its original grid time (immediately, when the grid
// time already passed).
func (b *BulkService) resume(f *fluidFlow, k int, now sim.Time) {
	f.next = k
	at := f.t0 + sim.Time(time.Duration(k)*f.iv)
	if at < now {
		at = now
	}
	f.src.part.eng.AtArg(at, bulkSend, f)
}

// bulkSend transmits the flow's next packet and chains the following one
// on the pacing grid.
func bulkSend(a any) {
	f := a.(*fluidFlow)
	eng := f.src.part.eng
	pool := &f.src.part.pool
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
	}
}

// recv terminates bulk frames at the receiving host, recording a
// completion when the fin (last index) arrives. Lost fins mean the
// transfer never completes — deterministic, and identical in both
// fidelity modes since fluid flows only run while nothing can drop.
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
	b.compl[h.part.idx] = append(b.compl[h.part.idx], BulkCompletion{
		ID:    id,
		Lat:   h.part.eng.Now().Sub(t0),
		Bytes: int64(n) * int64(chunk),
	})
}

// fluidDone is a fluid flow's analytic completion event, running on the
// destination partition's engine. The recorded latency is the analytic
// fin arrival (exact even when the event itself was clamped forward).
func fluidDone(a any) {
	f := a.(*fluidFlow)
	b := f.svc
	b.compl[f.dst.part.idx] = append(b.compl[f.dst.part.idx], BulkCompletion{
		ID:    f.id,
		Lat:   f.finArrival().Sub(f.t0),
		Bytes: int64(f.n) * int64(f.chunk),
		Fluid: true,
	})
	if f.tracked {
		b.fab.fluid.remove(f)
	}
}

// Completions returns every recorded completion, walking destination
// partitions in index order and each partition's records in arrival
// order — deterministic for a fixed seed and any worker count.
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
