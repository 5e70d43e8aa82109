// Package simnet is the discrete-event datacenter fabric that carries EBS
// frontend-network traffic: hosts with dual-homed NICs, store-and-forward
// switches with shallow per-port output buffers, ECN marking, in-band
// telemetry (INT) stamping, a four-tier Clos/region topology (ToR pair →
// pod spine → DC core → region DC-router), consistent-hash ECMP, and the
// failure modes the paper evaluates (fail-stop, reboot, random drop, and
// silent blackholes).
//
// Packet payloads from the RPC header onward are real bytes produced by the
// wire package; the IP/UDP envelope is carried as struct fields (plus a
// byte-count overhead) so switches do not reparse headers at every hop.
package simnet

import (
	"lunasolar/internal/sim"
	"lunasolar/internal/wire"
)

// EthOverhead is the per-frame link-layer cost counted against link
// bandwidth: Ethernet header+FCS (18) plus preamble and inter-frame gap
// (20).
const EthOverhead = 38

// Packet is one frame in flight. The 5-tuple lives in struct fields (the
// envelope); Payload holds the real bytes from the RPC header onward.
type Packet struct {
	Src, Dst uint32 // host addresses (see Addr)
	Proto    uint8  // wire.ProtoTCP or wire.ProtoUDP
	SrcPort  uint16 // Solar's path ID rides here
	DstPort  uint16
	ECN      uint8 // wire ECN codepoint; switches may set ECNCE
	TTL      uint8

	Payload  []byte // RPC header onward
	Frag     []byte // zero-copy payload fragment carried after Payload
	Overhead int    // envelope bytes: Eth + IP + transport header

	INT *wire.INTStack // non-nil when the sender requested telemetry

	SentAt sim.Time // stamped by the sender for RTT accounting

	// flow is the FNV-1a state of the 5-tuple, stored by Host.Send once it
	// has stamped Src (hasFlow); see flowHash.
	flow    uint32
	hasFlow bool

	// Pool bookkeeping; zero for packets built with struct literals.
	ownsPayload bool // Payload came from the pool and returns with the packet
	free        bool
	pool        *PacketPool
	frag        *Slab         // reference held for Frag's lifetime
	intStore    wire.INTStack // backing storage for INT when pooled
}

// WireSize returns the frame's size on the wire in bytes. A zero-copy
// fragment counts exactly like inlined payload bytes, so frame sizes (and
// therefore serialization times, buffer occupancy and ECN marks) do not
// depend on where the bytes live.
func (p *Packet) WireSize() int { return p.Overhead + len(p.Payload) + len(p.Frag) }

// AttachFrag attaches a zero-copy payload fragment — a subrange of slab s —
// to the frame, taking a slab reference for the packet's lifetime
// (released by Packet.Release). Only pooled packets may carry fragments.
func (p *Packet) AttachFrag(s *Slab, b []byte) {
	if p.pool == nil {
		panic("simnet: AttachFrag on a non-pooled packet")
	}
	p.Frag = b
	p.frag = s.Retain()
}

// FragSlab returns the slab backing the packet's fragment (nil when the
// frame carries no fragment). Receivers that keep the payload beyond the
// packet's life Retain it.
func (p *Packet) FragSlab() *Slab { return p.frag }

// ResetINT attaches the packet's embedded telemetry stack (emptied), so
// senders that request INT do not allocate a stack per packet.
func (p *Packet) ResetINT() {
	p.intStore.Hops = p.intStore.Hops[:0]
	p.INT = &p.intStore
}

// Release returns the packet — and its payload buffer, when pool-owned —
// to the packet pool. It is a no-op for packets not built from a pool, so
// every consumer can release unconditionally. Double release of a pooled
// packet is a bug and panics.
func (p *Packet) Release() {
	pp := p.pool
	if pp == nil {
		return
	}
	if p.free {
		panic("simnet: packet double-released")
	}
	if p.ownsPayload && p.Payload != nil {
		pp.PutBuf(p.Payload)
	}
	p.frag.Release()
	hops := p.intStore.Hops
	*p = Packet{pool: pp, free: true}
	p.intStore.Hops = hops[:0]
	pp.put(p)
}

// DefaultOverheadUDP is the envelope size for UDP-borne packets.
const DefaultOverheadUDP = EthOverhead + wire.IPv4Size + wire.UDPSize

// DefaultOverheadTCP is the envelope size for TCP-borne packets.
const DefaultOverheadTCP = EthOverhead + wire.IPv4Size + wire.TCPSegSize

// FNV-1a, 32 bits.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnvMix folds v's four bytes, low first, into the FNV-1a state h.
func fnvMix(h, v uint32) uint32 {
	for i := 0; i < 4; i++ {
		h ^= v & 0xff
		h *= fnvPrime32
		v >>= 8
	}
	return h
}

// flowState is the FNV-1a state after the packet's 5-tuple: the flow hash
// before its salt.
func flowState(p *Packet) uint32 {
	h := fnvMix(fnvOffset32, p.Src)
	h = fnvMix(h, p.Dst)
	h = fnvMix(h, uint32(p.SrcPort)<<16|uint32(p.DstPort))
	return fnvMix(h, uint32(p.Proto))
}

// flowHash is the consistent ECMP hash of the packet's 5-tuple mixed with
// a per-switch salt (FNV-1a). The same flow always hashes identically at a
// given switch, so a flow's path is stable until its source port — the
// path ID — changes. The salt is mixed last, so the hash starts from the
// state Host.Send stored and mixes only the salt; a packet that never
// passed through Host.Send hashes in full.
func (p *Packet) flowHash(salt uint32) uint32 {
	h := p.flow
	if !p.hasFlow {
		h = flowState(p)
	}
	return fnvMix(h, salt)
}

// Addr packs (dc, pod, rack, host) into a 32-bit host address. Components
// are 1-based so no valid address is zero.
func Addr(dc, pod, rack, host int) uint32 {
	return uint32(dc+1)<<24 | uint32(pod+1)<<16 | uint32(rack+1)<<8 | uint32(host+1)
}

// AddrRack extracts the rack component of an address.
func AddrRack(a uint32) int { return int(a>>8&0xff) - 1 }
