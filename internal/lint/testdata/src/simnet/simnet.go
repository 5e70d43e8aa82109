// Package simnet is a fixture stand-in for the real packet pool: the
// slabown analyzer matches the ownership protocol by receiver type name
// (PacketPool, Slab), and the partown analyzer keys ownership on
// package-qualified type names, so these shapes drive both exactly like
// the real package.
package simnet

// PacketPool is one partition's packet allocator.
//
//lint:partowned
type PacketPool struct{ outstanding int }

type Packet struct{ Payload []byte }

type Slab struct{ buf []byte }

// Port is one partition's link endpoint state.
//
//lint:partowned
type Port struct {
	Up    bool
	Depth int
}

func (pt *Port) Enqueue(p *Packet) { pt.Depth++ }

func (pp *PacketPool) Get(n int) *Packet { pp.outstanding++; return &Packet{Payload: make([]byte, n)} }

func (pp *PacketPool) GetBuf(n int) []byte { pp.outstanding++; return make([]byte, n) }

func (pp *PacketPool) PutBuf(b []byte) { pp.outstanding-- }

func (pp *PacketPool) GetSlab(n int) *Slab { pp.outstanding++; return &Slab{buf: make([]byte, n)} }

func (pp *PacketPool) WrapSlab(b []byte) *Slab { pp.outstanding++; return &Slab{buf: b} }

func (s *Slab) Retain() *Slab { return s }

func (s *Slab) Release() {}

func (s *Slab) Bytes() []byte { return s.buf }

func (p *Packet) Release() {}

// Inbox models the cross-partition mailbox: Handoff transfers ownership
// of its first argument to the receiving partition. The analyzer matches
// the method by name, as it does the pool protocol by receiver type.
type Inbox struct{ pending int }

func (ib *Inbox) Handoff(p *Packet, at int64) { ib.pending++ }
