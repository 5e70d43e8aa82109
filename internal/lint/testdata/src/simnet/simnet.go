// Package simnet is a fixture stand-in for the real packet pool: the
// slabown analyzer matches the ownership protocol by receiver type name
// (PacketPool, Slab), so these shapes drive it exactly like the real
// package.
package simnet

// PacketPool is the fabric's packet allocator.
type PacketPool struct{ outstanding int }

type Packet struct{ Payload []byte }

type Slab struct{ buf []byte }

func (pp *PacketPool) Get(n int) *Packet { pp.outstanding++; return &Packet{Payload: make([]byte, n)} }

func (pp *PacketPool) GetBuf(n int) []byte { pp.outstanding++; return make([]byte, n) }

func (pp *PacketPool) PutBuf(b []byte) { pp.outstanding-- }

func (pp *PacketPool) GetSlab(n int) *Slab { pp.outstanding++; return &Slab{buf: make([]byte, n)} }

func (pp *PacketPool) WrapSlab(b []byte) *Slab { pp.outstanding++; return &Slab{buf: b} }

func (s *Slab) Retain() *Slab { return s }

func (s *Slab) Release() {}

func (s *Slab) Bytes() []byte { return s.buf }

func (p *Packet) Release() {}
