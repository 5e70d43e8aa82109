package simnet

// Slab is a reference-counted payload buffer. One slab backs every copy a
// payload would otherwise need: the sender's record, each in-flight frame
// (including retransmits), and each replica of a fan-out. Receive buffers
// are slabs too — an RDMA message, request or response (one packet by
// reference to its frame's slab, more reassembled), a tcpstack request
// record, a chunk server's read buffer — held by the envelope
// (Message.Payload, Response.Payload) until the function it was passed to
// returns (reply; done for an inbound response), and by every stack or
// relay that keeps the bytes after it. The last Release returns pool-owned
// buffers to the pool's size-class free lists, which run from frame-sized
// classes up to one 2 MiB segment.
//
// Ownership rules (see DESIGN.md "Payload ownership"):
//   - GetSlab/WrapSlab hand back one reference; the caller owns it.
//   - Anyone storing the slab beyond the current call must Retain, and the
//     holder of each reference must Release exactly once.
//   - Every reference counts against PacketPool.Outstanding(), so a leaked
//     reference fails the same gate as a leaked packet.
//
// Slabs are engine-owned like everything else in the pool: no atomics, no
// cross-shard sharing, deterministic LIFO reuse.
type Slab struct {
	buf   []byte
	refs  int32
	pool  *PacketPool
	owned bool // buf came from GetBuf and returns to the pool at zero refs
}

// Bytes returns the slab's payload bytes. The slice is valid until the
// caller's reference is released.
func (s *Slab) Bytes() []byte { return s.buf }

// Len returns the payload length.
func (s *Slab) Len() int { return len(s.buf) }

// Retain takes an additional reference and returns s for chaining. Retain
// on nil returns nil so call sites need not branch on optional payloads.
func (s *Slab) Retain() *Slab {
	if s == nil {
		return nil
	}
	if s.refs <= 0 {
		panic("simnet: Retain on a released slab")
	}
	s.refs++
	s.pool.gets++
	return s
}

// Release drops one reference. The last release returns the buffer to the
// pool (when pool-owned) and recycles the Slab header. Release on nil is a
// no-op; releasing more references than were taken panics.
func (s *Slab) Release() {
	if s == nil {
		return
	}
	if s.refs <= 0 {
		panic("simnet: Release on a released slab")
	}
	s.refs--
	s.pool.puts++
	if s.refs == 0 {
		if s.owned {
			s.pool.PutBuf(s.buf)
		}
		pp := s.pool
		s.buf = nil
		s.owned = false
		pp.slabs = append(pp.slabs, s)
	}
}

// GetSlab returns a pool-owned slab of length n holding one reference.
func (pp *PacketPool) GetSlab(n int) *Slab {
	s := pp.getSlabHdr()
	s.buf = pp.GetBuf(n)
	s.owned = true
	return s
}

// WrapSlab adopts a caller-owned buffer (guest memory handed to the SA,
// a chunkserver's device store) into a refcounted slab without copying.
// The buffer is never returned to the pool's free lists — at zero
// references only the Slab header is recycled — so the caller keeps
// ownership of the backing array and must not reuse it while references
// remain.
func (pp *PacketPool) WrapSlab(b []byte) *Slab {
	s := pp.getSlabHdr()
	s.buf = b
	s.owned = false
	return s
}

func (pp *PacketPool) getSlabHdr() *Slab {
	var s *Slab
	if n := len(pp.slabs); n > 0 {
		s = pp.slabs[n-1]
		pp.slabs[n-1] = nil
		pp.slabs = pp.slabs[:n-1]
	} else {
		s = &Slab{pool: pp}
		pp.news++
	}
	s.refs = 1
	pp.gets++
	return s
}

// CountCopy records one payload copy of n bytes on the network data path.
// Stacks call it at every memcpy a payload crosses (record encode, frame
// build, reassembly of a response or a multi-packet request, fan-out
// duplication), so the bench layer can report bytes-copied/op and the
// zero-copy gates can assert the hot paths stopped re-walking bytes. A
// request delivered by reference (Solar's per-block write, a one-packet
// RDMA request) crosses no memcpy and counts nothing. The device-store copy
// in chunkserver.WriteBlock — the one write the data must make — is
// deliberately not counted.
func (pp *PacketPool) CountCopy(n int) {
	pp.copies++
	pp.copiedBytes += uint64(n)
}

// Copies returns how many payload copies the data path has made.
func (pp *PacketPool) Copies() uint64 { return pp.copies }

// CopiedBytes returns the total payload bytes copied on the data path.
func (pp *PacketPool) CopiedBytes() uint64 { return pp.copiedBytes }
