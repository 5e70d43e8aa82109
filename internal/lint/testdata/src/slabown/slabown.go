// Package slabown exercises the ownership-pairing analyzer, including the
// two regression shapes from the zero-copy PR: a retransmit touching a
// released frag, and one Release too many after a replica fan-out.
package slabown

import "lintdata/simnet"

// --- allowed patterns -------------------------------------------------

func okGetRelease(pp *simnet.PacketPool) {
	p := pp.Get(64)
	p.Payload[0] = 1
	p.Release()
}

func okDeferRelease(pp *simnet.PacketPool) byte {
	s := pp.GetSlab(64)
	defer s.Release()
	return s.Bytes()[0]
}

func okHandoff(pp *simnet.PacketPool, send func(*simnet.Packet)) {
	p := pp.Get(64)
	send(p) // ownership transferred to the fabric
}

func okReturned(pp *simnet.PacketPool) *simnet.Slab {
	s := pp.GetSlab(64)
	return s // caller owns the reference now
}

func okBranchBothRelease(pp *simnet.PacketPool, cond bool) {
	p := pp.Get(64)
	if cond {
		p.Release()
		return
	}
	p.Release()
}

func okBufPair(pp *simnet.PacketPool) {
	b := pp.GetBuf(128)
	b[0] = 1
	pp.PutBuf(b)
}

func okStored(pp *simnet.PacketPool, frames *[]*simnet.Slab) {
	s := pp.GetSlab(64)
	*frames = append(*frames, s) // stored: holder releases later
}

// --- violations -------------------------------------------------------

func leakEarlyReturn(pp *simnet.PacketPool, cond bool) {
	p := pp.Get(64)
	if cond {
		return // want `return with p still held \(packet acquired on line \d+\): missing Release on this path`
	}
	p.Release()
}

func useAfterRelease(pp *simnet.PacketPool) byte {
	s := pp.GetSlab(64)
	s.Release()
	return s.Bytes()[0] // want `use of s after its Release on line \d+`
}

// PR 3 regression shape: the retransmit path re-arming a frame whose frag
// was already given back to the pool.
func retransmitReleasedFrag(pp *simnet.PacketPool, resend func(*simnet.Slab)) {
	frag := pp.GetSlab(4096)
	frag.Release()
	resend(frag.Retain()) // want `use of frag after its Release on line \d+`
}

// PR 3 regression shape: the 3-replica fan-out shares one slab; the owner
// releases its own reference once, not twice.
func doubleReleaseFanout(pp *simnet.PacketPool, send func(*simnet.Slab)) {
	s := pp.GetSlab(4096)
	for i := 0; i < 3; i++ {
		send(s.Retain())
	}
	s.Release()
	s.Release() // want `s released twice \(first Release on line \d+\)`
}

func leakPerIteration(pp *simnet.PacketPool, use func(byte)) {
	for i := 0; i < 3; i++ {
		s := pp.GetSlab(64) // want `s acquired here \(slab\) goes out of scope without Release`
		use(s.Bytes()[0])
	}
}

func bufUseAfterPut(pp *simnet.PacketPool) byte {
	b := pp.GetBuf(128)
	pp.PutBuf(b)
	return b[0] // want `use of b after its Release on line \d+`
}

func retainLeak(pp *simnet.PacketPool, cond bool) {
	s := pp.GetSlab(64)
	defer s.Release()
	if cond {
		extra := s.Retain() // want `extra acquired here \(slab reference\) goes out of scope without Release`
		_ = extra.Bytes()
	}
}

// --- suppression ------------------------------------------------------

func suppressedLeak(pp *simnet.PacketPool, cond bool) {
	p := pp.Get(64)
	if cond {
		//lint:allow slabown — fixture: models a path where the fabric already owns the packet
		return
	}
	p.Release()
}
