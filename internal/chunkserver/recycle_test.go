package chunkserver

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

func loopbackService(t *testing.T) (*sim.Engine, *Server, *transport.Loopback) {
	t.Helper()
	eng := sim.NewEngine(1)
	bn := transport.NewLoopback(func(d time.Duration, fn func()) { eng.Schedule(d, fn) }, time.Microsecond, 7)
	cs := New(eng, "cs0", DefaultSSD())
	NewService(eng, cs, bn)
	return eng, cs, bn
}

// TestRequestsWithNothingToDoAreAnswered covers the four requests Handle
// used to drop on the floor (or panic on): with a real transport underneath
// the caller's pending entry then waited forever.
func TestRequestsWithNothingToDoAreAnswered(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  transport.Message
	}{
		{"write with no data", transport.Message{Op: wire.RPCWriteReq, SegmentID: 1}},
		{"read of zero bytes", transport.Message{Op: wire.RPCReadReq, SegmentID: 1}},
		{"read of negative length", transport.Message{Op: wire.RPCReadReq, SegmentID: 1, ReadLen: -4096}},
		{"unknown op", transport.Message{Op: 0x7f, SegmentID: 1, Data: make([]byte, 4096), ReadLen: 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, cs, bn := loopbackService(t)
			fired := 0
			var got error
			bn.Call(7, &tc.req, func(r *transport.Response) { fired++; got = r.Err })
			eng.Run()
			if fired != 1 {
				t.Fatalf("done fired %d times, want 1", fired)
			}
			if got == nil {
				t.Fatal("request answered without an error")
			}
			if w, r, _, _ := cs.Stats(); w+r != 0 {
				t.Fatalf("store saw %d writes and %d reads, want none", w, r)
			}
		})
	}
}

// TestWriteCopiesAtTheCall pins the device-store rule: the block is copied
// before WriteBlock returns, so the caller may scribble over its buffer at
// once — as a drain does, handing MigrateRead's stored slice to the
// destination while the source goes on overwriting it. A store that took
// its copy at commit time would persist the scribble and reject its CRC.
func TestWriteCopiesAtTheCall(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	data := bytes.Repeat([]byte{0xA5}, 4096)
	want := append([]byte(nil), data...)
	sum := crc.Raw(data)
	var werr error
	s.WriteBlock(1, 0, 1, data, sum, func(err error) { werr = err })
	for i := range data {
		data[i] = 0x5A // before the disk has committed anything
	}
	eng.Run()
	if werr != nil {
		t.Fatalf("write rejected: %v", werr)
	}
	for i := range data {
		data[i] = 0x33 // and again once the write has completed
	}
	s.ReadBlock(1, 0, func(d []byte, c uint32, err error) {
		if !bytes.Equal(d, want) || c != sum {
			t.Errorf("stored block or CRC follows the caller's buffer (crc %08x, want %08x)", c, sum)
		}
	})
	eng.Run()
}

// TestOverwritesRecycleBlocks: the store owns one page per stored block
// plus whatever is in flight — 1 000 overwrites of one LBA must not carve
// more pages than that, and the block read back is the last one written.
func TestOverwritesRecycleBlocks(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	buf := make([]byte, 4096)
	for i := 0; i < 1000; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		s.WriteBlock(1, 0x4000, uint32(i), buf, crc.Raw(buf), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
		if i%8 == 7 {
			eng.Run() // up to eight overwrites in flight at once
		}
	}
	eng.Run()
	checkArena(t, s, "after 1000 overwrites of one LBA", 1+8) // one stored, up to eight in flight
	s.ReadBlock(1, 0x4000, func(d []byte, c uint32, err error) {
		if !bytes.Equal(d, buf) || c != crc.Raw(buf) {
			t.Error("read does not return the last block written")
		}
	})
	eng.Run()
}

// TestRejectedAndStaleWritesReturnTheirBuffer: a write the store does not
// keep must give its device copy's page back, or every CRC reject and every
// stale retransmission leaks a page.
func TestRejectedAndStaleWritesReturnTheirBuffer(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	cur := bytes.Repeat([]byte{2}, 4096)
	s.WriteBlock(1, 0, 5, cur, crc.Raw(cur), func(error) {})
	eng.Run()
	checkArena(t, s, "after a first write", 1)

	s.WriteBlock(1, 0, 6, cur, 0xdeadbeef, func(err error) {
		if err == nil {
			t.Error("CRC mismatch accepted")
		}
	})
	eng.Run()
	checkArena(t, s, "after a CRC-rejected write", 1+1)

	old := bytes.Repeat([]byte{1}, 4096)
	s.WriteBlock(1, 0, 3, old, crc.Raw(old), func(err error) {
		if err != nil {
			t.Errorf("stale write should ack idempotently: %v", err)
		}
	})
	eng.Run()
	checkArena(t, s, "after a stale-generation write", 1+1) // reuses the rejected copy's page
	s.ReadBlock(1, 0, func(d []byte, c uint32, err error) {
		if !bytes.Equal(d, cur) {
			t.Error("a rejected or stale write changed the stored block")
		}
	})
	eng.Run()
}

// checkArena fails unless the arena has carved at most maxCarved pages —
// the blocks stored plus the most writes ever in flight at once — and,
// with the engine drained, holds none in flight: every page is stored or
// back on the free list.
func checkArena(t *testing.T, s *Server, what string, maxCarved int) {
	t.Helper()
	if n := int(s.carved); n > maxCarved {
		t.Fatalf("%s: arena carved %d pages, want <= %d (blocks stored + writes in flight)", what, n, maxCarved)
	}
	if n := s.InFlightPages(); n != 0 {
		t.Fatalf("%s: %d pages neither stored nor returned", what, n)
	}
}

// TestReadDataOutlivesTheReply: a response is valid until reply returns,
// and a read's Data is a pooled slab that a stack keeps in flight past it —
// the BN stack holds it until its frames are acknowledged — by retaining the
// response's Payload. So the service must not hand out a buffer its pooled
// records or the store reuse while a reference is held. Each reply's CRCs
// and error are checked inside reply, which retains the slab as a stack
// does; each read's Data is kept until every block has been overwritten and
// more reads have drawn from the pool, then checked and released.
func TestReadDataOutlivesTheReply(t *testing.T) {
	eng := sim.NewEngine(1)
	pool := new(simnet.PacketPool)
	svc := &Service{eng: eng, cs: New(eng, "cs0", DefaultSSD()), pool: pool, free: sim.NewPool[request](eng)}
	check := func(what string, i int, sum uint32) func(*transport.Response) {
		return func(r *transport.Response) {
			if r.Err != nil || len(r.BlockCRCs) != 1 || r.BlockCRCs[0] != sum {
				t.Errorf("%s %d: reply %+v, want CRC %08x", what, i, r, sum)
			}
		}
	}

	const n = 32
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 4096)
		sum := crc.Raw(blocks[i])
		req := &transport.Message{Op: wire.RPCWriteReq, SegmentID: 1, LBA: uint64(i) << 12, Gen: 1,
			Data: blocks[i], BlockCRCs: []uint32{sum}}
		svc.Handle(7, req, check("write", i, sum))
		eng.Run()
	}
	data := make([][]byte, n)
	slabs := make([]*simnet.Slab, n)
	for i := range data {
		req := &transport.Message{Op: wire.RPCReadReq, SegmentID: 1, LBA: uint64(i) << 12, ReadLen: 4096}
		read := check("read", i, crc.Raw(blocks[i]))
		svc.Handle(7, req, func(r *transport.Response) { read(r); data[i], slabs[i] = r.Data, r.Payload.Retain() })
		eng.Run()
	}
	// Overwrite everything once more so recycled buffers change hands, and
	// read it back, drawing every read buffer the pool has free.
	for i := range blocks {
		other := bytes.Repeat([]byte{byte(200 - i)}, 4096)
		req := &transport.Message{Op: wire.RPCWriteReq, SegmentID: 1, LBA: uint64(i) << 12, Gen: 2,
			Data: other, BlockCRCs: []uint32{crc.Raw(other)}}
		svc.Handle(7, req, func(*transport.Response) {})
		eng.Run()
		req = &transport.Message{Op: wire.RPCReadReq, SegmentID: 1, LBA: uint64(i) << 12, ReadLen: 4096}
		svc.Handle(7, req, func(*transport.Response) {})
		eng.Run()
	}
	for i := range blocks {
		if !bytes.Equal(data[i], blocks[i]) {
			t.Fatalf("read %d: Data changed after the block was overwritten", i)
		}
		slabs[i].Release()
	}
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d read buffer references outstanding once every holder released", n)
	}
}
