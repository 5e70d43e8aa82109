package chunkserver

import (
	"bytes"
	"strings"
	"testing"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/wire"
)

// TestDropSegmentRecyclesPages: a drain's last step hands the dropped
// segment's pages back to the arena, so writing the segment again carves
// nothing new. Without it every drained replica would pin its pages for the
// life of the server.
func TestDropSegmentRecyclesPages(t *testing.T) {
	const blocks = 3*pagesPerChunk + 5
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	data := bytes.Repeat([]byte{0x3c}, wire.BlockSize)
	sum := crc.Raw(data)
	write := func(gen uint32) {
		for i := 0; i < blocks; i++ {
			s.WriteBlock(4, uint64(i)*wire.BlockSize, gen, data, sum, func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		eng.Run()
	}
	write(1)
	chunks, carved := len(s.chunks), s.carved
	if n := s.DropSegment(4); n != blocks {
		t.Fatalf("DropSegment freed %d blocks, want %d", n, blocks)
	}
	if lbas := s.SegmentLBAs(4); len(lbas) != 0 {
		t.Fatalf("%d blocks still listed after the drop", len(lbas))
	}
	checkArena(t, s, "after the drop", blocks)
	write(2)
	if len(s.chunks) != chunks || s.carved != carved {
		t.Fatalf("rewriting a dropped segment carved %d chunks (%d pages), want %d (%d)",
			len(s.chunks), s.carved, chunks, carved)
	}
	checkArena(t, s, "after the rewrite", blocks)
}

// TestStoreErrorsNameTheBlock: every operation the store refuses completes
// once with an error that names the segment and LBA, stores nothing and
// leaves no page in flight.
func TestStoreErrorsNameTheBlock(t *testing.T) {
	const seg, lba = 5, 0x3000
	block := bytes.Repeat([]byte{9}, wire.BlockSize)
	for _, tc := range []struct {
		name string
		run  func(s *Server, done func(error))
	}{
		{"CRC-rejected write", func(s *Server, done func(error)) {
			s.WriteBlock(seg, lba, 1, block, crc.Raw(block)^1, done)
		}},
		{"oversize write", func(s *Server, done func(error)) {
			big := make([]byte, wire.BlockSize+1)
			s.WriteBlock(seg, lba, 1, big, crc.Raw(big), done)
		}},
		{"migrate read of an unwritten block", func(s *Server, done func(error)) {
			s.MigrateRead(seg, lba, func(_ []byte, _, _ uint32, err error) { done(err) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			s := New(eng, "cs0", DefaultSSD())
			var errs []error
			tc.run(s, func(err error) { errs = append(errs, err) })
			eng.Run()
			if len(errs) != 1 || errs[0] == nil {
				t.Fatalf("completions %v, want one error", errs)
			}
			if msg := errs[0].Error(); !strings.Contains(msg, "seg=5 lba=0x3000") {
				t.Fatalf("error %q does not name seg=5 lba=0x3000", msg)
			}
			if lbas := s.SegmentLBAs(seg); len(lbas) != 0 {
				t.Fatalf("the store holds %d blocks of the segment, want none", len(lbas))
			}
			checkArena(t, s, tc.name, 1)
		})
	}
}

// TestReadSliceValidUntilDoneReturns pins the store's contract: the slice
// ReadBlock or MigrateRead hands its callback is the store's own page, and
// it stays put until the callback returns — even when the callback itself
// overwrites the block, since WriteBlock copies into a page of its own.
func TestReadSliceValidUntilDoneReturns(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	first := bytes.Repeat([]byte{0xA5}, wire.BlockSize)
	s.WriteBlock(1, 0x2000, 1, first, crc.Raw(first), func(error) {})
	eng.Run()
	gen := uint32(1)
	check := func(what string, d []byte) {
		was := append([]byte(nil), d...)
		gen++
		next := bytes.Repeat([]byte{byte(gen)}, wire.BlockSize)
		s.WriteBlock(1, 0x2000, gen, next, crc.Raw(next), func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
		if !bytes.Equal(d, was) {
			t.Errorf("%s: the slice changed before its callback returned", what)
		}
	}
	s.ReadBlock(1, 0x2000, func(d []byte, _ uint32, _ error) { check("ReadBlock", d) })
	s.MigrateRead(1, 0x2000, func(d []byte, _, _ uint32, _ error) { check("MigrateRead", d) })
	eng.Run()
	s.ReadBlock(1, 0x2000, func(d []byte, _ uint32, _ error) {
		if d[0] != byte(gen) {
			t.Errorf("read %#x after the overwrites, want the last one (%#x)", d[0], byte(gen))
		}
	})
	eng.Run()
}

// TestStoredBlocksCostNoAllocation: a write to a fresh LBA takes a page
// from the arena and an entry in the pointer-free index, so the store
// allocates only when a chunk or the index grows — not once per block.
func TestStoredBlocksCostNoAllocation(t *testing.T) {
	const writes = 4096
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	data := bytes.Repeat([]byte{0x77}, wire.BlockSize)
	sum := crc.Raw(data)
	done := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	lba := uint64(0)
	avg := testing.AllocsPerRun(3, func() {
		for i := 0; i < writes; i++ {
			s.WriteBlock(1, lba, 1, data, sum, done)
			lba += wire.BlockSize
			if i%64 == 63 {
				eng.Run()
			}
		}
		eng.Run()
	})
	per := avg / writes
	t.Logf("%.4f allocations per write", per)
	if per > 0.05 {
		t.Fatalf("%.3f allocations per 4 KiB write to a fresh LBA, want <= 0.05", per)
	}
}
