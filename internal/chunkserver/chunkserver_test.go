package chunkserver

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
)

func TestWriteReadRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	var werr error
	s.WriteBlock(5, 0x1000, 1, data, crc.Raw(data), func(err error) { werr = err })
	eng.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	var got []byte
	var gotCRC uint32
	s.ReadBlock(5, 0x1000, func(d []byte, c uint32, err error) { got, gotCRC = d, c })
	eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different data")
	}
	if gotCRC != crc.Raw(data) {
		t.Fatal("stored CRC wrong")
	}
}

func TestWriteRejectsCorruption(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	data := make([]byte, 4096)
	var werr error
	s.WriteBlock(1, 0, 1, data, 0xdeadbeef, func(err error) { werr = err })
	eng.Run()
	if werr == nil {
		t.Fatal("CRC mismatch accepted")
	}
	_, _, crcErrs, _ := s.Stats()
	if crcErrs != 1 {
		t.Fatalf("crcErrors = %d", crcErrs)
	}
}

func TestReadUnwrittenReturnsZeros(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	var got []byte
	var gotCRC uint32
	s.ReadBlock(9, 0x9000, func(d []byte, c uint32, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got, gotCRC = d, c
	})
	eng.Run()
	if len(got) != 4096 {
		t.Fatalf("len = %d", len(got))
	}
	if want := crc.Raw(got); gotCRC != want {
		t.Fatalf("CRC %08x does not match the returned block (%08x)", gotCRC, want)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestStaleGenerationIdempotent(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, "cs0", DefaultSSD())
	newData := bytes.Repeat([]byte{2}, 4096)
	oldData := bytes.Repeat([]byte{1}, 4096)
	s.WriteBlock(1, 0, 5, newData, crc.Raw(newData), func(err error) {})
	eng.Run()
	var staleErr error
	s.WriteBlock(1, 0, 3, oldData, crc.Raw(oldData), func(err error) { staleErr = err })
	eng.Run()
	if staleErr != nil {
		t.Fatal("stale write should ack idempotently")
	}
	var got []byte
	s.ReadBlock(1, 0, func(d []byte, c uint32, err error) { got = d })
	eng.Run()
	if got[0] != 2 {
		t.Fatal("stale generation overwrote newer data")
	}
}

func TestWriteLatencyDistribution(t *testing.T) {
	eng := sim.NewEngine(2)
	s := New(eng, "cs0", DefaultSSD())
	h := stats.NewHistogram()
	data := make([]byte, 4096)
	sum := crc.Raw(data)
	for i := 0; i < 500; i++ {
		lba := uint64(i) << 12
		eng.Schedule(time.Duration(i)*100*time.Microsecond, func() {
			start := eng.Now()
			s.WriteBlock(1, lba, 1, data, sum, func(err error) {
				h.Record(eng.Now().Sub(start))
			})
		})
	}
	eng.Run()
	// Write-cache commits: median ~12µs, well under NAND read latencies.
	med := h.Median()
	if med < 5*time.Microsecond || med > 30*time.Microsecond {
		t.Fatalf("write median = %v, want ~12µs", med)
	}
	if h.P99() < med {
		t.Fatal("p99 below median")
	}
}

func TestReadSlowerThanWrite(t *testing.T) {
	eng := sim.NewEngine(3)
	s := New(eng, "cs0", DefaultSSD())
	data := make([]byte, 4096)
	sum := crc.Raw(data)
	for i := 0; i < 200; i++ {
		s.WriteBlock(1, uint64(i)<<12, 1, data, sum, func(error) {})
	}
	eng.Run()
	hw, hr := stats.NewHistogram(), stats.NewHistogram()
	for i := 0; i < 200; i++ {
		lba := uint64(i) << 12
		at := time.Duration(i) * 200 * time.Microsecond
		eng.Schedule(at, func() {
			ws := eng.Now()
			s.WriteBlock(1, lba, 2, data, sum, func(error) { hw.Record(eng.Now().Sub(ws)) })
		})
		eng.Schedule(at+100*time.Microsecond, func() {
			rs := eng.Now()
			s.ReadBlock(1, lba, func([]byte, uint32, error) { hr.Record(eng.Now().Sub(rs)) })
		})
	}
	eng.Run()
	if hr.Mean() <= hw.Mean() {
		t.Fatalf("reads (%v) should be slower than cached writes (%v) on average",
			hr.Mean(), hw.Mean())
	}
}

func TestIOPSCapCreatesQueueing(t *testing.T) {
	eng := sim.NewEngine(4)
	s := New(eng, "cs0", DefaultSSD())
	data := make([]byte, 4096)
	sum := crc.Raw(data)
	var last sim.Time
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		s.WriteBlock(1, uint64(i)<<12, 1, data, sum, func(error) {
			done++
			last = eng.Now()
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("done %d/%d", done, n)
	}
	// 2000 ops at the 800K IOPS cap need ~2.5 ms of admission slots; the
	// disk's parallelism alone would finish them in well under 1 ms.
	if last.Duration() < 1875*time.Microsecond {
		t.Fatalf("burst finished in %v; IOPS cap not enforced", last.Duration())
	}
}
