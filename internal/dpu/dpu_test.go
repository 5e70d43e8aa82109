package dpu

import (
	"bytes"
	"math/bits"
	"testing"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
)

func newDPU(faults FaultRates) *DPU {
	cfg := DefaultConfig()
	cfg.Faults = faults
	return New(sim.NewEngine(7), cfg)
}

func TestPipelineLatencies(t *testing.T) {
	d := newDPU(FaultRates{})
	w := d.PipelineWriteLatency()
	if w <= 0 || w > 10*time.Microsecond {
		t.Fatalf("write pipeline latency %v implausible", w)
	}
	r := d.PipelineReadLatency()
	if r <= 0 || r > 10*time.Microsecond {
		t.Fatalf("read pipeline latency %v implausible", r)
	}
}

// copyScratch is a caller's scratch policy: a fault lands in a fresh copy.
func copyScratch(b []byte) []byte { return append([]byte(nil), b...) }

func TestComputeCRCClean(t *testing.T) {
	d := newDPU(FaultRates{})
	data := []byte("a clean block of data for the crc engine")
	got, corrupted := d.ComputeCRC(data, 0, false, copyScratch)
	if want := crc.Raw(data); got != want || corrupted != nil {
		t.Fatalf("clean CRC %08x (copy %v), want %08x and no copy", got, corrupted != nil, want)
	}
	c, dd := d.InjectedFaults()
	if c+dd != 0 {
		t.Fatal("faults injected with zero rates")
	}
}

func TestComputeCRCBitFlip(t *testing.T) {
	d := newDPU(FaultRates{CRCBitFlip: 1.0})
	data := make([]byte, 4096)
	got, corrupted := d.ComputeCRC(data, 0, false, copyScratch)
	if got == crc.Raw(data) {
		t.Fatal("CRC flip rate 1.0 produced a correct CRC")
	}
	if corrupted != nil {
		t.Fatal("a CRC flip materialised a data copy")
	}
	flips, _ := d.InjectedFaults()
	if flips != 1 {
		t.Fatalf("crcFlips = %d", flips)
	}
}

func TestComputeCRCDataCorruption(t *testing.T) {
	d := newDPU(FaultRates{DataBitFlip: 1.0})
	data := make([]byte, 4096)
	orig := append([]byte{}, data...)
	got, corrupted := d.ComputeCRC(data, 0, false, copyScratch)
	if !bytes.Equal(data, orig) {
		t.Fatal("datapath corruption modified the caller's buffer")
	}
	if len(corrupted) != len(data) {
		t.Fatalf("corrupted copy is %d bytes, want %d", len(corrupted), len(data))
	}
	flipped := 0
	for i := range data {
		flipped += bits.OnesCount8(data[i] ^ corrupted[i])
	}
	if flipped != 1 {
		t.Fatalf("corrupted copy differs in %d bits, want 1", flipped)
	}
	// The engine checksums the corrupted data — consistent with it, so the
	// per-block check alone cannot catch it...
	if got != crc.Raw(corrupted) {
		t.Fatal("engine CRC should match the corrupted data")
	}
	// ...but the expected aggregate (from trusted metadata) does.
	var agg crc.Aggregator
	agg.AddExpected(crc.Raw(orig))
	agg.AddBlockCRC(got)
	if agg.Verify() {
		t.Fatal("software aggregation failed to catch datapath corruption")
	}
}

func TestFaultRatesStatistical(t *testing.T) {
	d := newDPU(FaultRates{CRCBitFlip: 0.1})
	data := make([]byte, 64)
	miss := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if sum, _ := d.ComputeCRC(data, 0, false, copyScratch); sum != crc.Raw(data) {
			miss++
		}
	}
	frac := float64(miss) / n
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("flip fraction %v, want ~0.1", frac)
	}
}

func TestResourcesMatchTable3Shape(t *testing.T) {
	d := newDPU(FaultRates{})
	rows := d.Resources()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ModuleUsage{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Shape assertions straight from Table 3:
	// Addr dominates LUTs among tables; Block/QoS tiny logic, BRAM-heavy
	// Block; CRC ~0 BRAM; totals under ~12% LUT / ~25% BRAM.
	if byName["Addr"].LUTPercent() < 3 || byName["Addr"].LUTPercent() > 8 {
		t.Fatalf("Addr LUT%% = %.1f", byName["Addr"].LUTPercent())
	}
	if byName["Addr"].BRAMPercent() < 5 || byName["Addr"].BRAMPercent() > 12 {
		t.Fatalf("Addr BRAM%% = %.1f", byName["Addr"].BRAMPercent())
	}
	if byName["Block"].BRAMPercent() < 5 || byName["Block"].BRAMPercent() > 12 {
		t.Fatalf("Block BRAM%% = %.1f", byName["Block"].BRAMPercent())
	}
	if byName["Block"].LUTPercent() > 0.5 {
		t.Fatalf("Block LUT%% = %.2f, should be tiny", byName["Block"].LUTPercent())
	}
	if byName["QoS"].BRAMPercent() > 2 {
		t.Fatalf("QoS BRAM%% = %.2f", byName["QoS"].BRAMPercent())
	}
	if byName["CRC"].BRAMBlocks != 0 {
		t.Fatal("CRC should use no BRAM")
	}
	if byName["SEC"].LUTPercent() < 1.5 || byName["SEC"].LUTPercent() > 5 {
		t.Fatalf("SEC LUT%% = %.1f", byName["SEC"].LUTPercent())
	}
	tot := byName["Total"]
	if tot.LUTPercent() > 12 || tot.BRAMPercent() > 25 {
		t.Fatalf("total %.1f%% LUT / %.1f%% BRAM exceeds the paper's envelope",
			tot.LUTPercent(), tot.BRAMPercent())
	}
}

func TestBRAMScalesWithCapacity(t *testing.T) {
	eng := sim.NewEngine(1)
	small := DefaultConfig()
	small.MaxAddrEntries = 1024
	big := DefaultConfig()
	big.MaxAddrEntries = 65536
	rs := New(eng, small).Resources()
	rb := New(eng, big).Resources()
	if rb[0].BRAMBlocks <= rs[0].BRAMBlocks {
		t.Fatal("Addr BRAM did not scale with capacity")
	}
}
