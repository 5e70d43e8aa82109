package workload

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
)

func TestSizeDistMatchesFig5(t *testing.T) {
	r := sim.NewRand(1)
	var c stats.CDF
	d := NewWriteSizes(r)
	for i := 0; i < 50000; i++ {
		s := d.Sample()
		c.Add(float64(s))
		if s > 128<<10 {
			t.Fatalf("size %d exceeds 128K", s)
		}
		if s < 4096 {
			t.Fatalf("size %d below a block", s)
		}
	}
	// ~40% at 4K (Fig. 5).
	at4k := c.At(4096)
	if at4k < 0.35 || at4k > 0.50 {
		t.Fatalf("P(size<=4K) = %v, want ~0.42", at4k)
	}
	if got := c.At(128 << 10); got != 1 {
		t.Fatalf("P(size<=128K) = %v", got)
	}
}

func TestReadWritesDistinct(t *testing.T) {
	r := sim.NewRand(2)
	w, rd := NewWriteSizes(r), NewReadSizes(r)
	var wsum, rsum float64
	const n = 20000
	for i := 0; i < n; i++ {
		wsum += float64(w.Sample())
		rsum += float64(rd.Sample())
	}
	// Reads skew slightly larger on average.
	if rsum/n <= wsum/n {
		t.Fatalf("mean read %v <= mean write %v", rsum/n, wsum/n)
	}
}

func TestDiurnalShape(t *testing.T) {
	d := NewDiurnal(sim.NewRand(3))
	// Average over repeats to smooth noise.
	avg := func(h int) float64 {
		var s float64
		for i := 0; i < 200; i++ {
			s += d.Rate(time.Duration(h) * time.Hour)
		}
		return s / 200
	}
	night, midday := avg(2), avg(14)
	if midday <= 1.5*night {
		t.Fatalf("no diurnal swing: night=%v midday=%v", night, midday)
	}
	if midday < 150_000 || midday > 260_000 {
		t.Fatalf("peak %v not ~200K IOPS", midday)
	}
	if night < 30_000 {
		t.Fatalf("floor %v too low", night)
	}
}

func TestWeeklyShares(t *testing.T) {
	w := NewWeekly(sim.NewRand(4))
	var ebsTx, allTx, writes, reads float64
	for h := 0; h < 7*24; h++ {
		s := w.At(h)
		ebsTx += s.EBSTxGBs
		allTx += s.AllTxGBs
		writes += s.WriteIOPS
		reads += s.ReadIOPS
		if s.EBSTxGBs > s.AllTxGBs {
			t.Fatal("EBS exceeds total traffic")
		}
	}
	share := ebsTx / allTx
	if share < 0.58 || share > 0.68 {
		t.Fatalf("EBS TX share = %v, want ~0.63", share)
	}
	ratio := writes / reads
	if ratio < 3 || ratio > 4 {
		t.Fatalf("write/read ratio = %v, want 3–4x", ratio)
	}
}
