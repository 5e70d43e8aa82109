// Package workload provides the traffic models behind the paper's
// measurement figures and the load generators that drive the experiments:
// the I/O-size mixture of Fig. 5 (40% of requests ≤4 KiB, everything
// ≤128 KiB, spikes at 4/16/64 KiB), the diurnal per-server IOPS pattern of
// Fig. 4 (~200 K peaks), the weekly EBS-vs-VPC traffic shares of Fig. 3
// (EBS ≈ 63% of TX, writes 3–4× reads), and the one guest-I/O driver
// (Driver) every experiment issues its I/O through: closed- and open-loop
// streams whose writes are stamped and whose reads are checked.
package workload

import (
	"math"
	"time"

	"lunasolar/internal/sim"
)

// SizeDist is the I/O request size mixture. Weights follow Fig. 5's CDF:
// strong modes at 4K, 8K, 16K, 64K with a thin tail to 128K.
type SizeDist struct {
	sizes   []int
	cum     []float64
	rand    *sim.Rand
	isWrite bool
}

type sizePoint struct {
	size   int
	weight float64
}

// Fig. 5: "about 40% RPCs are up to 4K bytes", typical sizes 4K/16K/64K,
// everything under 128K. Writes skew slightly smaller than reads (databases
// journaling small records).
var writeMix = []sizePoint{
	{4 << 10, 0.42}, {8 << 10, 0.16}, {16 << 10, 0.22},
	{32 << 10, 0.08}, {64 << 10, 0.09}, {128 << 10, 0.03},
}

var readMix = []sizePoint{
	{4 << 10, 0.38}, {8 << 10, 0.13}, {16 << 10, 0.24},
	{32 << 10, 0.09}, {64 << 10, 0.12}, {128 << 10, 0.04},
}

func newSizeDist(points []sizePoint, r *sim.Rand) *SizeDist {
	d := &SizeDist{rand: r}
	total := 0.0
	for _, p := range points {
		total += p.weight
	}
	cum := 0.0
	for _, p := range points {
		cum += p.weight / total
		d.sizes = append(d.sizes, p.size)
		d.cum = append(d.cum, cum)
	}
	return d
}

// NewWriteSizes returns the write-size mixture.
func NewWriteSizes(r *sim.Rand) *SizeDist { return newSizeDist(writeMix, r) }

// NewReadSizes returns the read-size mixture.
func NewReadSizes(r *sim.Rand) *SizeDist { return newSizeDist(readMix, r) }

// Sample draws one I/O size in bytes.
func (d *SizeDist) Sample() int {
	u := d.rand.Float64()
	for i, c := range d.cum {
		if u <= c {
			return d.sizes[i]
		}
	}
	return d.sizes[len(d.sizes)-1]
}

// Diurnal models the per-server request rate over a day (Fig. 4): a
// business-hours sinusoid over a base load, plus bursty noise and occasional
// spikes, peaking around 200 K IOPS for a highly loaded server.
type Diurnal struct {
	BaseIOPS float64 // overnight floor
	PeakIOPS float64 // mid-day crest
	Noise    float64 // multiplicative noise amplitude
	rand     *sim.Rand
}

// NewDiurnal returns the Fig. 4 model for a highly loaded server.
func NewDiurnal(r *sim.Rand) *Diurnal {
	return &Diurnal{BaseIOPS: 60_000, PeakIOPS: 200_000, Noise: 0.18, rand: r}
}

// Rate returns the target IOPS at time-of-day t.
func (d *Diurnal) Rate(t time.Duration) float64 {
	hours := t.Hours()
	frac := hours / 24 * 2 * math.Pi
	// Crest at 14:00, trough at 02:00.
	shape := 0.5 - 0.5*math.Cos(frac-14.0/24*2*math.Pi+math.Pi)
	base := d.BaseIOPS + (d.PeakIOPS-d.BaseIOPS)*shape
	noise := 1 + d.Noise*(2*d.rand.Float64()-1)
	// Occasional sharp spikes (batch jobs, compactions).
	if d.rand.Bernoulli(0.01) {
		noise *= 1.35
	}
	return base * noise
}

// Weekly models the fleet-wide traffic of Fig. 3: hourly EBS and total
// (EBS+VPC) throughput per server in GB/s, and read/write request rates,
// over seven days. EBS is ~63% of TX; writes are 3–4× reads.
type Weekly struct {
	rand *sim.Rand
}

// NewWeekly returns the Fig. 3 model.
func NewWeekly(r *sim.Rand) *Weekly { return &Weekly{rand: r} }

// HourSample is one hourly fleet-average sample.
type HourSample struct {
	EBSTxGBs  float64 // EBS transmit throughput per server
	EBSRxGBs  float64
	AllTxGBs  float64 // all traffic including VPC
	AllRxGBs  float64
	WriteIOPS float64 // fleet-average write request rate per server
	ReadIOPS  float64
}

// At returns the sample for hour h (0-based) of the week.
func (w *Weekly) At(h int) HourSample {
	day := time.Duration(h%24) * time.Hour
	// Reuse the diurnal shape with weekday/weekend modulation.
	d := Diurnal{BaseIOPS: 0.55, PeakIOPS: 1.0, Noise: 0.06, rand: w.rand}
	shape := d.Rate(day)
	if (h/24)%7 >= 5 {
		shape *= 0.85 // weekend dip
	}
	// Per-server averages: EBS TX ≈ 1.05 GB/s at peak; writes dominate TX.
	ebsTx := 1.05 * shape
	ebsRx := 0.36 * shape
	allTx := ebsTx / 0.63 // EBS ≈ 63% of server TX
	allRx := ebsRx / 0.51
	writes := 5200.0 * shape // Fig. 3b: ~5K writes/s/server average
	reads := writes / 3.6    // writes 3–4× reads
	return HourSample{
		EBSTxGBs: ebsTx, EBSRxGBs: ebsRx,
		AllTxGBs: allTx, AllRxGBs: allRx,
		WriteIOPS: writes, ReadIOPS: reads,
	}
}
