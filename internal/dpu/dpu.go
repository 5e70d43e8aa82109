// Package dpu models the ALI-DPU: the card's six-core infrastructure CPU,
// the bandwidth-limited internal PCIe channel that Luna and RDMA must cross
// twice per byte (Fig. 10), and the FPGA packet/storage pipeline Solar runs
// on — match-action table lookups (QoS, Block, Addr), the CRC and SEC
// engines, the DMA engine, and the packet generator — with per-stage
// latencies, genuine LUT/BRAM resource accounting (Table 3), and the bit-flip
// fault injection that motivates Solar's software CRC aggregation (Fig. 11).
package dpu

import (
	"math"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
)

// Config parameterizes one ALI-DPU.
type Config struct {
	CPUCores int     // infrastructure CPU ("only has six cores", §4.2)
	PCIeBps  float64 // internal PCIe effective bandwidth ("far less than 100Gbps")

	// FPGA stage latencies, per operation.
	TableLookup time.Duration // QoS/Block/Addr match-action stage
	CRCPer4K    time.Duration // CRC engine, per block
	SECPer4K    time.Duration // crypto engine, per block
	DMAPer4K    time.Duration // DMA guest memory <-> FPGA, per block
	PktGen      time.Duration // header assembly / parse

	// Capacity knobs drive the BRAM accounting of Table 3.
	MaxAddrEntries int // outstanding one-block packets (Addr table)
	MaxSegments    int // Block table entries
	MaxVDisks      int // QoS table entries

	Faults FaultRates
}

// FaultRates are per-operation probabilities of hardware error, the §4.4
// observation that "FPGA is error-prone due to random hardware failures".
type FaultRates struct {
	CRCBitFlip  float64 // CRC engine emits a flipped result
	DataBitFlip float64 // datapath corrupts the payload before CRC
}

// DefaultConfig returns the ALI-DPU model used across experiments.
func DefaultConfig() Config {
	return Config{
		CPUCores:       6,
		PCIeBps:        70e9,
		TableLookup:    150 * time.Nanosecond,
		CRCPer4K:       300 * time.Nanosecond,
		SECPer4K:       500 * time.Nanosecond,
		DMAPer4K:       800 * time.Nanosecond,
		PktGen:         200 * time.Nanosecond,
		MaxAddrEntries: 20000, // outstanding one-block packets
		MaxSegments:    19456, // 19456 × 2 MiB ≈ 38 GiB of hot segments
		MaxVDisks:      512,   // virtual disks on one server
	}
}

// DPU is one card instance.
type DPU struct {
	Eng  *sim.Engine
	Cfg  Config
	CPU  *sim.Server
	PCIe *sim.Channel
	rand *sim.Rand

	// Fault accounting.
	crcFlips, dataFlips uint64
}

// New builds a DPU attached to the engine.
func New(eng *sim.Engine, cfg Config) *DPU {
	if cfg.CPUCores <= 0 {
		cfg.CPUCores = 6
	}
	return &DPU{
		Eng:  eng,
		Cfg:  cfg,
		CPU:  sim.NewServer(eng, "dpu-cpu", cfg.CPUCores),
		PCIe: sim.NewChannel(eng, "dpu-pcie", cfg.PCIeBps),
		rand: eng.Rand.Fork(),
	}
}

// InjectedFaults returns how many faults of each class the FPGA injected
// (CRC flips, datapath flips).
func (d *DPU) InjectedFaults() (crcFlips, dataFlips uint64) {
	return d.crcFlips, d.dataFlips
}

// PipelineWriteLatency returns the FPGA latency for one outbound data
// block: QoS + Block lookups, DMA fetch, CRC, optional SEC, and PktGen.
// The pipeline is fully pipelined — latency is charged per block, but
// throughput is bounded only by the NIC (line rate), which is the point of
// the offload.
func (d *DPU) PipelineWriteLatency(encrypted bool) time.Duration {
	c := d.Cfg
	lat := 2*c.TableLookup + c.DMAPer4K + c.CRCPer4K + c.PktGen
	if encrypted {
		lat += c.SECPer4K
	}
	return lat
}

// PipelineReadLatency returns the FPGA latency for one inbound data block:
// parse, Addr lookup, CRC check, optional SEC, DMA to guest memory.
func (d *DPU) PipelineReadLatency(encrypted bool) time.Duration {
	c := d.Cfg
	lat := c.PktGen + c.TableLookup + c.CRCPer4K + c.DMAPer4K
	if encrypted {
		lat += c.SECPer4K
	}
	return lat
}

// ComputeCRC runs the FPGA CRC engine over a block, applying fault
// injection: with the configured probabilities the engine's output is
// flipped, or the datapath corrupts the data itself (in which case the
// caller's buffer is modified — the corruption will reach storage unless
// software catches it).
func (d *DPU) ComputeCRC(data []byte) uint32 {
	sum, _ := d.ComputeCRCShared(data, 0, false, corruptInPlace)
	return sum
}

// corruptInPlace is ComputeCRC's scratch policy: the caller's buffer is
// private, so the datapath fault may land directly in it.
func corruptInPlace(b []byte) []byte { return b }

// ComputeCRCShared is the CRC engine for callers whose buffer aliases
// trusted memory (the zero-copy data path) or who already know the block's
// raw CRC (one-touch metadata computed at SA ingress).
//
// A datapath-corruption fault is materialised into scratch(data) — a
// private copy the caller provides — instead of being flipped in place;
// the corrupted copy is returned (nil when the block came through clean).
// With haveCached set, cached must be the raw CRC-32C of data and the
// fault-free path reports it without re-walking the bytes.
//
// The fault lottery and flip positions draw from exactly the same random
// sequence as ComputeCRC, so a given seed corrupts the same blocks the
// same way regardless of which entry point the caller uses.
func (d *DPU) ComputeCRCShared(data []byte, cached uint32, haveCached bool, scratch func([]byte) []byte) (uint32, []byte) {
	if d.Cfg.Faults.DataBitFlip > 0 && d.rand.Bernoulli(d.Cfg.Faults.DataBitFlip) {
		d.dataFlips++
		buf := scratch(data)
		i := d.rand.Intn(len(buf))
		buf[i] ^= 1 << uint(d.rand.Intn(8))
		// The engine checksums the already-corrupted data: CRC matches the
		// corrupt payload, so only an end-to-end expected value catches it.
		if len(buf) > 0 && len(data) > 0 && &buf[0] == &data[0] {
			return crc.Raw(buf), nil // flipped in place: nothing materialised
		}
		return crc.Raw(buf), buf
	}
	sum := cached
	if !haveCached {
		sum = crc.Raw(data)
	}
	if d.Cfg.Faults.CRCBitFlip > 0 && d.rand.Bernoulli(d.Cfg.Faults.CRCBitFlip) {
		d.crcFlips++
		sum ^= 1 << uint(d.rand.Intn(32))
	}
	return sum, nil
}

// --- Table 3: resource accounting ------------------------------------------

// FPGA device totals. The model is a VU9P-class part: ~1.18 M LUTs and 2160
// BRAM36 blocks. Only a fraction is available to EBS (the FPGA also hosts
// the virtual switch, §4.4); percentages are reported against the full
// device, as the paper does.
const (
	DeviceLUTs       = 1_182_000
	DeviceBRAMBlocks = 2160
	bramBlockBits    = 36 * 1024
)

// ModuleUsage is one row of Table 3.
type ModuleUsage struct {
	Name       string
	LUTs       int
	BRAMBlocks int
}

// LUTPercent returns LUT usage as a percentage of the device.
func (m ModuleUsage) LUTPercent() float64 {
	return 100 * float64(m.LUTs) / DeviceLUTs
}

// BRAMPercent returns BRAM usage as a percentage of the device.
func (m ModuleUsage) BRAMPercent() float64 {
	return 100 * float64(m.BRAMBlocks) / DeviceBRAMBlocks
}

// bramFor returns the BRAM36 blocks needed to hold entries of entryBits
// each, with a ×2 overprovision factor for the hash-table organisation
// hardware match-action tables use.
func bramFor(entries, entryBits int) int {
	bits := float64(entries) * float64(entryBits) * 2
	return int(math.Ceil(bits / bramBlockBits))
}

// Resources derives the per-module FPGA consumption from the configured
// capacities — the regeneration of Table 3.
//
// Entry layouts:
//
//	Addr:  rpcID(64) + pktID(16) + guest address(64) + len(16) + valid(1) ≈ 161 b
//	Block: segmentID(64) + server addr(32) + physical offset(48) + gen(32) ≈ 176 b
//	QoS:   two token buckets (rate, burst, level, ts) ≈ 4×48 b = 192 b... per
//	       disk with both IOPS and bandwidth buckets → 2×(32+32+48+48) = 320 b
//	       (dominated below by the small disk count).
func (d *DPU) Resources() []ModuleUsage {
	c := d.Cfg
	mods := []ModuleUsage{
		// Logic sizes are fixed properties of each engine's implementation;
		// BRAM scales with the configured capacities.
		{Name: "Addr", LUTs: 60_000, BRAMBlocks: bramFor(c.MaxAddrEntries, 161)},
		{Name: "Block", LUTs: 2_400, BRAMBlocks: bramFor(c.MaxSegments, 176)},
		{Name: "QoS", LUTs: 1_200, BRAMBlocks: bramFor(c.MaxVDisks, 320)},
		{Name: "SEC", LUTs: 33_000, BRAMBlocks: 20}, // AES round pipeline + S-boxes
		{Name: "CRC", LUTs: 3_500, BRAMBlocks: 0},   // pure logic
	}
	var total ModuleUsage
	total.Name = "Total"
	for _, m := range mods {
		total.LUTs += m.LUTs
		total.BRAMBlocks += m.BRAMBlocks
	}
	return append(mods, total)
}
