// Package ebs is the public API of the repository: it assembles the full
// Elastic Block Storage system the paper describes — compute servers
// (storage agent + a pluggable frontend-network stack, optionally on a
// DPU), a storage cluster (block servers replicating to chunk servers over
// a backend network), a multi-tier Clos fabric with failure injection, and
// distributed-trace collection — and exposes virtual disks to drive with
// I/O.
//
// Every comparison in the paper's evaluation is one cluster built with a
// different Config.FN:
//
//	cfg := ebs.DefaultConfig(ebs.Solar)
//	cluster := ebs.New(cfg)
//	vd := cluster.MustProvision(0, 8<<30, ebs.DefaultQoS())
//	vd.Write(0, data, func(res ebs.IOResult) { ... })
//	cluster.Run()
package ebs

import (
	"errors"
	"fmt"
	"time"

	"lunasolar/internal/blockserver"
	"lunasolar/internal/chunkserver"
	"lunasolar/internal/core"
	"lunasolar/internal/dpu"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sa"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/wire"
)

// StackKind selects the frontend-network stack generation.
type StackKind int

// The stacks of the paper's evaluation.
const (
	// KernelTCP is the pre-2018 baseline: kernel stack on both FN and BN.
	KernelTCP StackKind = iota
	// Luna is the user-space TCP stack (FN) over an RDMA BN.
	Luna
	// RDMA uses RC on the frontend too — the Fig. 14/15 comparator.
	RDMA
	// Solar is the offloaded one-block-one-packet stack.
	Solar
	// SolarStar is Solar with the data-plane offload disabled (§4.7).
	SolarStar
)

func (k StackKind) String() string {
	switch k {
	case KernelTCP:
		return "kernel"
	case Luna:
		return "luna"
	case RDMA:
		return "rdma"
	case Solar:
		return "solar"
	case SolarStar:
		return "solar*"
	}
	return "?"
}

// Config describes one cluster.
type Config struct {
	Fabric simnet.Config

	// FN also fixes the backend network by era: a KernelTCP front means a
	// kernel back; every later era replicates over RDMA.
	FN StackKind

	ComputeServers int
	BlockServers   int
	ChunkServers   int

	// StackCores bounds the CPU pool available to the FN stack and SA on
	// each compute server (the x-axis of Fig. 14). Ignored when the stack
	// runs on a DPU, whose core count comes from DPU.CPUCores.
	StackCores int

	// BareMetal runs the compute-side stack and SA on the DPU (always true
	// for Solar/Solar*, whose design is the DPU).
	BareMetal bool
	DPU       dpu.Config

	SSD chunkserver.SSDConfig

	// CrossDC places the storage pod in a second datacenter so frontend
	// traffic crosses the DC-router tier (the Fig. 8 fleet topology).
	// Requires Fabric.DCs >= 2 and Fabric.DCRouters >= 1.
	CrossDC bool

	Seed int64
}

// storageCores is the core count of every storage server.
const storageCores int = 16

// DefaultConfig returns a cluster sized like the Table 2 testbed scaled
// down: one compute pod and one storage pod in a single DC. Each stack runs
// the congestion control the paper pairs it with (see the stack presets).
func DefaultConfig(fn StackKind) Config {
	fab := simnet.DefaultConfig()
	fab.RacksPerPod = 4
	fab.HostsPerRack = 4
	cfg := Config{
		Fabric:         fab,
		FN:             fn,
		ComputeServers: 4,
		BlockServers:   4,
		ChunkServers:   8,
		StackCores:     4,
		DPU:            dpu.DefaultConfig(),
		SSD:            chunkserver.DefaultSSD(),
		Seed:           1,
	}
	if fn == Solar || fn == SolarStar {
		cfg.BareMetal = true
	}
	return cfg
}

// Validate is the one place a composition is accepted or rejected: it
// reports why cfg cannot be built into a cluster, and nil means New accepts
// it.
func (cfg Config) Validate() error {
	if cfg.FN < KernelTCP || cfg.FN > SolarStar {
		return fmt.Errorf("ebs: unknown stack kind %d", cfg.FN)
	}
	if cfg.ComputeServers <= 0 || cfg.BlockServers <= 0 || cfg.ChunkServers < blockserver.Replicas {
		return errors.New("ebs: cluster needs computes, block servers, and >=3 chunk servers")
	}
	// A zero here builds a server with no units, a link with no rate or a
	// fabric with no path between pods. The stack runs on the DPU (Solar
	// kinds always do; New forces BareMetal) or on host cores, never both,
	// so only one of the last two counts.
	dpuResident := cfg.BareMetal || cfg.FN == Solar || cfg.FN == SolarStar
	for _, k := range []struct {
		name string
		v    float64
		used bool
	}{
		{"SSD.Parallelism", float64(cfg.SSD.Parallelism), true},
		{"Fabric.SpinesPerPod", float64(cfg.Fabric.SpinesPerPod), true},
		{"Fabric.CoresPerDC", float64(cfg.Fabric.CoresPerDC), true},
		{"Fabric.HostLinkBps", cfg.Fabric.HostLinkBps, true},
		{"StackCores", float64(cfg.StackCores), !dpuResident},
		{"DPU.CPUCores", float64(cfg.DPU.CPUCores), dpuResident},
	} {
		if k.used && !(k.v > 0) {
			return fmt.Errorf("ebs: %s must be positive, got %v", k.name, k.v)
		}
	}
	// An address dimension below 1 builds no host; one above 255 gives
	// two hosts one address.
	if err := cfg.Fabric.CheckDims(); err != nil {
		return fmt.Errorf("ebs: Fabric.%v", err)
	}
	// Solar admits no read without a free Addr-table entry.
	if (cfg.FN == Solar || cfg.FN == SolarStar) && cfg.DPU.MaxAddrEntries < 1 {
		return fmt.Errorf("ebs: DPU.MaxAddrEntries must be at least 1, got %d", cfg.DPU.MaxAddrEntries)
	}
	// Every frame tail-drops at a port whose buffer cannot hold one.
	if cfg.Fabric.BufferBytes < wire.JumboFrame {
		return fmt.Errorf("ebs: Fabric.BufferBytes %d is below one %d B frame", cfg.Fabric.BufferBytes, wire.JumboFrame)
	}
	podCap := cfg.Fabric.RacksPerPod * cfg.Fabric.HostsPerRack
	if cfg.ComputeServers > podCap {
		return fmt.Errorf("ebs: %d compute servers exceed pod capacity %d", cfg.ComputeServers, podCap)
	}
	if cfg.BlockServers+cfg.ChunkServers > podCap {
		return fmt.Errorf("ebs: %d storage servers exceed pod capacity %d",
			cfg.BlockServers+cfg.ChunkServers, podCap)
	}
	// A negative router count builds no router, as 0 does.
	if cfg.Fabric.DCRouters < 0 {
		return fmt.Errorf("ebs: Fabric.DCRouters must not be negative, got %d", cfg.Fabric.DCRouters)
	}
	// A fault rate is a probability; the negated form rejects NaN too.
	for _, f := range []struct {
		name string
		v    float64
	}{{"CRCBitFlip", cfg.DPU.Faults.CRCBitFlip}, {"DataBitFlip", cfg.DPU.Faults.DataBitFlip}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("ebs: DPU.Faults.%s must be in [0, 1], got %v", f.name, f.v)
		}
	}
	if cfg.CrossDC && (cfg.Fabric.DCs < 2 || cfg.Fabric.DCRouters < 1) {
		return errors.New("ebs: CrossDC requires >=2 DCs and >=1 DC router in the fabric")
	}
	// Storage lives in pod 1 of the compute DC unless CrossDC moves it.
	if !cfg.CrossDC && cfg.Fabric.PodsPerDC < 2 {
		return fmt.Errorf("ebs: storage needs a second pod: Fabric.PodsPerDC is %d without CrossDC", cfg.Fabric.PodsPerDC)
	}
	return nil
}

// QoS builds a service level with the given IOPS and bandwidth.
func QoS(iops, bandwidthBps float64) sa.QoSSpec {
	return sa.QoSSpec{IOPS: iops, BandwidthBps: bandwidthBps, BurstWindow: 10 * time.Millisecond}
}

// DefaultQoS returns an ESSD-class service level (the 2018 ESSD offering:
// up to 1M IOPS per disk family; a generous per-disk default here).
func DefaultQoS() sa.QoSSpec {
	return sa.QoSSpec{IOPS: 1_000_000, BandwidthBps: 32e9, BurstWindow: 10 * time.Millisecond}
}

// --- stack parameter presets (the calibration DESIGN.md documents) ---------

// KernelStackParams models the kernel TCP path: small MSS, per-RPC
// syscall/wakeup latency that dominates single-RPC latency, per-packet
// interrupt costs and payload copies that dominate CPU, and a 200 ms
// minimum RTO — the reason kernel-era loss recovery is disastrous for
// storage.
func KernelStackParams() tcpstack.Params {
	return tcpstack.Params{
		MSS:      1448,
		InitCwnd: 10 * 1448,
		MaxCwnd:  1 << 20,
		MinRTO:   200 * time.Millisecond,
		MaxRTO:   2 * time.Second,

		PerRPCTxCPU: 800 * time.Nanosecond,
		PerRPCRxCPU: 900 * time.Nanosecond,
		PerPktTxCPU: 450 * time.Nanosecond,
		PerPktRxCPU: 550 * time.Nanosecond,
		CopyPer4K:   350 * time.Nanosecond,

		PerRPCTxDelay: 16 * time.Microsecond,
		PerRPCRxDelay: 12 * time.Microsecond,

		RxBufferSegs: 256,
	}
}

// LunaStackParams models Luna: jumbo MSS (one segment per block),
// run-to-complete (no wakeup latency), zero-copy, TSO batching, ECN/DCTCP,
// and a millisecond-scale RTO.
func LunaStackParams() tcpstack.Params {
	return tcpstack.Params{
		MSS:      4096,
		InitCwnd: 16 * 4096,
		MaxCwnd:  1 << 20,
		MinRTO:   4 * time.Millisecond,
		MaxRTO:   time.Second,
		UseECN:   true,

		PerRPCTxCPU: 120 * time.Nanosecond,
		PerRPCRxCPU: 150 * time.Nanosecond,
		PerPktTxCPU: 240 * time.Nanosecond,
		PerPktRxCPU: 120 * time.Nanosecond,

		PerRPCTxDelay: 600 * time.Nanosecond,
		PerRPCRxDelay: 400 * time.Nanosecond,

		TSOBatch:     4,
		RxBufferSegs: 512,
	}
}

// RDMAStackParams returns the RC model (see the rdma package).
func RDMAStackParams() rdma.Params { return rdma.DefaultParams() }

// SolarStackParams returns the Solar client model for the given placement.
// encrypted must be false: per-disk encryption is not modelled, and the
// argument stays only so existing callers keep compiling.
func SolarStackParams(kind StackKind, encrypted bool) core.Params {
	if encrypted {
		panic("ebs: SolarStackParams: per-disk encryption is not modelled")
	}
	p := core.DefaultParams()
	if kind == SolarStar {
		p.Mode = core.CPUPath
	}
	return p
}
