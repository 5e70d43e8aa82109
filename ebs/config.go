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
	"lunasolar/internal/cc"
	"lunasolar/internal/chunkserver"
	"lunasolar/internal/core"
	"lunasolar/internal/dpu"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sa"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
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

	StorageCores int // per storage server
	SSD          chunkserver.SSDConfig

	// CrossDC places the storage pod in a second datacenter so frontend
	// traffic crosses the DC-router tier (the Fig. 8 fleet topology).
	// Requires Fabric.DCs >= 2 and Fabric.DCRouters >= 1.
	CrossDC bool

	// Edge enables §4.8's "Integrated EBS with DPU": the storage agent and
	// block server share each compute server's DPU (an in-card handover
	// replaces the frontend-network RPC), and the integrated block server
	// replicates straight to the chunk servers over the backend network.
	// BlockServers is ignored; each compute hosts its own. Virtual disks
	// provisioned on a compute are served by that compute's block server.
	Edge bool

	// SolarOverride, when non-nil, replaces the Solar client parameters
	// (ablation studies: path counts, CRC strategy, window sizes). Mode and
	// Encrypted are still derived from FN/Encrypted.
	SolarOverride *core.Params

	// CoupledParts splits the fabric into that many partitions advanced by
	// the coupled (conservative time-synchronized) runner; see
	// internal/simnet/partition.go and internal/sim/runtime/coupled.go.
	// 0 or 1 builds the classic serial cluster. The partition count is part
	// of the scenario: for a fixed CoupledParts, output is byte-identical
	// for every CoupledWorkers value.
	CoupledParts int

	// CoupledWorkers bounds the goroutines driving partition windows.
	// 0 uses GOMAXPROCS; 1 is the serial determinism baseline. Ignored
	// unless CoupledParts > 1.
	CoupledWorkers int

	// CC selects the congestion controller every RDMA stack in the cluster
	// runs — the frontend stack when FN is RDMA, and the backend stacks of
	// every era that replicates over RC. The zero value (cc.KindStatic) is
	// the fixed hardware window, byte-identical to clusters built before
	// the controller was pluggable. The kernel/Luna stacks keep DCTCP and
	// Solar keeps per-path HPCC regardless: the paper's comparison is
	// between those fixed designs and the RDMA plane's controller.
	CC cc.Kind

	Encrypted bool
	Seed      int64
}

// DefaultConfig returns a cluster sized like the Table 2 testbed scaled
// down: one compute pod and one storage pod in a single DC. CC is left at
// its zero value (static window).
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
		StorageCores:   16,
		DPU:            dpu.DefaultConfig(),
		SSD:            chunkserver.DefaultSSD(),
		Seed:           1,
	}
	if fn == Solar || fn == SolarStar {
		cfg.BareMetal = true
	}
	return cfg
}

// Validate reports why cfg cannot be built into a cluster; nil means New
// accepts it.
func (cfg Config) Validate() error { return cfg.validate(false) }

// validate is the one place a composition is accepted or rejected. With
// ctrlPlane set it also applies the control plane's preconditions: it
// mutates cross-server state synchronously, which is only sound when one
// engine owns everything.
func (cfg Config) validate(ctrlPlane bool) error {
	if cfg.ComputeServers <= 0 || cfg.BlockServers <= 0 || cfg.ChunkServers < blockserver.Replicas {
		return errors.New("ebs: cluster needs computes, block servers, and >=3 chunk servers")
	}
	podCap := cfg.Fabric.RacksPerPod * cfg.Fabric.HostsPerRack
	if cfg.ComputeServers > podCap {
		return fmt.Errorf("ebs: %d compute servers exceed pod capacity %d", cfg.ComputeServers, podCap)
	}
	if cfg.BlockServers+cfg.ChunkServers > podCap {
		return fmt.Errorf("ebs: %d storage servers exceed pod capacity %d",
			cfg.BlockServers+cfg.ChunkServers, podCap)
	}
	if cfg.CrossDC && (cfg.Fabric.DCs < 2 || cfg.Fabric.DCRouters < 1) {
		return errors.New("ebs: CrossDC requires >=2 DCs and >=1 DC router in the fabric")
	}
	if cfg.Edge && cfg.FN != Solar {
		return errors.New("ebs: Edge mode integrates the Solar-era DPU; set FN to Solar")
	}
	if cfg.CC > cc.KindSwift {
		return fmt.Errorf("ebs: unknown congestion controller %d", cfg.CC)
	}
	// A zero here builds a server with no units, a channel or link with no
	// rate, a fabric with no path between pods, or an unpaced SSD. The
	// stack runs on the DPU (Solar kinds always do; New forces BareMetal)
	// or on host cores, never both, so only one of the last two counts.
	dpuResident := cfg.BareMetal || cfg.Edge || cfg.FN == Solar || cfg.FN == SolarStar
	for _, k := range []struct {
		name string
		v    float64
		used bool
	}{
		{"StorageCores", float64(cfg.StorageCores), true},
		{"SSD.IOPSCap", cfg.SSD.IOPSCap, true},
		{"Fabric.SpinesPerPod", float64(cfg.Fabric.SpinesPerPod), true},
		{"Fabric.CoresPerDC", float64(cfg.Fabric.CoresPerDC), true},
		{"Fabric.HostLinkBps", cfg.Fabric.HostLinkBps, true},
		{"Fabric.FabricLinkBps", cfg.Fabric.FabricLinkBps, true},
		{"StackCores", float64(cfg.StackCores), !dpuResident},
		{"DPU.PCIeBps", cfg.DPU.PCIeBps, dpuResident},
	} {
		if k.used && !(k.v > 0) {
			return fmt.Errorf("ebs: %s must be positive, got %v", k.name, k.v)
		}
	}
	if ctrlPlane && cfg.CoupledParts > 1 {
		return errors.New("ebs: control plane requires a serial cluster (CoupledParts <= 1)")
	}
	if ctrlPlane && cfg.Edge {
		return errors.New("ebs: control plane does not support Edge mode")
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
func SolarStackParams(kind StackKind, encrypted bool) core.Params {
	p := core.DefaultParams()
	if kind == SolarStar {
		p.Mode = core.CPUPath
	}
	p.Encrypted = encrypted
	return p
}
