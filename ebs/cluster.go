package ebs

import (
	"fmt"
	"time"

	"lunasolar/internal/blockserver"
	"lunasolar/internal/chunkserver"
	"lunasolar/internal/core"
	"lunasolar/internal/dpu"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sa"
	"lunasolar/internal/sim"
	"lunasolar/internal/sim/runtime"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
)

// Compute servers live in (dc 0, pod 0). Storage servers live in pod 1 of
// the same DC, or pod 0 of DC 1 when CrossDC is set — either way frontend
// traffic crosses the fabric's upper tiers.
const computePod = 0

// Cluster is a fully wired EBS deployment. It spans every partition of
// a coupled fabric: reaching engines, pools or collectors through it from
// partitioned code crosses ownership.
//
//lint:spanning
type Cluster struct {
	Eng    *sim.Engine // partition 0's engine; the only engine when serial
	Fabric *simnet.Fabric
	cfg    Config

	engines []*sim.Engine
	coupled *runtime.Coupled // nil for serial clusters

	computes []*ComputeServer
	blocks   []*StorageServer
	chunks   []*StorageServer

	segs       *sa.SegmentTable
	collectors []*trace.Collector // one per partition, engine-owned like pools
	nextVD     uint32
	ctrlPlane  *ControlPlane // lazily built by ControlPlane()
}

// ComputeServer is one compute host: its agent, stack, and (when
// bare-metal) DPU.
type ComputeServer struct {
	Host  *simnet.Host
	Cores *sim.Server // the pool the stack + SA are charged to
	DPU   *dpu.DPU    // nil unless bare-metal
	Stack transport.Stack
	Agent *sa.Agent
}

// StorageServer is one storage host: a block server or a chunk server.
type StorageServer struct {
	Host  *simnet.Host
	Cores *sim.Server
	Block *blockserver.Server // nil on chunk nodes
	Chunk *chunkserver.Server // nil on block nodes
	FN    transport.Stack     // the host's frontend-facing stack (diagnostics)
}

// New builds and wires a cluster. It panics with cfg.Validate's error on
// impossible configurations (construction errors are programming errors in
// experiment setup).
//
//lint:barrier — construction time: partitions exist but no window has run
func New(cfg Config) *Cluster {
	if cfg.FN == Solar || cfg.FN == SolarStar {
		cfg.BareMetal = true
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}

	parts := cfg.CoupledParts
	if parts < 1 {
		parts = 1
	}
	engines := make([]*sim.Engine, parts)
	collectors := make([]*trace.Collector, parts)
	for i := range engines {
		engines[i] = sim.NewEngine(mixSeed(cfg.Seed, i))
		collectors[i] = trace.NewCollector()
	}
	fab := simnet.NewPartitioned(engines, cfg.Fabric)
	c := &Cluster{
		Eng:        engines[0],
		Fabric:     fab,
		cfg:        cfg,
		engines:    engines,
		segs:       sa.NewSegmentTable(),
		collectors: collectors,
	}
	if parts > 1 {
		c.coupled = &runtime.Coupled{
			Engines:   engines,
			Lookahead: fab.Lookahead(),
			Workers:   cfg.CoupledWorkers,
			AtBarrier: func() {
				fab.PublishCutState()
				fab.DrainInboxes()
			},
		}
	}
	// Storage hosts: chunk servers first (block servers need their
	// addresses).
	storageDC, storagePod := 0, 1
	if cfg.CrossDC {
		storageDC, storagePod = 1, 0
	}
	storageHost := func(i int) *simnet.Host {
		rack := i / cfg.Fabric.HostsPerRack
		return fab.Host(storageDC, storagePod, rack, i%cfg.Fabric.HostsPerRack)
	}
	var chunkAddrs []uint32
	for i := 0; i < cfg.ChunkServers; i++ {
		host := storageHost(cfg.BlockServers + i)
		heng := host.Engine()
		cores := sim.NewServer(heng, fmt.Sprintf("chunk%d-cpu", i), cfg.StorageCores)
		cs := chunkserver.New(heng, fmt.Sprintf("chunk%d", i), cfg.SSD)
		bn := c.newStack(c.bnKind(), host, cores, nil)
		chunkserver.NewService(heng, cs, bn)
		c.chunks = append(c.chunks, &StorageServer{Host: host, Cores: cores, Chunk: cs})
		chunkAddrs = append(chunkAddrs, host.Addr())
	}

	for i := 0; i < cfg.BlockServers && !cfg.Edge; i++ {
		host := storageHost(i)
		heng := host.Engine()
		cores := sim.NewServer(heng, fmt.Sprintf("block%d-cpu", i), cfg.StorageCores)
		var fnStack transport.Stack
		var bnClient transport.Client
		if c.bnKind() == cfg.FN {
			// Same stack serves FN and speaks BN (the kernel era).
			st := c.newStack(cfg.FN, host, cores, nil)
			fnStack, bnClient = st, st
		} else {
			mux := simnet.NewMux(host)
			fn := c.newStack(cfg.FN, host, cores, nil)
			bn := c.newStack(c.bnKind(), host, cores, nil)
			c.routeMux(mux, cfg.FN, fn)
			c.routeMux(mux, c.bnKind(), bn)
			fnStack, bnClient = fn, bn
		}
		bs, err := blockserver.New(heng, fmt.Sprintf("block%d", i), fnStack, bnClient,
			chunkAddrs, cores, blockserver.DefaultParams())
		if err != nil {
			panic(err)
		}
		c.blocks = append(c.blocks, &StorageServer{Host: host, Cores: cores, Block: bs, FN: fnStack})
	}

	// Compute servers.
	for i := 0; i < cfg.ComputeServers; i++ {
		rack := i / cfg.Fabric.HostsPerRack
		host := fab.Host(0, computePod, rack, i%cfg.Fabric.HostsPerRack)
		heng := host.Engine()
		var card *dpu.DPU
		var cores *sim.Server
		if cfg.BareMetal || cfg.Edge {
			card = dpu.New(heng, cfg.DPU)
			cores = card.CPU
		} else {
			cores = sim.NewServer(heng, fmt.Sprintf("compute%d-stack", i), cfg.StackCores)
		}

		if cfg.Edge {
			// §4.8 integrated mode: SA → in-card handover → local block
			// server → BN replication to the chunk servers.
			lo := transport.NewLoopback(func(d time.Duration, fn func()) {
				heng.Schedule(d, fn)
			}, 2*time.Microsecond, host.Addr())
			bn := c.newStack(RDMA, host, cores, nil)
			bs, err := blockserver.New(heng, fmt.Sprintf("edge-block%d", i), lo, bn,
				chunkAddrs, cores, blockserver.DefaultParams())
			if err != nil {
				panic(err)
			}
			saParams := sa.OffloadedParams()
			saParams.Encrypted = cfg.Encrypted
			agent := sa.New(heng, cores, lo, c.segs, saParams)
			agent.SetCollector(c.collectors[host.PartIndex()])
			c.computes = append(c.computes, &ComputeServer{
				Host: host, Cores: cores, DPU: card, Stack: lo, Agent: agent,
			})
			c.blocks = append(c.blocks, &StorageServer{Host: host, Cores: cores, Block: bs, FN: lo})
			continue
		}

		stack := c.newStack(cfg.FN, host, cores, card)
		saParams := sa.SoftwareParams()
		if cfg.FN == Solar || cfg.FN == SolarStar {
			saParams = sa.OffloadedParams()
		}
		saParams.Encrypted = cfg.Encrypted
		agent := sa.New(heng, cores, stack, c.segs, saParams)
		agent.SetCollector(c.collectors[host.PartIndex()])
		c.computes = append(c.computes, &ComputeServer{
			Host: host, Cores: cores, DPU: card, Stack: stack, Agent: agent,
		})
	}
	return c
}

// mixSeed derives partition i's engine seed: partition 0 keeps the
// configured seed (so a one-partition cluster is bit-identical to the
// serial construction), and higher partitions fan out through a golden-
// ratio stride.
func mixSeed(seed int64, i int) int64 {
	return seed + int64(i)*0x1f3a8d2c9b47e681
}

// bnKind is the backend-network stack of the cluster's era.
func (c *Cluster) bnKind() StackKind {
	if c.cfg.FN == KernelTCP {
		return KernelTCP
	}
	return RDMA
}

// newStack constructs one endpoint of the given kind on host, scheduled on
// the engine owning the host's partition.
func (c *Cluster) newStack(kind StackKind, host *simnet.Host, cores *sim.Server, card *dpu.DPU) transport.Stack {
	eng := host.Engine()
	var pcie *sim.Channel
	if card != nil {
		pcie = card.PCIe
	}
	switch kind {
	case KernelTCP:
		return tcpstack.New(eng, host, cores, pcie, KernelStackParams())
	case Luna:
		return tcpstack.New(eng, host, cores, pcie, LunaStackParams())
	case RDMA:
		p := RDMAStackParams()
		p.CC = c.cfg.CC
		return rdma.New(eng, host, cores, pcie, p)
	case Solar, SolarStar:
		if card != nil {
			p := SolarStackParams(kind, c.cfg.Encrypted)
			if c.cfg.SolarOverride != nil {
				p = *c.cfg.SolarOverride
				p.Mode = SolarStackParams(kind, c.cfg.Encrypted).Mode
				p.Encrypted = c.cfg.Encrypted
			}
			return core.New(eng, host, cores, card, p)
		}
		return core.New(eng, host, cores, nil, core.ServerParams())
	}
	panic("ebs: unknown stack kind")
}

// routeMux registers a stack's receiver under its wire protocol.
func (c *Cluster) routeMux(mux *simnet.Mux, kind StackKind, st transport.Stack) {
	switch s := st.(type) {
	case *tcpstack.Stack:
		mux.Handle(6, s.ReceivePacket) // wire.ProtoTCP
	case *rdma.Stack:
		mux.Handle(rdma.Proto, s.ReceivePacket)
	case *core.Stack:
		mux.Handle(17, s.ReceivePacket) // wire.ProtoUDP
	default:
		panic("ebs: unroutable stack")
	}
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Compute returns compute server i.
func (c *Cluster) Compute(i int) *ComputeServer { return c.computes[i] }

// Computes returns the number of compute servers.
func (c *Cluster) Computes() int { return len(c.computes) }

// BlockServerAddrs returns the fabric addresses of all block servers.
func (c *Cluster) BlockServerAddrs() []uint32 {
	out := make([]uint32, len(c.blocks))
	for i, b := range c.blocks {
		out[i] = b.Host.Addr()
	}
	return out
}

// SegmentRefs returns a copy of a vdisk's current segment placements in
// stripe order (empty when the vdisk is unknown or segmentless).
func (c *Cluster) SegmentRefs(vdisk uint32) []sa.SegmentRef { return c.segs.Refs(vdisk) }

// Chunks returns the chunk-server nodes (for SSD stats).
func (c *Cluster) Chunks() []*StorageServer { return c.chunks }

// Blocks returns the block-server nodes.
func (c *Cluster) Blocks() []*StorageServer { return c.blocks }

// Collector returns the cluster-wide trace collector. Coupled clusters
// keep one collector per partition; the view returned here merges them in
// partition order, so aggregates are identical for every worker count.
//
//lint:barrier — merged view is read between runs, after the final barrier
func (c *Cluster) Collector() *trace.Collector {
	if len(c.collectors) == 1 {
		return c.collectors[0]
	}
	merged := trace.NewCollector()
	for _, col := range c.collectors {
		merged.Merge(col)
	}
	return merged
}

// Engines returns the per-partition engines (one entry for serial
// clusters). Benchmark harnesses sum processed-event counts across them.
func (c *Cluster) Engines() []*sim.Engine { return c.engines }

// Run drains all pending events — through the coupled runner's
// barrier-synchronized windows when the cluster is partitioned, serially
// otherwise.
//
//lint:barrier — top-level driver: owns the engines until it returns
func (c *Cluster) Run() {
	if c.coupled != nil {
		c.coupled.Run()
		return
	}
	c.Eng.Run()
}

// Leaked reports pooled packets, slab references and records (every
// sim.Pool bound to one of the engines) checked out with no event left that
// could return them — a leak in some stack's packet or job handling. A
// cluster stopped mid-run (RunFor with I/O still in flight) legitimately
// holds them, and so does one with frames parked in a cross-partition
// mailbox, so the check only applies once every engine has fully drained
// and the inboxes are empty; Leaked returns 0 otherwise.
//
//lint:barrier — post-drain check only, per the contract above
func (c *Cluster) Leaked() int {
	for _, eng := range c.engines {
		if eng.Pending() != 0 {
			return 0
		}
	}
	if c.Fabric.InboxPending() != 0 {
		return 0
	}
	n := int(c.Fabric.OutstandingAll())
	for _, eng := range c.engines {
		n += eng.PoolOutstanding()
	}
	return n
}

// RunFor advances virtual time by d.
//
//lint:barrier — top-level driver: owns the engines until it returns
func (c *Cluster) RunFor(d time.Duration) {
	if c.coupled != nil {
		c.coupled.RunUntil(c.Eng.Now().Add(d))
		return
	}
	c.Eng.RunFor(d)
}

// Now returns the current virtual time.
//
//lint:barrier — read by the driving test between runs, not inside a window
func (c *Cluster) Now() time.Duration { return c.Eng.Now().Duration() }
