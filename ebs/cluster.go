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
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
)

// Compute servers live in (dc 0, pod 0). Storage servers live in pod 1 of
// the same DC, or pod 0 of DC 1 when CrossDC is set — either way frontend
// traffic crosses the fabric's upper tiers.
const computePod = 0

// Cluster is a fully wired EBS deployment on one engine.
type Cluster struct {
	Eng    *sim.Engine
	Fabric *simnet.Fabric
	cfg    Config

	computes []*ComputeServer
	blocks   []*StorageServer
	chunks   []*StorageServer

	segs      *sa.SegmentTable
	collector *trace.Collector
	nextVD    uint32
	ctrlPlane *ControlPlane // lazily built by ControlPlane()
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
func New(cfg Config) *Cluster {
	if cfg.FN.IsSolar() {
		cfg.BareMetal = true
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}

	eng := sim.NewEngine(cfg.Seed)
	fab := simnet.New(eng, cfg.Fabric)
	c := &Cluster{
		Eng:       eng,
		Fabric:    fab,
		cfg:       cfg,
		segs:      sa.NewSegmentTable(),
		collector: trace.NewCollector(),
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
		cores := sim.NewServer(eng, "chunk-cpu", storageCores)
		cs := chunkserver.New(eng, fmt.Sprintf("chunk%d", i), cfg.SSD)
		bn := c.newStack(c.bnKind(), host, cores, nil)
		chunkserver.NewService(eng, cs, bn)
		c.chunks = append(c.chunks, &StorageServer{Host: host, Cores: cores, Chunk: cs})
		chunkAddrs = append(chunkAddrs, host.Addr())
	}

	for i := 0; i < cfg.BlockServers; i++ {
		host := storageHost(i)
		cores := sim.NewServer(eng, "block-cpu", storageCores)
		// The FN stack is built first and claims the host's handler. In the
		// kernel and RDMA eras it also speaks BN; otherwise an RDMA stack
		// joins it and one closure splits the host's frames between them.
		fnStack := c.newStack(cfg.FN, host, cores, nil)
		var bnClient transport.Client = fnStack
		if c.bnKind() != cfg.FN {
			bn := rdma.New(eng, host, cores, nil, RDMAStackParams())
			fnRecv := host.Handler
			host.Handler = func(pkt *simnet.Packet) {
				if pkt.Proto == rdma.Proto {
					bn.ReceivePacket(pkt)
					return
				}
				fnRecv(pkt)
			}
			bnClient = bn
		}
		bs, err := blockserver.New(eng, fmt.Sprintf("block%d", i), fnStack, bnClient,
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
		var card *dpu.DPU
		var cores *sim.Server
		if cfg.BareMetal {
			card = dpu.New(eng, cfg.DPU)
			cores = card.CPU
		} else {
			cores = sim.NewServer(eng, "compute-stack", cfg.StackCores)
		}

		stack := c.newStack(cfg.FN, host, cores, card)
		saParams := sa.SoftwareParams()
		if cfg.FN.IsSolar() {
			saParams = sa.OffloadedParams()
		}
		agent := sa.New(eng, cores, stack, c.segs, saParams)
		agent.SetCollector(c.collector)
		c.computes = append(c.computes, &ComputeServer{
			Host: host, Cores: cores, DPU: card, Stack: stack, Agent: agent,
		})
	}
	return c
}

// bnKind is the backend-network stack of the cluster's era.
func (c *Cluster) bnKind() StackKind {
	if c.cfg.FN == KernelTCP {
		return KernelTCP
	}
	return RDMA
}

// newStack constructs one endpoint of the given kind on host.
func (c *Cluster) newStack(kind StackKind, host *simnet.Host, cores *sim.Server, card *dpu.DPU) transport.Stack {
	eng := c.Eng
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
		return rdma.New(eng, host, cores, pcie, RDMAStackParams())
	case Solar, SolarStar:
		if card != nil {
			return core.New(eng, host, cores, card, SolarStackParams(kind, false))
		}
		return core.New(eng, host, cores, nil, core.ServerParams())
	}
	panic("ebs: unknown stack kind")
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

// Chunks returns the chunk-server nodes (for SSD stats).
func (c *Cluster) Chunks() []*StorageServer { return c.chunks }

// Blocks returns the block-server nodes.
func (c *Cluster) Blocks() []*StorageServer { return c.blocks }

// Collector returns the cluster-wide trace collector.
func (c *Cluster) Collector() *trace.Collector { return c.collector }

// Engines returns the cluster's engine as a one-entry slice. Benchmark
// harnesses sum processed-event counts across it.
func (c *Cluster) Engines() []*sim.Engine { return []*sim.Engine{c.Eng} }

// Run drains all pending events.
func (c *Cluster) Run() { c.Eng.Run() }

// Leaked reports pooled packets, slab references and records (every
// sim.Pool bound to the engine), and chunk-store pages taken for a write
// and neither stored nor returned, checked out with no event left that
// could return them — a leak in some stack's packet or job handling. A
// cluster stopped mid-run (RunFor with I/O still in flight) legitimately
// holds them, so the check only applies once the engine has fully drained;
// Leaked returns 0 otherwise.
func (c *Cluster) Leaked() int {
	if c.Eng.Pending() != 0 {
		return 0
	}
	n := int(c.Fabric.Pool().Outstanding()) + c.Eng.PoolOutstanding()
	for _, cs := range c.chunks {
		n += cs.Chunk.InFlightPages()
	}
	return n
}

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d time.Duration) { c.Eng.RunFor(d) }
