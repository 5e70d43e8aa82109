// Package core implements Solar, the paper's primary contribution: a
// storage-oriented reliable-UDP stack built on the one-block-one-packet
// principle. Every data packet is a self-contained 4 KiB storage block
// carrying its own EBS header (opcode, virtual-disk addressing, per-block
// CRC), so:
//
//   - the receiver commits each packet independently — no receive buffers,
//     no connection state machine, no packet↔block mapping (§4.4);
//   - reordering is free, which makes large-scale multi-path transport
//     natural: each peer has several persistent paths (UDP source port =
//     path ID under fabric ECMP), per-packet ACKs carry echoed INT for
//     per-path HPCC congestion control, loss is recovered by selective
//     per-packet retransmission, and consecutive timeouts fail a path over
//     to a fresh source port in well under a second (§4.5, Table 2);
//   - the whole data path runs in the DPU's FPGA pipeline (QoS/Block/Addr
//     tables, CRC engine, DMA), bypassing the card's CPU and
//     internal PCIe (Fig. 10c), while the CPU retains only path selection,
//     congestion control, and the software CRC *aggregation* that guards
//     against FPGA bit flips (Fig. 11).
package core

import (
	"time"

	"lunasolar/internal/dpu"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
)

// ListenPort is Solar's well-known UDP service port.
const ListenPort = 7010

// Mode selects where the data path runs.
type Mode int

// Data-path placements.
const (
	// Offloaded is full Solar: blocks flow through the FPGA pipeline; the
	// CPU touches headers only.
	Offloaded Mode = iota
	// CPUPath is "Solar*" in the evaluation: the Solar protocol with data-
	// plane offload disabled — every block crosses the internal PCIe twice
	// and is checksummed/copied by the DPU CPU.
	CPUPath
	// StorageServer is the block-server side: plain host software, no DPU.
	StorageServer
)

// Ack flag bits carried in the RPC header of acknowledgment packets.
const (
	AckFlagDurable = 1 << 0 // write block persisted (Fig. 12's WRITE response)
	AckFlagError   = 1 << 1 // the server failed the block: rebuilt if damaged, else the write fails
	// AckFlagReject: the serving handler refused the request because it no
	// longer owns the segment (migration cutover raced the I/O). Terminal
	// for the RPC — retransmitting would loop forever against a server
	// that will never accept; the client surfaces transport.ErrNotOwner so
	// the SA can re-resolve the segment and retry against the new owner.
	AckFlagReject = 1 << 2
)

// Params is the Solar client or server model. Mode is its one setting: the
// protocol constants below are the same at every placement, and the
// control-path CPU costs follow from where the stack runs (Mode.costs).
type Params struct {
	Mode Mode
}

// The Solar protocol and software-CRC model.
const (
	numPaths int = 4 // persistent paths per peer ("e.g., 4", §4.5)

	minRTO            time.Duration = 500 * time.Microsecond
	maxRTO            time.Duration = 20 * time.Millisecond // aggressive: duplicates are idempotent, hangs are the enemy
	pathFailThreshold int           = 3                     // consecutive timeouts that fail a path

	// Per-path HPCC window bounds, bytes, and the uncongested fabric RTT.
	initCwnd int           = 128 << 10
	maxCwnd  int           = 1 << 20
	baseRTT  time.Duration = 12 * time.Microsecond

	softCRCPer4K time.Duration = 1600 * time.Nanosecond // full software CRC (CPUPath, fallbacks)
	// aggXORPer4K is the XOR-accumulate per block: the cheap software side
	// of CRC aggregation.
	aggXORPer4K time.Duration = 250 * time.Nanosecond
)

// cpuCosts are the control-path CPU costs of one placement, charged to the
// DPU CPU in Offloaded/CPUPath modes or to the storage host's cores in
// StorageServer mode.
type cpuCosts struct {
	rpcIssue time.Duration // QoS poll + RPC issue + path selection
	ack      time.Duration // Path&CC update + bookkeeping per ACK
	rpcDone  time.Duration // completion, doorbell to guest
	block    time.Duration // per-block header work (CPUPath/server)
}

// costs returns the CPU costs of placement m: the storage server's plain
// host software, or the DPU CPU both client modes share.
func (m Mode) costs() cpuCosts {
	if m == StorageServer {
		return cpuCosts{
			rpcIssue: 800 * time.Nanosecond,
			ack:      600 * time.Nanosecond,
			rpcDone:  500 * time.Nanosecond,
			block:    700 * time.Nanosecond,
		}
	}
	return cpuCosts{
		rpcIssue: 1200 * time.Nanosecond,
		ack:      1400 * time.Nanosecond,
		rpcDone:  1000 * time.Nanosecond,
		block:    300 * time.Nanosecond,
	}
}

// DefaultParams returns the Solar client model (Offloaded).
func DefaultParams() Params { return Params{Mode: Offloaded} }

// ServerParams returns the storage-server-side model.
func ServerParams() Params { return Params{Mode: StorageServer} }

// Stack is one Solar endpoint. It implements transport.Stack.
type Stack struct {
	eng    *sim.Engine
	host   *simnet.Host
	cores  *sim.Server
	card   *dpu.DPU // nil in StorageServer mode
	params Params
	cpu    cpuCosts // params.Mode.costs()

	handler transport.Handler
	peers   map[uint32]*peer
	ids     transport.IDAlloc

	// Hot-path free lists (see pool.go). All are engine-owned: one stack,
	// one engine, one goroutine at a time.
	pool        *simnet.PacketPool
	freeRPCs    *sim.Pool[rpc]
	freeServes  *sim.Pool[serve]
	freePkts    *sim.Pool[outPkt]
	freeTx      *sim.Pool[wireTx]
	freeCommits *sim.Pool[commitJob]
	freeAckJobs *sim.Pool[ackJob]

	rpcs   map[uint64]*rpc     // client RPCs in flight, by RPC ID
	serves map[serveKey]*serve // reads we are answering, until each block is acked
	out    map[outKey]*outPkt  // every unacknowledged packet, by peer+ids

	// Addr table occupancy (the FPGA table that maps (RPC,pkt) to guest
	// memory for inbound read blocks). Bounded; reads queue when full.
	addrInUse  int
	addrCap    int
	addrQueue  []addrWaiter
	nextEphem  uint16
	randomizer *sim.Rand

	// Scratch policy for the FPGA CRC engine: the block under the engine
	// aliases trusted shared memory and a datapath fault must not corrupt
	// the guest's bytes, so it is materialised into a private pooled
	// slab. crcScratchFn is allocated once here; the slab it produced (if
	// any) is parked in crcScratchSlab for the caller to adopt or release.
	crcScratchFn   func([]byte) []byte
	crcScratchSlab *simnet.Slab

	// Stats.
	Retransmits   uint64
	PathFailovers uint64
	IntegrityHits uint64 // corruptions caught by software aggregation
	AdmissionWait time.Duration

	// rec is the flight recorder (see trace.Recorder).
	rec trace.Recorder
}

// New attaches a Solar endpoint to a host. cores is the CPU pool charged
// for control-path work; card supplies the FPGA pipeline, PCIe channel and
// fault model. A card goes with Offloaded and CPUPath and nil with
// StorageServer; New panics on any other pairing, so the data path reads its
// placement from Mode alone.
func New(eng *sim.Engine, host *simnet.Host, cores *sim.Server, card *dpu.DPU, params Params) *Stack {
	if (card == nil) != (params.Mode == StorageServer) {
		panic("core: a DPU card goes with Offloaded or CPUPath mode, nil with StorageServer")
	}
	addrCap := 1 << 20
	if card != nil {
		addrCap = card.Cfg.MaxAddrEntries
	}
	s := &Stack{
		eng:        eng,
		host:       host,
		cores:      cores,
		card:       card,
		params:     params,
		cpu:        params.Mode.costs(),
		peers:      map[uint32]*peer{},
		rpcs:       map[uint64]*rpc{},
		serves:     map[serveKey]*serve{},
		out:        map[outKey]*outPkt{},
		addrCap:    addrCap,
		nextEphem:  30000,
		randomizer: eng.Rand.Fork(),
		pool:       host.PacketPool(),

		freeRPCs:    sim.NewPool[rpc](eng),
		freeServes:  sim.NewPool[serve](eng),
		freePkts:    sim.NewPool[outPkt](eng),
		freeTx:      sim.NewPool[wireTx](eng),
		freeCommits: sim.NewPool[commitJob](eng),
		freeAckJobs: sim.NewPool[ackJob](eng),
	}
	s.crcScratchFn = s.crcScratch
	if host.Handler == nil {
		host.Handler = s.receivePacket
	}
	return s
}

// crcScratch materialises a private pooled copy of src for the DPU's
// datapath-corruption fault (see Stack.crcScratchFn).
func (s *Stack) crcScratch(src []byte) []byte {
	sl := s.pool.GetSlab(len(src))
	b := sl.Bytes()
	copy(b, src)
	s.pool.CountCopy(len(src))
	s.crcScratchSlab = sl
	return b
}

// LocalAddr returns the host's fabric address.
func (s *Stack) LocalAddr() uint32 { return s.host.Addr() }

// SetHandler installs the server-side per-block request handler. Solar
// invokes it once per arriving block (writes) or once per read request —
// blocks are self-contained, so no request assembly happens in the stack.
func (s *Stack) SetHandler(h transport.Handler) { s.handler = h }

// Pool returns the host packet pool the stack draws its buffers from.
func (s *Stack) Pool() *simnet.PacketPool { return s.pool }

// allocPort hands out a fresh ephemeral source port for a path.
func (s *Stack) allocPort() uint16 {
	s.nextEphem++
	if s.nextEphem < 30000 {
		s.nextEphem = 30000
	}
	return s.nextEphem
}

var _ transport.Stack = (*Stack)(nil)
