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
//     tables, CRC and SEC engines, DMA), bypassing the card's CPU and
//     internal PCIe (Fig. 10c), while the CPU retains only path selection,
//     congestion control, and the software CRC *aggregation* that guards
//     against FPGA bit flips (Fig. 11).
package core

import (
	"time"

	"lunasolar/internal/dpu"
	"lunasolar/internal/seccrypto"
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

// Params is the Solar cost and protocol model.
type Params struct {
	Mode     Mode
	NumPaths int // persistent paths per peer ("e.g., 4", §4.5)

	MinRTO, MaxRTO    time.Duration
	PathFailThreshold int // consecutive timeouts that fail a path

	InitCwnd, MaxCwnd int           // per-path HPCC window bounds, bytes
	BaseRTT           time.Duration // uncongested fabric RTT for HPCC

	// ProbeInterval, when non-zero, enables proactive path probing (§4.5's
	// stated future work: "make the path selection more explicit with INT
	// probing"): idle paths receive periodic probe packets whose ACKs echo
	// INT, keeping RTT estimates fresh and detecting blackholes before any
	// I/O has to suffer them. Probe timeouts count toward path failover.
	ProbeInterval time.Duration

	// CPU costs (charged to the DPU CPU in Offloaded/CPUPath modes, or the
	// storage host's cores in StorageServer mode).
	PerRPCIssueCPU time.Duration // QoS poll + RPC issue + path selection
	PerAckCPU      time.Duration // Path&CC update + bookkeeping per ACK
	PerRPCDoneCPU  time.Duration // completion, doorbell to guest
	PerBlockCPU    time.Duration // per-block header work (CPUPath/server)
	SoftCRCPer4K   time.Duration // full software CRC (CPUPath, fallbacks)
	AggXORPer4K    time.Duration // XOR-accumulate per block (the cheap
	// software side of CRC aggregation)

	Encrypted bool
}

// DefaultParams returns the Solar client model (Offloaded).
func DefaultParams() Params {
	return Params{
		Mode:              Offloaded,
		NumPaths:          4,
		MinRTO:            500 * time.Microsecond,
		MaxRTO:            20 * time.Millisecond, // aggressive: duplicates are idempotent, hangs are the enemy
		PathFailThreshold: 3,
		InitCwnd:          128 << 10,
		MaxCwnd:           1 << 20,
		BaseRTT:           12 * time.Microsecond,
		PerRPCIssueCPU:    1200 * time.Nanosecond,
		PerAckCPU:         1400 * time.Nanosecond,
		PerRPCDoneCPU:     1000 * time.Nanosecond,
		PerBlockCPU:       300 * time.Nanosecond,
		SoftCRCPer4K:      1600 * time.Nanosecond,
		AggXORPer4K:       250 * time.Nanosecond,
	}
}

// ServerParams returns the storage-server-side model.
func ServerParams() Params {
	p := DefaultParams()
	p.Mode = StorageServer
	p.PerRPCIssueCPU = 800 * time.Nanosecond
	p.PerAckCPU = 600 * time.Nanosecond
	p.PerRPCDoneCPU = 500 * time.Nanosecond
	p.PerBlockCPU = 700 * time.Nanosecond
	return p
}

// Stack is one Solar endpoint. It implements transport.Stack.
type Stack struct {
	eng    *sim.Engine
	host   *simnet.Host
	cores  *sim.Server
	card   *dpu.DPU // nil in StorageServer mode
	params Params

	handler transport.Handler
	peers   map[uint32]*peer
	ids     transport.IDAlloc
	ciphers map[uint32]*seccrypto.BlockCipher // SEC engine keys, per vdisk

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
	Probes        uint64
	Retransmits   uint64
	PathFailovers uint64
	IntegrityHits uint64 // corruptions caught by software aggregation
	AdmissionWait time.Duration

	// rec is the flight recorder (see trace.Recorder).
	rec trace.Recorder
}

// New attaches a Solar endpoint to a host. cores is the CPU pool charged
// for control-path work; card supplies the FPGA pipeline, PCIe channel and
// fault model (nil for StorageServer mode).
func New(eng *sim.Engine, host *simnet.Host, cores *sim.Server, card *dpu.DPU, params Params) *Stack {
	if params.NumPaths <= 0 {
		params.NumPaths = 4
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
		peers:      map[uint32]*peer{},
		ciphers:    map[uint32]*seccrypto.BlockCipher{},
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
		host.Handler = s.ReceivePacket
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

// AddrTableInUse returns current Addr-table occupancy (tests).
func (s *Stack) AddrTableInUse() int { return s.addrInUse }

// SetCipher loads a per-disk key into the SEC engine. With Params.Encrypted
// set, write blocks are AES-CTR-encrypted on their way through the pipeline
// and read blocks are decrypted before the DMA into guest memory; counters
// derive from (segment, LBA) so every block remains independently
// decryptable in any arrival order.
func (s *Stack) SetCipher(vdisk uint32, c *seccrypto.BlockCipher) { s.ciphers[vdisk] = c }

// allocPort hands out a fresh ephemeral source port for a path.
func (s *Stack) allocPort() uint16 {
	s.nextEphem++
	if s.nextEphem < 30000 {
		s.nextEphem = 30000
	}
	return s.nextEphem
}

var _ transport.Stack = (*Stack)(nil)
