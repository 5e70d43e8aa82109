// Package writebench is the shared harness behind BenchmarkWritePath4K, the
// zero-copy tests and the benchmark's core layer rig: a minimal two-host
// Solar write path (DPU
// client on one host, storage-server stack on the other, a no-op block
// service) that isolates the per-block data path the zero-copy work targets
// — SA ingress, one-touch CRC, scatter-gather framing, fabric transit, and
// receive-side materialisation — from replication and store costs. NewBNRig
// is its backend-network twin: an RDMA client into a chunk-server service,
// the half of a write that runs three times per I/O under every FN stack.
// NewBlockServerRig joins the two: an RDMA client into a block server that
// replicates over the BN into three chunk-server services. NewLunaRig is the
// FN half of the host-side stacks: tcpstack into tcpstack. WithAgent puts a
// storage agent in front of a rig's client, so its I/Os start as guest
// I/Os, the way every cluster I/O does. ReadOne drives each rig's read path
// the same way: the Solar and Luna servers answer every read with the rig's
// own block, and the chunk stores hold it once Warm has written it. Every
// rig runs 4 KiB I/Os unless SetSize gives it another size (the 64 KiB
// gates).
//
// The harness deliberately allocates nothing per I/O in steady state: the
// request messages, payload buffer, read response and completion callback
// are all owned by the Rig, so testing.AllocsPerRun and pool-miss deltas
// measure the stack, not the harness.
package writebench

import (
	"bytes"
	"fmt"
	"time"

	"lunasolar/internal/blockserver"
	"lunasolar/internal/chunkserver"
	"lunasolar/internal/core"
	"lunasolar/internal/crc"
	"lunasolar/internal/dpu"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sa"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Rig is a two-host cluster driving I/Os of one size — 4 KiB unless
// SetSize changes it — client → server.
type Rig struct {
	Eng    *sim.Engine
	Pool   *simnet.PacketPool
	client transport.Client
	dst    uint32
	lbas   int  // WriteOne and ReadOne cycle over this many I/O-sized addresses
	crcs   bool // writes carry their per-block CRCs, as every BN write does

	payload   []byte
	msg       transport.Message // the write request
	rmsg      transport.Message // the read request
	readResp  transport.Response
	onDone    func(*transport.Response)
	onRead    func(*transport.Response)
	agent     *sa.Agent // nil: I/Os call the client directly
	onIO      func(sa.Result)
	onIORead  func(sa.Result)
	completed int
	failed    int
	issued    int
}

var emptyResp transport.Response

// NewRig builds the two-host Solar path. The client runs the full Offloaded
// mode — FPGA CRC engine, per-block framing — against a storage-server
// stack whose handler acknowledges a write, or answers a read, at once.
func NewRig(seed int64) *Rig {
	eng, fab := newFabric(seed, 2)

	dcfg := dpu.DefaultConfig()
	dcfg.Faults = dpu.FaultRates{}
	card := dpu.New(eng, dcfg)

	client := core.New(eng, fab.Host(0, 0, 0, 0), card.CPU, card, core.DefaultParams())
	server := core.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "storage-cpu", 16), nil, core.ServerParams())
	r := newRig(eng, fab, client, server.LocalAddr(), 4096, false)
	server.SetHandler(r.serve)
	return r
}

// NewLunaRig builds the same write path over tcpstack — the host-side FN
// stack, Luna or the kernel baseline depending on params — into a server
// whose handler acknowledges immediately.
func NewLunaRig(seed int64, params tcpstack.Params) *Rig {
	eng, fab := newFabric(seed, 2)
	client := tcpstack.New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "client-cpu", 4), nil, params)
	server := tcpstack.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "server-cpu", 16), nil, params)
	r := newRig(eng, fab, client, server.LocalAddr(), 4096, false)
	server.SetHandler(r.serve)
	return r
}

// serve acknowledges a write at once and answers a read with the rig's
// block.
func (r *Rig) serve(src uint32, req *transport.Message, reply func(*transport.Response)) {
	if req.Op == wire.RPCReadReq {
		reply(&r.readResp)
		return
	}
	reply(&emptyResp)
}

// NewBNRig builds the backend-network write path: an RDMA client on one
// host, and on the other an RDMA endpoint serving a chunk server — the
// stack pair and service every block-server replica write crosses. Each
// write carries its block CRC, as every BN write does.
func NewBNRig(seed int64) *Rig {
	eng, fab := newFabric(seed, 2)
	client := rdma.New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "block-cpu", 4), nil, rdma.DefaultParams())
	server := rdma.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "chunk-cpu", 16), nil, rdma.DefaultParams())
	chunkserver.NewService(eng, chunkserver.New(eng, "rig", chunkserver.DefaultSSD()), server)
	return newRig(eng, fab, client, server.LocalAddr(), 1024, true)
}

// NewBlockServerRig builds the whole storage-server side of an I/O: an RDMA
// FN client into a block server that fans each write out over an RDMA BN to
// three chunk-server services and reads from the primary. Each write
// carries its block CRC, so every replica's commit fold is cross-checked.
func NewBlockServerRig(seed int64) *Rig {
	eng, fab := newFabric(seed, 4)
	var chunks []uint32
	for i := 0; i < blockserver.Replicas; i++ {
		host := fab.Host(0, 1, 1, i)
		bn := rdma.New(eng, host, sim.NewServer(eng, "chunk-cpu", 8), nil, rdma.DefaultParams())
		chunkserver.NewService(eng, chunkserver.New(eng, "rig", chunkserver.DefaultSSD()), bn)
		chunks = append(chunks, host.Addr())
	}
	// One RDMA stack is the block server's FN endpoint and its BN client.
	host, cores := fab.Host(0, 1, 0, 0), sim.NewServer(eng, "block-cpu", 8)
	stack := rdma.New(eng, host, cores, nil, rdma.DefaultParams())
	if _, err := blockserver.New(eng, "rig", stack, stack, chunks, cores, blockserver.DefaultParams()); err != nil {
		panic(err) // fixed arguments: only a bug can fail this
	}
	client := rdma.New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "client-cpu", 4), nil, rdma.DefaultParams())
	return newRig(eng, fab, client, host.Addr(), 1024, true)
}

func newFabric(seed int64, hostsPerRack int) (*sim.Engine, *simnet.Fabric) {
	eng := sim.NewEngine(seed)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = hostsPerRack
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	return eng, simnet.New(eng, cfg)
}

func newRig(eng *sim.Engine, fab *simnet.Fabric, client transport.Client, dst uint32, lbas int, crcs bool) *Rig {
	r := &Rig{Eng: eng, Pool: fab.Pool(), client: client, dst: dst, lbas: lbas, crcs: crcs}
	r.msg = transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1}
	r.rmsg = transport.Message{Op: wire.RPCReadReq, VDisk: 1, SegmentID: 1, Gen: 1}
	r.SetSize(wire.BlockSize)
	r.onDone = func(resp *transport.Response) {
		r.completed++
		if resp.Err != nil {
			r.failed++
		}
	}
	r.onRead = func(resp *transport.Response) {
		r.completed++
		if resp.Err != nil || !bytes.Equal(resp.Data, r.payload) {
			r.failed++
		}
	}
	return r
}

// SetSize makes the rig's I/Os n bytes, at addresses n bytes apart. The
// address cycle shrinks as n grows, so a rig's stores never hold more than
// at 4 KiB. Call it before Warm.
func (r *Rig) SetSize(n int) {
	if r.payload != nil {
		r.lbas = max(1, r.lbas*len(r.payload)/n)
	}
	r.payload = make([]byte, n)
	for i := range r.payload {
		r.payload[i] = byte(i * 13)
	}
	r.msg.Data = r.payload
	r.msg.BlockCRCs = nil
	if r.crcs {
		r.msg.BlockCRCs = make([]uint32, wire.Blocks(n))
		for i := range r.msg.BlockCRCs {
			lo := i * wire.BlockSize
			r.msg.BlockCRCs[i] = crc.Raw(r.payload[lo:min(lo+wire.BlockSize, n)])
		}
	}
	r.rmsg.ReadLen = n
	r.readResp = transport.Response{Data: r.payload}
}

// rigDisk is the one virtual disk WithAgent provisions.
const rigDisk = 1

// WithAgent puts a storage agent with the given cost model, on cores of its
// own, in front of the rig's client: WriteOne and ReadOne then issue guest
// I/Os on one virtual disk whose segments all live on the rig's server. It
// returns r.
func (r *Rig) WithAgent(params sa.Params) *Rig {
	segs := sa.NewSegmentTable()
	if err := segs.Provision(rigDisk, uint64(r.lbas*len(r.payload)), []uint32{r.dst}); err != nil {
		panic(err) // a fresh table: only a bug can fail this
	}
	r.agent = sa.New(r.Eng, sim.NewServer(r.Eng, "sa-cpu", 4), r.client, segs, params)
	r.onIO = func(res sa.Result) {
		r.completed++
		if res.Err != nil {
			r.failed++
		}
	}
	r.onIORead = func(res sa.Result) {
		r.completed++
		if res.Err != nil || !bytes.Equal(res.Data, r.payload) {
			r.failed++
		}
	}
	return r
}

// WriteOne issues a single write and runs the engine until the cluster is
// idle (the write acknowledged, every timer drained).
func (r *Rig) WriteOne() {
	r.issued++
	r.msg.LBA = uint64(r.issued%r.lbas) * uint64(len(r.payload))
	if r.agent != nil {
		r.agent.Write(rigDisk, r.msg.LBA, r.payload, r.onIO)
	} else {
		r.client.Call(r.dst, &r.msg, r.onDone)
	}
	r.Eng.Run()
}

// ReadOne issues a single read and runs the engine until the cluster is
// idle.
func (r *Rig) ReadOne() {
	r.issued++
	r.rmsg.LBA = uint64(r.issued%r.lbas) * uint64(len(r.payload))
	if r.agent != nil {
		r.agent.Read(rigDisk, r.rmsg.LBA, len(r.payload), r.onIORead)
	} else {
		r.client.Call(r.dst, &r.rmsg, r.onRead)
	}
	r.Eng.Run()
}

// Warm writes every block address of the rig once, and a few more, so the
// measured writes that follow are overwrites on warm pools.
func (r *Rig) Warm() {
	for i := 0; i < r.lbas+64; i++ {
		r.WriteOne()
	}
}

// Check verifies every issued I/O completed — a read with the served block
// — and no pooled packet, slab reference or record leaked; it returns an
// error describing the first violation.
func (r *Rig) Check() error {
	if r.completed != r.issued || r.failed != 0 {
		return fmt.Errorf("writebench: %d of %d I/Os completed, %d failed", r.completed, r.issued, r.failed)
	}
	if n := r.Pool.Outstanding(); n != 0 {
		return fmt.Errorf("writebench: %d pooled packets/slab refs leaked", n)
	}
	if n := r.Eng.PoolOutstanding(); n != 0 {
		return fmt.Errorf("writebench: %d pooled records leaked", n)
	}
	return nil
}

// Stats is a snapshot of the rig's data-path counters.
type Stats struct {
	Copies      uint64 // payload memcpys on the network data path
	CopiedBytes uint64 // payload bytes those memcpys moved
	PoolMisses  uint64 // fresh pool allocations (packets, buffers, slab headers)
	Events      uint64 // engine events processed
	SimTime     time.Duration
}

// Snapshot captures the current counter values; subtract two snapshots to
// attribute work to a window.
func (r *Rig) Snapshot() Stats {
	return Stats{
		Copies:      r.Pool.Copies(),
		CopiedBytes: r.Pool.CopiedBytes(),
		PoolMisses:  r.Pool.News(),
		Events:      r.Eng.Processed(),
		SimTime:     r.Eng.Now().Duration(),
	}
}

// Delta returns the counter movement since an earlier snapshot.
func (s Stats) Delta(from Stats) Stats {
	return Stats{
		Copies:      s.Copies - from.Copies,
		CopiedBytes: s.CopiedBytes - from.CopiedBytes,
		PoolMisses:  s.PoolMisses - from.PoolMisses,
		Events:      s.Events - from.Events,
		SimTime:     s.SimTime - from.SimTime,
	}
}
