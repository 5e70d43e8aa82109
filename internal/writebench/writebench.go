// Package writebench is the shared harness behind BenchmarkWritePath4K, the
// zero-copy tests and the benchmark's core layer rig: a minimal two-host
// Solar write path (DPU
// client on one host, storage-server stack on the other, a no-op block
// service) that isolates the per-block data path the zero-copy work targets
// — SA ingress, one-touch CRC, scatter-gather framing, fabric transit, and
// receive-side materialisation — from replication and store costs. NewBNRig
// is its backend-network twin: an RDMA client into a chunk-server service,
// the half of a write that runs three times per I/O under every FN stack.
// NewLunaRig is the FN half of the host-side stacks: tcpstack into tcpstack.
//
// The harness deliberately allocates nothing per write in steady state:
// the request message, payload buffer and completion callback are all owned
// by the Rig, so testing.AllocsPerRun and pool-miss deltas measure the
// stack, not the driver.
package writebench

import (
	"fmt"
	"time"

	"lunasolar/internal/chunkserver"
	"lunasolar/internal/core"
	"lunasolar/internal/crc"
	"lunasolar/internal/dpu"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Rig is a two-host cluster driving 4 KiB writes client → server.
type Rig struct {
	Eng    *sim.Engine
	Pool   *simnet.PacketPool
	client transport.Client
	dst    uint32
	lbas   int // WriteOne cycles over this many block addresses

	payload   []byte
	msg       transport.Message
	onDone    func(*transport.Response)
	completed int
	failed    int
	issued    int
}

var emptyResp transport.Response

// NewRig builds the two-host write path. The client runs the full Offloaded
// (Solar) mode — FPGA CRC engine, per-block framing — against a
// storage-server stack whose handler acknowledges immediately.
func NewRig(seed int64) *Rig {
	eng, fab := newFabric(seed)

	dcfg := dpu.DefaultConfig()
	dcfg.Faults = dpu.FaultRates{}
	card := dpu.New(eng, dcfg)

	cp := core.DefaultParams()
	cp.Mode = core.Offloaded
	client := core.New(eng, fab.Host(0, 0, 0, 0), card.CPU, card, cp)
	server := core.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "storage-cpu", 16), nil, core.ServerParams())
	server.SetHandler(ackAtOnce)

	return newRig(eng, fab, client, server.LocalAddr(), 4096)
}

// NewLunaRig builds the same write path over tcpstack — the host-side FN
// stack, Luna or the kernel baseline depending on params — into a server
// whose handler acknowledges immediately.
func NewLunaRig(seed int64, params tcpstack.Params) *Rig {
	eng, fab := newFabric(seed)
	client := tcpstack.New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "client-cpu", 4), nil, params)
	server := tcpstack.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "server-cpu", 16), nil, params)
	server.SetHandler(ackAtOnce)
	return newRig(eng, fab, client, server.LocalAddr(), 4096)
}

func ackAtOnce(src uint32, req *transport.Message, reply func(*transport.Response)) {
	reply(&emptyResp)
}

// NewBNRig builds the backend-network write path: an RDMA client on one
// host, and on the other an RDMA endpoint serving a chunk server — the
// stack pair and service every block-server replica write crosses. Each
// write carries its block CRC, as every BN write does.
func NewBNRig(seed int64) *Rig {
	eng, fab := newFabric(seed)
	client := rdma.New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "block-cpu", 4), nil, rdma.DefaultParams())
	server := rdma.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "chunk-cpu", 16), nil, rdma.DefaultParams())
	chunkserver.NewService(eng, chunkserver.New(eng, "rig", chunkserver.DefaultSSD()), server)
	r := newRig(eng, fab, client, server.LocalAddr(), 1024)
	r.msg.BlockCRCs = []uint32{crc.Raw(r.payload)}
	return r
}

func newFabric(seed int64) (*sim.Engine, *simnet.Fabric) {
	eng := sim.NewEngine(seed)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	return eng, simnet.New(eng, cfg)
}

func newRig(eng *sim.Engine, fab *simnet.Fabric, client transport.Client, dst uint32, lbas int) *Rig {
	r := &Rig{Eng: eng, Pool: fab.Pool(), client: client, dst: dst, lbas: lbas}
	r.payload = make([]byte, wire.BlockSize)
	for i := range r.payload {
		r.payload[i] = byte(i * 13)
	}
	r.msg = transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: r.payload}
	r.onDone = func(resp *transport.Response) {
		r.completed++
		if resp.Err != nil {
			r.failed++
		}
	}
	return r
}

// WriteOne issues a single 4 KiB write and runs the engine until the
// cluster is idle (the write acknowledged, every timer drained).
func (r *Rig) WriteOne() {
	r.issued++
	r.msg.LBA = uint64(r.issued%r.lbas) << 12
	r.client.Call(r.dst, &r.msg, r.onDone)
	r.Eng.Run()
}

// Warm writes every block address of the rig once, and a few more, so the
// measured writes that follow are overwrites on warm pools.
func (r *Rig) Warm() {
	for i := 0; i < r.lbas+64; i++ {
		r.WriteOne()
	}
}

// Check verifies every issued write completed and no pooled packet, slab
// reference or record leaked; it returns an error describing the first
// violation.
func (r *Rig) Check() error {
	if r.completed != r.issued || r.failed != 0 {
		return fmt.Errorf("writebench: %d of %d writes completed, %d with an error", r.completed, r.issued, r.failed)
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
