package lunasolar

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"lunasolar/ebs"
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

// A rig is a small cluster that drives one I/O at a time, client → server,
// and runs the engine until it is idle. It owns every request, buffer,
// response and callback it uses, so it allocates nothing per I/O in steady
// state: testing.AllocsPerRun and pool-miss deltas measure the stack, not
// the rig. Every rig runs 4 KiB I/Os unless setSize gives it another size.
type rig struct {
	eng    *sim.Engine
	pool   *simnet.PacketPool
	client transport.Client
	dst    uint32
	lbas   int  // writeOne and readOne cycle over this many I/O-sized addresses
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

// A stackPair builds a client on fab's first compute host and the server it
// calls on the first storage host.
type stackPair func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack)

// stackPairs are the four stacks the envelope contracts hold on: the BN's
// RDMA, the host-side tcpstack under Luna's preset, Solar and the
// in-process Loopback.
var stackPairs = []struct {
	name  string
	build stackPair
}{
	{"rdma", rdmaPair},
	{"tcpstack", tcpstackPair(ebs.LunaStackParams())},
	{"core", solarPair},
	{"loopback", func(eng *sim.Engine, _ *simnet.Fabric) (transport.Client, transport.Stack) {
		l := transport.NewLoopback(func(d time.Duration, fn func()) { eng.Schedule(d, fn) }, time.Microsecond, 7)
		return l, l
	}},
}

func rdmaPair(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
	stack := func(i int) *rdma.Stack {
		return rdma.New(eng, fab.Host(0, i, 0, 0), sim.NewServer(eng, "cpu", 4), nil, rdma.DefaultParams())
	}
	return stack(0), stack(1)
}

func tcpstackPair(params tcpstack.Params) stackPair {
	return func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
		stack := func(i int) *tcpstack.Stack {
			return tcpstack.New(eng, fab.Host(0, i, 0, 0), sim.NewServer(eng, "cpu", 4), nil, params)
		}
		return stack(0), stack(1)
	}
}

// solarPair is a fault-free DPU client in the full Offloaded mode (FPGA
// CRC engine, per-block framing) into a storage-server stack.
func solarPair(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
	dcfg := dpu.DefaultConfig()
	dcfg.Faults = dpu.FaultRates{}
	card := dpu.New(eng, dcfg)
	client := core.New(eng, fab.Host(0, 0, 0, 0), card.CPU, card, core.DefaultParams())
	return client, core.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "cpu", 4), nil, core.ServerParams())
}

// newFabric builds a seed-1 Clos of two-rack pods (compute and storage)
// with hostsPerRack hosts a rack.
func newFabric(hostsPerRack int) (*sim.Engine, *simnet.Fabric) {
	eng := sim.NewEngine(1)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod, cfg.HostsPerRack, cfg.SpinesPerPod, cfg.CoresPerDC = 2, hostsPerRack, 2, 2
	return eng, simnet.New(eng, cfg)
}

// newSolarRig is the Solar FN half: solarPair into a server that
// acknowledges a write, or answers a read, at once.
func newSolarRig() *rig { return newServedRig(solarPair) }

// newLunaRig is the host-side FN half, tcpstack into tcpstack, under Luna's
// or the kernel's preset.
func newLunaRig(params tcpstack.Params) *rig { return newServedRig(tcpstackPair(params)) }

func newServedRig(build stackPair) *rig {
	eng, fab := newFabric(1)
	client, server := build(eng, fab)
	r := newRig(eng, fab, client, server.LocalAddr(), 4096, false)
	server.SetHandler(r.serve)
	return r
}

// serve acknowledges a write at once and answers a read with the rig's
// block.
func (r *rig) serve(src uint32, req *transport.Message, reply func(*transport.Response)) {
	if req.Op == wire.RPCReadReq {
		reply(&r.readResp)
		return
	}
	reply(&emptyResp)
}

// newBNRig is the backend-network hop every block-server replica write
// crosses: an RDMA client into an RDMA endpoint serving a chunk server.
func newBNRig() *rig {
	eng, fab := newFabric(1)
	client, server := rdmaPair(eng, fab)
	chunkserver.NewService(eng, chunkserver.New(eng, "rig", chunkserver.DefaultSSD()), server)
	return newRig(eng, fab, client, server.LocalAddr(), 1024, true)
}

// newBlockServerRig builds the whole storage-server side of an I/O: an
// RDMA FN client into a block server that fans each write out over an RDMA
// BN to three chunk-server services and reads from the primary.
func newBlockServerRig() *rig {
	eng, fab := newFabric(4)
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
		panic(err)
	}
	client := rdma.New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "client-cpu", 4), nil, rdma.DefaultParams())
	return newRig(eng, fab, client, host.Addr(), 1024, true)
}

func newRig(eng *sim.Engine, fab *simnet.Fabric, client transport.Client, dst uint32, lbas int, crcs bool) *rig {
	r := &rig{eng: eng, pool: fab.Pool(), client: client, dst: dst, lbas: lbas, crcs: crcs}
	r.msg = transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1}
	r.rmsg = transport.Message{Op: wire.RPCReadReq, VDisk: 1, SegmentID: 1, Gen: 1}
	r.setSize(wire.BlockSize)
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

// setSize makes the rig's I/Os n bytes, at addresses n bytes apart. The
// address cycle shrinks as n grows, so a rig's stores never hold more than
// at 4 KiB. Call it before warm.
func (r *rig) setSize(n int) {
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

// rigDisk is the one virtual disk withAgent provisions.
const rigDisk = 1

// withAgent puts a storage agent with the given cost model, on cores of its
// own, in front of the rig's client: writeOne and readOne then issue guest
// I/Os on one virtual disk whose segments all live on the rig's server.
func (r *rig) withAgent(params sa.Params) *rig {
	segs := sa.NewSegmentTable()
	if err := segs.Provision(rigDisk, uint64(r.lbas*len(r.payload)), []uint32{r.dst}); err != nil {
		panic(err)
	}
	r.agent = sa.New(r.eng, sim.NewServer(r.eng, "sa-cpu", 4), r.client, segs, params)
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

// writeOne issues a single write and runs the engine until the cluster is
// idle (the write acknowledged, every timer drained).
func (r *rig) writeOne() {
	r.issued++
	r.msg.LBA = uint64(r.issued%r.lbas) * uint64(len(r.payload))
	if r.agent != nil {
		r.agent.Write(rigDisk, r.msg.LBA, r.payload, r.onIO)
	} else {
		r.client.Call(r.dst, &r.msg, r.onDone)
	}
	r.eng.Run()
}

// readOne issues a single read and runs the engine until the cluster is
// idle.
func (r *rig) readOne() {
	r.issued++
	r.rmsg.LBA = uint64(r.issued%r.lbas) * uint64(len(r.payload))
	if r.agent != nil {
		r.agent.Read(rigDisk, r.rmsg.LBA, len(r.payload), r.onIORead)
	} else {
		r.client.Call(r.dst, &r.rmsg, r.onRead)
	}
	r.eng.Run()
}

// warm writes every block address of the rig once, and a few more, so the
// measured writes that follow are overwrites on warm pools.
func (r *rig) warm() {
	for i := 0; i < r.lbas+64; i++ {
		r.writeOne()
	}
}

// check returns an error unless every issued I/O completed (a read with the
// served block) and no pooled packet, slab reference or record leaked.
func (r *rig) check() error {
	if r.completed != r.issued || r.failed != 0 {
		return fmt.Errorf("%d of %d I/Os completed, %d failed", r.completed, r.issued, r.failed)
	}
	if n := r.pool.Outstanding(); n != 0 {
		return fmt.Errorf("%d pooled packets/slab refs leaked", n)
	}
	if n := r.eng.PoolOutstanding(); n != 0 {
		return fmt.Errorf("%d pooled records leaked", n)
	}
	return nil
}

// TestWrongCarriedCRCFailsAtFNClient: a write whose carried block CRC does
// not match its bytes is rejected by each chunk server's device-boundary
// check (Fig. 11's corruption detector). The rejection must cross the BN and
// FN hops and fail the write at the FN client, not come back as durable.
func TestWrongCarriedCRCFailsAtFNClient(t *testing.T) {
	r := newBlockServerRig()
	r.msg.BlockCRCs = []uint32{^crc.Raw(r.payload)}
	r.writeOne()
	if r.completed != 1 || r.failed != 1 {
		t.Fatalf("%d of 1 writes completed, %d failed; want it to fail", r.completed, r.failed)
	}
	if n, m := r.pool.Outstanding(), r.eng.PoolOutstanding(); n != 0 || m != 0 {
		t.Fatalf("%d pooled packets/slab refs and %d pooled records leaked", n, m)
	}
}
