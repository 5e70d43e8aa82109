package main

import (
	"runtime"
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

// Layer rigs: each times N calls into one layer's public functions with
// the layer beneath replaced by the cheapest stand-in (a loopback
// transport, a handler that replies at once, a two-pod fabric with one
// host each), and reports host ns, allocations and engine events per call.
// The rigs are patterned on internal/writebench and, like it, own every
// buffer and callback so the numbers are the layer's, not the driver's.

const rigRounds = 5

// rigRunner runs the rigs and collects their metrics by name. scale
// multiplies every rig's call count: 1 for a reference-length run,
// smaller for the self-test.
type rigRunner struct {
	scale float64
	out   map[string]float64
}

// rigStats are per-call costs.
type rigStats struct {
	ns, allocs, bytes, events float64
}

// timeCalls warms call up, then runs it n times in rigRounds rounds,
// reporting the median round's ns per call and the mean allocations and
// events per call. eng may be nil for rigs with no engine.
func (r *rigRunner) timeCalls(eng *sim.Engine, n int, call func()) rigStats {
	n = int(float64(n) * r.scale)
	for i := 0; i < n/10+8; i++ {
		call()
	}
	per := n / rigRounds
	if per < 1 {
		per = 1
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var ev0 uint64
	if eng != nil {
		ev0 = eng.Processed()
	}
	var rounds []float64
	for round := 0; round < rigRounds; round++ {
		t := time.Now()
		for i := 0; i < per; i++ {
			call()
		}
		rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(per))
	}
	runtime.ReadMemStats(&m1)
	calls := float64(per * rigRounds)
	st := rigStats{
		ns:     median(rounds),
		allocs: float64(m1.Mallocs-m0.Mallocs) / calls,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / calls,
	}
	if eng != nil {
		st.events = float64(eng.Processed()-ev0) / calls
	}
	return st
}

// runLayerRigs runs every rig, at scale times its reference call count,
// and returns the metrics by name.
func runLayerRigs(scale float64) map[string]float64 {
	r := &rigRunner{scale: scale, out: map[string]float64{}}
	r.rigSim()
	r.rigSimnet()
	r.rigCRC()
	r.rigStack("tcpstack", func(eng *sim.Engine, a, b *simnet.Host) (transport.Stack, transport.Stack, *simnet.PacketPool) {
		cl := tcpstack.New(eng, a, sim.NewServer(eng, "client-cpu", 4), nil, ebs.LunaStackParams())
		sv := tcpstack.New(eng, b, sim.NewServer(eng, "server-cpu", 16), nil, ebs.LunaStackParams())
		return cl, sv, a.PacketPool()
	})
	r.rigStack("rdma", func(eng *sim.Engine, a, b *simnet.Host) (transport.Stack, transport.Stack, *simnet.PacketPool) {
		cl := rdma.New(eng, a, sim.NewServer(eng, "client-cpu", 4), nil, ebs.RDMAStackParams())
		sv := rdma.New(eng, b, sim.NewServer(eng, "server-cpu", 16), nil, ebs.RDMAStackParams())
		return cl, sv, a.PacketPool()
	})
	r.rigStack("core", func(eng *sim.Engine, a, b *simnet.Host) (transport.Stack, transport.Stack, *simnet.PacketPool) {
		dcfg := dpu.DefaultConfig()
		dcfg.Faults = dpu.FaultRates{}
		card := dpu.New(eng, dcfg)
		cl := core.New(eng, a, card.CPU, card, ebs.SolarStackParams(ebs.Solar, false))
		sv := core.New(eng, b, sim.NewServer(eng, "server-cpu", 16), nil, core.ServerParams())
		return cl, sv, a.PacketPool()
	})
	r.rigSA()
	r.rigBlockServer()
	r.rigChunkServer()
	r.rigEBS()
	return r.out
}

// --- sim -------------------------------------------------------------------------

// heapRig keeps a fixed population of self-rescheduling events alive, so
// every fired event costs one pop and one push at a realistic heap depth.
type heapRig struct {
	eng  *sim.Engine
	left int
	lcg  uint32
}

func heapFire(a any) {
	h := a.(*heapRig)
	if h.left <= 0 {
		return
	}
	h.left--
	h.lcg = h.lcg*1664525 + 1013904223
	h.eng.ScheduleArg(time.Duration(1000+h.lcg>>15), heapFire, h)
}

func nopArg(any) {}

func (r *rigRunner) rigSim() {
	eng := sim.NewEngine(1)
	h := &heapRig{eng: eng, lcg: 1}
	const depth = 4096
	st := r.timeCalls(eng, 100, func() {
		h.left = 20_000
		for i := 0; i < depth; i++ {
			heapFire(h)
		}
		eng.Run()
	})
	r.out["sim.heap_ns_per_event"] = st.ns / st.events
	r.out["sim.allocs_per_event"] = st.allocs / st.events

	// Arm and cancel a coarse timer beside a resident population, the way
	// a retransmit timer lives: armed per send, cancelled by the ack.
	eng = sim.NewEngine(1)
	for i := 0; i < 1024; i++ {
		eng.ScheduleCoarseArg(time.Duration(i+1)*time.Millisecond, nopArg, nil)
	}
	lcg := uint32(1)
	st = r.timeCalls(eng, 2_000_000, func() {
		lcg = lcg*1664525 + 1013904223
		eng.ScheduleCoarseArg(time.Duration(lcg>>8), nopArg, nil).Cancel()
	})
	r.out["sim.wheel_ns_per_timer"] = st.ns

	eng = sim.NewEngine(1)
	srv := sim.NewServer(eng, "rig", 4)
	const batch = 64
	st = r.timeCalls(eng, 20_000, func() {
		for i := 0; i < batch; i++ {
			srv.SubmitArg(time.Microsecond, nopArg, nil)
		}
		eng.Run()
	})
	r.out["sim.server_ns_per_job"] = st.ns / batch
}

// --- simnet ----------------------------------------------------------------------

// rigFabric is the smallest Clos with a cross-pod path: one host pair
// five switch hops apart.
func rigFabric(eng *sim.Engine) *simnet.Fabric {
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	return simnet.New(eng, cfg)
}

func (r *rigRunner) rigSimnet() {
	eng := sim.NewEngine(1)
	fab := rigFabric(eng)
	src, dst := fab.Host(0, 0, 0, 0), fab.Host(0, 1, 0, 0)
	dst.Handler = func(p *simnet.Packet) { p.Release() }
	pool := fab.Pool()
	hops := func() uint64 {
		var n uint64
		for _, s := range fab.Switches() {
			n += s.Forwarded()
		}
		return n
	}
	const batch = 32
	port := uint16(0)
	send := func() {
		for i := 0; i < batch; i++ {
			pkt := pool.Get(64)
			pkt.Dst = dst.Addr()
			pkt.Proto = wire.ProtoUDP
			port++
			pkt.SrcPort = 1024 + port%4096 // spread over every ECMP path
			pkt.DstPort = 9
			pkt.Overhead = simnet.DefaultOverheadUDP
			if !src.Send(pkt) {
				pkt.Release()
			}
		}
		eng.Run()
	}
	send() // pool and ports warm before the counters are read
	h0, n0 := hops(), pool.News()
	calls := 0
	st := r.timeCalls(eng, 20_000, func() { calls++; send() })
	perCall := float64(hops()-h0) / float64(calls)
	r.out["simnet.ns_per_hop"] = st.ns / perCall
	r.out["simnet.events_per_hop"] = st.events / perCall
	r.out["simnet.allocs_per_pkt"] = st.allocs / batch
	r.out["simnet.pool_miss_per_pkt"] = float64(pool.News()-n0) / float64(calls*batch)
}

// --- crc -------------------------------------------------------------------------

// crcSink keeps the compiler from discarding the rig's CRC calls.
var crcSink uint32

func (r *rigRunner) rigCRC() {
	block := rigPayload(wire.BlockSize)
	st := r.timeCalls(nil, 50_000, func() { crcSink ^= crc.Raw(block) })
	r.out["crc.ns_per_4k"] = st.ns
	a, b := crc.Raw(block), crc.Raw(block[1:])
	st = r.timeCalls(nil, 2_000_000, func() { a = crc.Combine(a, b, wire.BlockSize) })
	crcSink ^= a
	r.out["crc.combine_ns"] = st.ns
}

// --- FN / BN stacks -----------------------------------------------------------------

var emptyResp transport.Response

// rigStack times one write RPC, sent and acknowledged, over a two-host
// fabric, against a server whose handler replies at once.
func (r *rigRunner) rigStack(name string, build func(*sim.Engine, *simnet.Host, *simnet.Host) (client, server transport.Stack, pool *simnet.PacketPool)) {
	for _, size := range []struct {
		suffix string
		bytes  int
		n      int
	}{{"4k", 4 << 10, 20_000}, {"64k", 64 << 10, 2_500}} {
		eng := sim.NewEngine(1)
		fab := rigFabric(eng)
		client, server, pool := build(eng, fab.Host(0, 0, 0, 0), fab.Host(0, 1, 0, 0))
		server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
			reply(&emptyResp)
		})
		payload := rigPayload(size.bytes)
		msg := transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: payload}
		issued, completed := 0, 0
		onDone := func(*transport.Response) { completed++ }
		dst := server.LocalAddr()
		call := func() {
			issued++
			msg.LBA = uint64(issued%256) * uint64(size.bytes)
			client.Call(dst, &msg, onDone)
			eng.Run()
		}
		call()
		c0 := pool.Copies()
		st := r.timeCalls(eng, size.n, call)
		if completed != issued || pool.Outstanding() != 0 {
			// A rig that loses calls or packets has no cost to report.
			st = rigStats{}
		}
		r.out[name+".ns_per_call_"+size.suffix] = st.ns
		r.out[name+".allocs_per_call_"+size.suffix] = st.allocs
		if size.suffix == "4k" {
			r.out[name+".events_per_call_4k"] = st.events
			if name == "core" {
				r.out["core.copies_per_call_4k"] = float64(pool.Copies()-c0) / float64(issued-1)
			}
		}
	}
}

// --- storage agent, block server, chunk server ----------------------------------------

// loopback returns an in-process transport on eng with a 1 us handover.
func loopback(eng *sim.Engine, addr uint32) *transport.Loopback {
	return transport.NewLoopback(func(d time.Duration, fn func()) { eng.Schedule(d, fn) }, time.Microsecond, addr)
}

// echoHandler acknowledges writes and answers reads from one shared
// buffer, standing in for everything beneath the layer under test.
func echoHandler() transport.Handler {
	zeros := make([]byte, 128<<10)
	return func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		if req.Op == wire.RPCReadReq {
			reply(&transport.Response{Data: zeros[:req.ReadLen]})
			return
		}
		reply(&emptyResp)
	}
}

func rigPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 13)
	}
	return p
}

// rigSA times the storage agent over a loopback FN: the Solar-era
// offloaded agent for 4 KiB writes (it computes the one-touch block CRCs),
// the Luna-era software agent for 4 KiB reads and 64 KiB writes, as the
// two storage workloads use them.
func (r *rigRunner) rigSA() {
	const vdisk, addr = 1, 7
	build := func(p sa.Params) (*sim.Engine, *sa.Agent) {
		eng := sim.NewEngine(1)
		lo := loopback(eng, addr)
		lo.SetHandler(echoHandler())
		segs := sa.NewSegmentTable()
		if err := segs.Provision(vdisk, 64<<20, []uint32{addr}); err != nil {
			panic(err) // fixed arguments: only a bug can fail this
		}
		agent := sa.New(eng, sim.NewServer(eng, "sa-cpu", 4), lo, segs, p)
		agent.SetQoS(vdisk, ebs.DefaultQoS())
		return eng, agent
	}
	n := 0
	done := func(sa.Result) {}
	lba := func(size int) uint64 { n++; return uint64(n%512) * uint64(size) }

	eng, agent := build(sa.OffloadedParams())
	p4 := rigPayload(4 << 10)
	st := r.timeCalls(eng, 50_000, func() { agent.Write(vdisk, lba(4<<10), p4, done); eng.Run() })
	r.out["sa.ns_per_write_4k"] = st.ns
	r.out["sa.allocs_per_write_4k"] = st.allocs

	eng, agent = build(sa.SoftwareParams())
	st = r.timeCalls(eng, 50_000, func() { agent.Read(vdisk, lba(4<<10), 4<<10, done); eng.Run() })
	r.out["sa.ns_per_read_4k"] = st.ns
	p64 := rigPayload(64 << 10)
	st = r.timeCalls(eng, 20_000, func() { agent.Write(vdisk, lba(64<<10), p64, done); eng.Run() })
	r.out["sa.ns_per_write_64k"] = st.ns
}

func (r *rigRunner) rigBlockServer() {
	const addr = 7
	eng := sim.NewEngine(1)
	fn, bn := loopback(eng, addr), loopback(eng, addr)
	bn.SetHandler(echoHandler())
	_, err := blockserver.New(eng, "rig", fn, bn, []uint32{11, 12, 13}, sim.NewServer(eng, "block-cpu", 16), blockserver.DefaultParams())
	if err != nil {
		panic(err) // fixed arguments: only a bug can fail this
	}
	payload := rigPayload(4 << 10)
	wr := transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: payload, BlockCRCs: []uint32{crc.Raw(payload)}}
	rd := transport.Message{Op: wire.RPCReadReq, VDisk: 1, SegmentID: 1, Gen: 1, ReadLen: 4 << 10}
	done := func(*transport.Response) {}
	n := 0
	st := r.timeCalls(eng, 50_000, func() {
		n++
		wr.LBA = uint64(n%512) << 12
		fn.Call(addr, &wr, done)
		eng.Run()
	})
	r.out["blockserver.ns_per_write_4k"] = st.ns
	r.out["blockserver.allocs_per_write_4k"] = st.allocs
	st = r.timeCalls(eng, 50_000, func() {
		n++
		rd.LBA = uint64(n%512) << 12
		fn.Call(addr, &rd, done)
		eng.Run()
	})
	r.out["blockserver.ns_per_read_4k"] = st.ns
}

func (r *rigRunner) rigChunkServer() {
	const addr = 7
	eng := sim.NewEngine(1)
	bn := loopback(eng, addr)
	chunkserver.NewService(eng, chunkserver.New(eng, "rig", chunkserver.DefaultSSD()), bn)
	payload := rigPayload(4 << 10)
	// The write carries its block CRC, as every Solar-path write does.
	wr := transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: payload, BlockCRCs: []uint32{crc.Raw(payload)}}
	rd := transport.Message{Op: wire.RPCReadReq, VDisk: 1, SegmentID: 1, Gen: 1, ReadLen: 4 << 10}
	done := func(*transport.Response) {}
	n := 0
	st := r.timeCalls(eng, 50_000, func() {
		n++
		wr.LBA = uint64(n%1024) << 12
		bn.Call(addr, &wr, done)
		eng.Run()
	})
	r.out["chunkserver.ns_per_write_4k"] = st.ns
	r.out["chunkserver.allocs_per_write_4k"] = st.allocs
	r.out["chunkserver.bytes_per_write_4k"] = st.bytes
	st = r.timeCalls(eng, 50_000, func() {
		n++
		rd.LBA = uint64(n%1024) << 12
		bn.Call(addr, &rd, done)
		eng.Run()
	})
	r.out["chunkserver.ns_per_read_4k"] = st.ns
}

// --- ebs -------------------------------------------------------------------------

func (r *rigRunner) rigEBS() {
	var c *ebs.Cluster
	st := r.timeCalls(nil, 10, func() { c = ebs.New(storageConfig(ebs.Solar, 4)) })
	r.out["ebs.new_cluster_ms"] = st.ns / 1e6
	i := 0
	st = r.timeCalls(nil, 500, func() {
		i++
		if _, err := c.Provision(i%c.Computes(), 8<<20, ebs.DefaultQoS()); err != nil {
			panic(err) // fixed arguments: only a bug can fail this
		}
	})
	r.out["ebs.provision_us"] = st.ns / 1e3
}
