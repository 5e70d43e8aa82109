package experiments

import (
	"fmt"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/stats"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// table1Era describes one row-group of Table 1.
type table1Era struct {
	name        string
	linkBps     float64 // per host NIC port (×2 ports)
	stressBps   float64 // offered load
	kernelCores int     // cores granted for the stress test
	lunaCores   int
	cpuScale    float64 // CPU generation factor (the 100GE testbed is newer)
}

// Table1 regenerates the FN RPC latency / CPU table: kernel vs Luna, single
// 4 KiB RPC and a stress test approaching line rate, on 2×25GE and 2×100GE.
func Table1(opts Options) *Table {
	eras := []table1Era{
		{"2x25GE", 25e9, 50e9, 4, 1, 1.0},
		{"2x100GE", 100e9, 200e9, 12, 4, 0.62},
	}
	t := &Table{
		Title:   "Table 1: FN RPC latency and CPU under different load",
		Columns: []string{"setup", "test", "stack", "avg RPC µs", "achieved Gbps", "consumed cores"},
	}
	type cell struct {
		era    table1Era
		stack  string
		stress bool
	}
	var cells []cell
	for _, era := range eras {
		for _, stress := range []bool{false, true} {
			for _, stack := range []string{"kernel", "luna"} {
				cells = append(cells, cell{era, stack, stress})
			}
		}
	}
	fleet := opts.fleet()
	t.Rows = runFabricCells(fleet, len(cells), func(shard int) ([]string, *sim.Engine, *simnet.Fabric) {
		cl := cells[shard]
		lat, gbps, cores, eng, fab := runRPC(opts, cl.era, cl.stack, cl.stress)
		if !cl.stress {
			return []string{cl.era.name, "single 4KB RPC", cl.stack, us(lat), "-", f1(cores)}, eng, fab
		}
		return []string{cl.era.name,
			fmt.Sprintf("%.0f Gbps stress", cl.era.stressBps/1e9), cl.stack, us(lat), f1(gbps), f1(cores)}, eng, fab
	})
	t.Perf = &fleet.Perf
	t.Notes = append(t.Notes,
		"paper 2x25GE: single 70.1/13.1 µs; stress 1782 µs@4 cores vs 900 µs@1 core",
		"paper 2x100GE: single 43.4/12.4 µs; stress 2923 µs@12 cores vs 465 µs@4 cores")
	return t
}

// scaleTCP multiplies every CPU/latency cost by f (CPU-generation knob).
func scaleTCP(p tcpstack.Params, f float64) tcpstack.Params {
	mul := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	p.PerRPCTxCPU = mul(p.PerRPCTxCPU)
	p.PerRPCRxCPU = mul(p.PerRPCRxCPU)
	p.PerPktTxCPU = mul(p.PerPktTxCPU)
	p.PerPktRxCPU = mul(p.PerPktRxCPU)
	p.CopyPer4K = mul(p.CopyPer4K)
	p.PerRPCTxDelay = mul(p.PerRPCTxDelay)
	p.PerRPCRxDelay = mul(p.PerRPCRxDelay)
	return p
}

// runRPC runs one Table 1 cell: a pure RPC echo test between two hosts in
// different pods (no storage involvement — Table 1 measures the stack).
func runRPC(opts Options, era table1Era, stack string, stress bool) (avgLat time.Duration, gbps, cores float64, _ *sim.Engine, _ *simnet.Fabric) {
	params, nCores := scaleTCP(ebs.LunaStackParams(), era.cpuScale), era.lunaCores
	if stack == "kernel" {
		params, nCores = scaleTCP(ebs.KernelStackParams(), era.cpuScale), era.kernelCores
	}
	if !stress {
		return runRPCSingle(opts, era, params)
	}
	eng, fab, client, clientCores, serverAddrs := table1Rig(opts, era, params, nCores)
	payload := make([]byte, 4096)
	h := stats.NewHistogram()

	// Stress: a closed loop whose concurrency corresponds to the offered
	// line-rate load with generous socket buffering.
	concurrency := opts.scale(1280, 160)
	window := time.Duration(opts.scale(80, 8)) * time.Millisecond
	warmup := 10 * time.Millisecond

	var bytesDone uint64
	measuring := false
	nextSrv := 0
	var issue func()
	issue = func() {
		start := eng.Now()
		dst := serverAddrs[nextSrv%len(serverAddrs)]
		nextSrv++
		client.Call(dst, &transport.Message{Op: wire.RPCWriteReq, Data: payload},
			func(*transport.Response) {
				if measuring {
					h.Record(eng.Now().Sub(start))
					bytesDone += 4096
				}
				issue()
			})
	}
	for i := 0; i < concurrency; i++ {
		issue()
	}
	eng.RunFor(warmup)
	measuring = true
	clientCores.ResetStats()
	eng.RunFor(window)
	util := clientCores.Utilization()
	gbps = float64(bytesDone) * 8 / window.Seconds() / 1e9
	return h.Mean(), gbps, util, eng, fab
}

// table1Rig builds Table 1's testbed: a small two-pod Clos with the
// era's links and deep buffers, a client on host (0,0,0,0) with nCores
// cores, and eight echo servers in the other pod. Several server peers
// because production SAs hold one connection per block server, and a
// single 5-tuple can use only one bonded NIC port.
func table1Rig(opts Options, era table1Era, params tcpstack.Params, nCores int) (eng *sim.Engine, fab *simnet.Fabric, client *tcpstack.Stack, clientCores *sim.Server, serverAddrs []uint32) {
	eng = sim.NewEngine(opts.Seed)
	fcfg := simnet.DefaultConfig()
	fcfg.RacksPerPod = 2
	fcfg.HostsPerRack = 4
	fcfg.SpinesPerPod = 2
	fcfg.CoresPerDC = 2
	fcfg.HostLinkBps = era.linkBps
	// Table 1 is a controlled two-endpoint test, not a production incast:
	// deep buffers as on the testbed's dedicated path.
	fcfg.BufferBytes = 8 << 20
	fcfg.ECNThresholdBytes = 100 << 10
	fab = simnet.New(eng, fcfg)

	clientCores = sim.NewServer(eng, "client", nCores)
	client = tcpstack.New(eng, fab.Host(0, 0, 0, 0), clientCores, nil, params)
	for i := 0; i < 8; i++ {
		serverCores := sim.NewServer(eng, fmt.Sprintf("server%d", i), 16)
		server := tcpstack.New(eng, fab.Host(0, 1, i/4, i%4), serverCores, nil, params)
		server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
			reply(&transport.Response{Data: make([]byte, 64)})
		})
		serverAddrs = append(serverAddrs, server.LocalAddr())
	}
	return eng, fab, client, clientCores, serverAddrs
}

// runRPCSingle measures sequential single-RPC latency.
func runRPCSingle(opts Options, era table1Era, params tcpstack.Params) (avgLat time.Duration, gbps, cores float64, _ *sim.Engine, _ *simnet.Fabric) {
	eng, fab, client, _, serverAddrs := table1Rig(opts, era, params, 1)
	payload := make([]byte, 4096)
	h := stats.NewHistogram()
	n := opts.scale(400, 100)
	done := 0
	var next func()
	next = func() {
		start := eng.Now()
		client.Call(serverAddrs[0], &transport.Message{Op: wire.RPCWriteReq, Data: payload},
			func(*transport.Response) {
				h.Record(eng.Now().Sub(start))
				done++
				if done < n {
					next()
				}
			})
	}
	next()
	eng.Run()
	return h.Mean(), 0, 1, eng, fab
}
