package experiments

import (
	"fmt"
	"time"

	"lunasolar/internal/rdma"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/stats"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// RDMACliff regenerates the §3.1 motivation for rejecting RDMA on the
// frontend: "the overall throughput of the RNIC we use went down quickly
// after the number of connections was beyond 5,000". A storage node's RNIC
// holds a QP-context cache; once concurrent client connections exceed it,
// every packet risks a context fetch from host memory. The experiment
// sweeps the number of active client connections across one server whose
// cache is scaled to the testbed (64 contexts for 16–256 connections,
// standing in for 5,000 at fleet scale) and reports per-RPC latency and
// aggregate throughput.
func RDMACliff(opts Options) *Table {
	t := &Table{
		Title:   "RDMA FN rejection (§3.1): throughput vs concurrent connections",
		Columns: []string{"connections", "QP cache", "avg RPC µs", "aggregate kRPC/s", "cache misses/RPC"},
	}
	const cache = 64
	sweep := []int{16, 48, 64, 96, 192}
	fleet := opts.fleet()
	t.Rows = runFabricCells(fleet, len(sweep), func(shard int) ([]string, *sim.Engine, *simnet.Fabric) {
		conns := sweep[shard]
		lat, rate, missFrac, eng, fab := runCliff(opts, conns, cache)
		return []string{
			fmt.Sprintf("%d", conns), fmt.Sprintf("%d", cache),
			us(lat), f1(rate / 1e3), f2(missFrac),
		}, eng, fab
	})
	t.Perf = &fleet.Perf
	t.Notes = append(t.Notes,
		"cache scaled 5000→64 to keep the simulated fleet small; the cliff sits at the cache size either way",
		"paper: RNIC throughput degrades sharply beyond ~5,000 connections — one reason FN chose software (Luna)")
	return t
}

// runCliff drives `conns` clients against one RDMA server with the given
// QP-context cache and measures steady-state behaviour.
func runCliff(opts Options, conns, cache int) (avgLat time.Duration, rps, missFrac float64, _ *sim.Engine, _ *simnet.Fabric) {
	eng := sim.NewEngine(opts.Seed)
	fcfg := simnet.DefaultConfig()
	fcfg.RacksPerPod = 16
	fcfg.HostsPerRack = 16
	fcfg.SpinesPerPod = 4
	fcfg.CoresPerDC = 4
	fab := simnet.New(eng, fcfg)

	params := rdma.DefaultParams()
	params.QPCacheSize = cache

	serverHost := fab.Host(0, 1, 0, 0)
	server := rdma.New(eng, serverHost, sim.NewServer(eng, "srv", 32), nil, params)
	server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		reply(&transport.Response{Data: make([]byte, 64)})
	})

	h := stats.NewHistogram()
	var completed uint64
	measuring := false

	payload := make([]byte, 4096)
	for i := 0; i < conns; i++ {
		host := fab.Host(0, 0, i/fcfg.HostsPerRack, i%fcfg.HostsPerRack)
		client := rdma.New(eng, host, sim.NewServer(eng, "cli", 2), nil, params)
		var issue func()
		issue = func() {
			start := eng.Now()
			client.Call(server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, Data: payload},
				func(*transport.Response) {
					if measuring {
						h.Record(eng.Now().Sub(start))
						completed++
					}
					issue()
				})
		}
		issue()
	}

	warmup := 5 * time.Millisecond
	window := time.Duration(opts.scale(40, 10)) * time.Millisecond
	eng.RunFor(warmup)
	measuring = true
	missBase := server.CacheMisses
	eng.RunFor(window)

	rps = float64(completed) / window.Seconds()
	if completed > 0 {
		missFrac = float64(server.CacheMisses-missBase) / float64(completed)
	}
	return h.Mean(), rps, missFrac, eng, fab
}
