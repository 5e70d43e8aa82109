// Package lunasolar's root benchmarks regenerate every table and figure of
// the paper's evaluation as testing.B benchmarks (one per artifact), plus
// end-to-end I/O microbenchmarks for each stack. The per-experiment tables
// are printed once per benchmark run; custom metrics expose the simulated
// results alongside wall-clock cost:
//
//	go test -bench=Fig6 -benchmem
//	go test -bench=. -benchmem   # all, reduced scale
package lunasolar

import (
	"fmt"
	"testing"

	"lunasolar/ebs"
	"lunasolar/internal/experiments"
	"lunasolar/internal/writebench"
)

// benchOpts runs the experiment benchmarks at reduced scale so the whole
// suite fits a default `go test -bench=.` run; full-scale regeneration is
// cmd/ebsbench's job.
var benchOpts = experiments.Options{Seed: 1, Quick: true}

// runExperiment executes fn once per b.N and prints the regenerated table
// on the first iteration. Experiments that run share-nothing shards report
// the fleet's simulator throughput: engine events per second of shard wall
// time, and how many simulated microseconds advance per wall millisecond.
func runExperiment(b *testing.B, name string, fn func(experiments.Options) *experiments.Table) {
	b.Helper()
	var events, simMicros, wallMs float64
	for i := 0; i < b.N; i++ {
		t := fn(benchOpts)
		if i == 0 {
			fmt.Printf("\n%s", t.Format())
		}
		// The shard wall time is what the table's own rates divide by:
		// events over events/sec, and sim-µs over sim-µs per wall-ms.
		if t.Perf != nil && t.Perf.EventsPerSec() > 0 {
			ev := float64(t.Perf.Events())
			ms := ev / t.Perf.EventsPerSec() * 1e3
			events += ev
			wallMs += ms
			simMicros += t.Perf.SimMicrosPerWallMs() * ms
		}
	}
	if wallMs > 0 {
		b.ReportMetric(events/(wallMs/1e3), "events/sec")
		b.ReportMetric(simMicros/wallMs, "sim-µs/wall-ms")
	}
}

func BenchmarkFig3Traffic(b *testing.B)       { runExperiment(b, "fig3", experiments.Fig3) }
func BenchmarkFig4Diurnal(b *testing.B)       { runExperiment(b, "fig4", experiments.Fig4) }
func BenchmarkFig5Sizes(b *testing.B)         { runExperiment(b, "fig5", experiments.Fig5) }
func BenchmarkFig6Breakdown(b *testing.B)     { runExperiment(b, "fig6", experiments.Fig6) }
func BenchmarkFig7Evolution(b *testing.B)     { runExperiment(b, "fig7", experiments.Fig7) }
func BenchmarkFig8Hangs(b *testing.B)         { runExperiment(b, "fig8", experiments.Fig8) }
func BenchmarkFig11Corruption(b *testing.B)   { runExperiment(b, "fig11", experiments.Fig11) }
func BenchmarkFig14Fio(b *testing.B)          { runExperiment(b, "fig14", experiments.Fig14) }
func BenchmarkFig15WriteLatency(b *testing.B) { runExperiment(b, "fig15", experiments.Fig15) }
func BenchmarkTable1RPC(b *testing.B)         { runExperiment(b, "table1", experiments.Table1) }
func BenchmarkTable2Failures(b *testing.B)    { runExperiment(b, "table2", experiments.Table2) }
func BenchmarkTable3Resources(b *testing.B)   { runExperiment(b, "table3", experiments.Table3) }
func BenchmarkRDMACliff(b *testing.B)         { runExperiment(b, "rdmacliff", experiments.RDMACliff) }

// benchIO measures simulated 4 KiB write performance per stack: b.N I/Os
// through a full cluster. Reported metrics: simulated microseconds per I/O
// (median) and the simulator's event throughput.
func benchIO(b *testing.B, fn ebs.StackKind, write bool) {
	cfg := ebs.DefaultConfig(fn)
	cfg.Fabric.RacksPerPod = 2
	cfg.ComputeServers = 1
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	c := ebs.New(cfg)
	vd := c.MustProvision(0, 256<<20, ebs.DefaultQoS())
	if !write {
		for off := uint64(0); off < 16<<20; off += 512 << 10 {
			vd.Write(off, make([]byte, 512<<10), nil)
		}
		c.Run()
	}
	payload := make([]byte, 4096)

	b.ResetTimer()
	n := 0
	var issue func()
	issue = func() {
		if n >= b.N {
			return
		}
		lba := uint64(n%4096) << 12
		n++
		if write {
			vd.Write(lba, payload, func(ebs.IOResult) { issue() })
		} else {
			vd.Read(lba, 4096, func(ebs.IOResult) { issue() })
		}
	}
	start := c.Eng.Now()
	startEvents := c.Eng.Processed()
	issue()
	c.Run()
	b.StopTimer()

	elapsed := c.Eng.Now().Sub(start)
	if b.N > 0 && elapsed > 0 {
		b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "sim-µs/io")
		b.ReportMetric(float64(c.Eng.Processed()-startEvents)/float64(b.N), "events/io")
	}
	b.SetBytes(4096)
}

func BenchmarkKernelWrite4K(b *testing.B) { benchIO(b, ebs.KernelTCP, true) }
func BenchmarkRDMAWrite4K(b *testing.B)   { benchIO(b, ebs.RDMA, true) }
func BenchmarkSolarWrite4K(b *testing.B)  { benchIO(b, ebs.Solar, true) }
func BenchmarkSolarRead4K(b *testing.B)   { benchIO(b, ebs.Solar, false) }
func BenchmarkLunaRead4K(b *testing.B)    { benchIO(b, ebs.Luna, false) }

// BenchmarkWritePath4K measures the isolated two-host Solar write path — SA
// ingress, one-touch CRC, scatter-gather framing, fabric transit, receive
// materialisation. Beyond wall time it reports how many payload memcpys
// each 4 KiB write costs (copies/op, copied-B/op) straight from the packet
// pool's copy accounting, gated at <= 1 copy per op.
func BenchmarkWritePath4K(b *testing.B) {
	r := writebench.NewRig(1)
	if d := benchRig(b, r, 4096, r.WriteOne); d.Copies > uint64(b.N) {
		b.Fatalf("write path made %d payload copies over %d ops, want <= 1 per op", d.Copies, b.N)
	}
}

// BenchmarkReadPath4K is the read twin of BenchmarkWritePath4K: one 4 KiB
// Solar read from a server that answers at once.
func BenchmarkReadPath4K(b *testing.B) {
	r := writebench.NewRig(1)
	benchRig(b, r, 4096, r.ReadOne)
}

// BenchmarkBNWrite4K is the backend twin of BenchmarkWritePath4K: one 4 KiB
// replica write, RDMA client → RDMA endpoint → chunk-server service and
// store, over 1 024 LBAs that have all been written once; copies/op must
// stay 0.
func BenchmarkBNWrite4K(b *testing.B) {
	r := writebench.NewBNRig(1)
	if d := benchRig(b, r, 4096, r.WriteOne); d.Copies != 0 {
		b.Fatalf("BN write path made %d payload copies over %d ops, want 0", d.Copies, b.N)
	}
}

// BenchmarkBNRead4K is the read twin of BenchmarkBNWrite4K: one 4 KiB read
// of a written block, the chunk server answering from a pooled read buffer
// and the client receiving it by reference to the frame's slab.
func BenchmarkBNRead4K(b *testing.B) {
	r := writebench.NewBNRig(1)
	benchRig(b, r, 4096, r.ReadOne)
}

// BenchmarkBNWrite64K is BenchmarkBNWrite4K at 64 KiB: a sixteen-packet
// request, reassembled into a pooled slab at the chunk server.
func BenchmarkBNWrite64K(b *testing.B) {
	r := writebench.NewBNRig(1)
	r.SetSize(64 << 10)
	benchRig(b, r, 64<<10, r.WriteOne)
}

// BenchmarkBlockServerWrite4K is one 4 KiB write through the whole storage
// side: RDMA FN → block server → three-replica RDMA BN fan-out → chunk
// servers.
func BenchmarkBlockServerWrite4K(b *testing.B) {
	r := writebench.NewBlockServerRig(1)
	benchRig(b, r, 4096, r.WriteOne)
}

// BenchmarkBlockServerRead4K is the read twin of
// BenchmarkBlockServerWrite4K: the block server reads from the primary
// chunk server over the BN and forwards the data over the FN.
func BenchmarkBlockServerRead4K(b *testing.B) {
	r := writebench.NewBlockServerRig(1)
	benchRig(b, r, 4096, r.ReadOne)
}

// BenchmarkLunaWrite4K is the FN twin for the host-side stack: one 4 KiB
// write, Luna tcpstack client → tcpstack server that acknowledges at once;
// copied-B/op is the stream the frames gather (the block plus two record
// headers).
func BenchmarkLunaWrite4K(b *testing.B) {
	r := writebench.NewLunaRig(1, ebs.LunaStackParams())
	benchRig(b, r, 4096, r.WriteOne)
}

// benchRig warms r, times op (an I/O of size bytes), and reports the rig's
// data-path counters per op; allocs/op is what the matching steady-state
// gate in zerocopy_test.go holds.
func benchRig(b *testing.B, r *writebench.Rig, size int, op func()) writebench.Stats {
	r.Warm()
	for i := 0; i < 64; i++ {
		op() // reach pool/path steady state before measuring
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := r.Snapshot()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	d := r.Snapshot().Delta(start)
	b.ReportMetric(float64(d.Copies)/float64(b.N), "copies/op")
	b.ReportMetric(float64(d.CopiedBytes)/float64(b.N), "copied-B/op")
	b.ReportMetric(float64(d.Events)/float64(b.N), "events/op")
	b.SetBytes(int64(size))
	if err := r.Check(); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkSimulatorEventRate measures raw event-loop throughput with a
// saturating Solar workload — the simulator's own performance envelope.
func BenchmarkSimulatorEventRate(b *testing.B) {
	cfg := ebs.DefaultConfig(ebs.Solar)
	cfg.Fabric.RacksPerPod = 2
	cfg.ComputeServers = 4
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	c := ebs.New(cfg)
	var vds []*ebs.VDisk
	for i := 0; i < 4; i++ {
		vd := c.MustProvision(i, 128<<20, ebs.DefaultQoS())
		vds = append(vds, vd)
		for s := 0; s < 8; s++ {
			var issue func()
			lba := uint64(s) << 16
			issue = func() {
				vd.Write(lba, make([]byte, 4096), func(ebs.IOResult) { issue() })
			}
			issue()
		}
	}
	b.ResetTimer()
	target := c.Eng.Processed() + uint64(b.N)
	for c.Eng.Processed() < target && c.Eng.Step() {
	}
	b.StopTimer()
}
