package main

import "math"

// The benchmark's vocabulary: workload names, metric names, units,
// directions and bounds. BENCHMARK.json repeats these for the driver;
// TestSpecMatchesBenchmarkJSON keeps the two in step, so -compare and the
// printed tables never disagree with the file the driver reads.

// refSeconds is the --seconds value the per-workload op counts below are
// sized for (BENCHMARK.json's run_seconds). Another --seconds scales every
// count linearly; the count for a given --seconds is fixed, never adapted
// to elapsed time, so event and allocation counts repeat exactly.
const refSeconds = 15

type workloadSpec struct {
	name string
	why  string
	// refOps is the measured-phase op count at refSeconds, sized so the
	// phase takes about refSeconds of wall time on the 2-vCPU reference
	// host.
	refOps int
	// quantum rounds the scaled op count (the stratified generators deal
	// whole strata).
	quantum int
}

var workloads = []workloadSpec{
	{
		name:    "solar_write4k",
		why:     "Solar FN + RDMA BN, 4 KiB random writes: the paper's headline path (core, crc, 3-way replication, rdma, chunkserver); tcpstack idle.",
		refOps:  230_000,
		quantum: 1000,
	},
	{
		name:    "luna_mixed_rw",
		why:     "Luna tcpstack FN + RDMA BN, 70/30 read/write, Fig. 5 sizes 4-128 KiB, verified reads: same storage layers used differently; core idle.",
		refOps:  75_000,
		quantum: 1000,
	},
	{
		name:    "fabric_bulk",
		why:     "No storage stack: open-loop 64 KiB bulk transfers across the default Clos at 60% line rate; only sim and simnet work.",
		refOps:  380_000,
		quantum: 1000,
	},
	{
		name:    "failover_storm",
		why:     "Table 2 in miniature: Luna and Solar under ToR blackhole, spine 75% drop and ToR reboot; retransmit timers, wheel, probes, path failover.",
		refOps:  35_000,
		quantum: 1,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opsFor returns the fixed measured-phase op count for a --seconds value.
func (w *workloadSpec) opsFor(seconds float64) int {
	n := int(math.Round(float64(w.refOps) * seconds / refSeconds))
	n -= n % w.quantum
	if n < w.quantum {
		n = w.quantum
	}
	return n
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the base median by which it may worsen
}

// endToEnd is what a user of the simulator sees. "host" metrics are wall
// clock and memory of this process; "sim" metrics are virtual time, exact
// for a fixed seed (unit sim_us keeps them apart from host times). Each
// bound is at least three times the spread the metric showed over ten
// seeds on the reference host, on its noisiest workload; the two host
// timings carry the widest bound there is, because between two ten-run
// sets of the same code half an hour apart the shared host itself moved
// them by 11 and 13 %.
var endToEnd = []metricSpec{
	{"wall_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.01},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"sim_lat_p50_us", "sim_us", "lower", 0.02},
	{"sim_lat_p999_us", "sim_us", "lower", 0.15},
	{"sim_kops", "kops/sim_s", "higher", 0.02},
	{"op_ok_share", "share", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// layerNames lists the stack layers host cost is attributed to, in the
// order the shares are printed.
var layerNames = []string{
	"sim", "simnet", "transport_cc", "tcpstack", "rdma", "core", "crc",
	"sa", "blockserver", "chunkserver", "dpu", "stats_trace", "ebs",
	"runtime_go", "bench",
}

// perLayer is every single-layer metric, rigs first, then the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{name: name, unit: unit, better: better})
	}
	// (A) layer rigs.
	add("sim.heap_ns_per_event", "ns", "lower")
	add("sim.wheel_ns_per_timer", "ns", "lower")
	add("sim.allocs_per_event", "count", "lower")
	add("sim.server_ns_per_job", "ns", "lower")
	add("simnet.ns_per_hop", "ns", "lower")
	add("simnet.events_per_hop", "count", "lower")
	add("simnet.allocs_per_pkt", "count", "lower")
	add("simnet.pool_miss_per_pkt", "count", "lower")
	add("crc.ns_per_4k", "ns", "lower")
	add("crc.combine_ns", "ns", "lower")
	for _, st := range []string{"tcpstack", "rdma", "core"} {
		add(st+".ns_per_call_4k", "ns", "lower")
		add(st+".ns_per_call_64k", "ns", "lower")
		add(st+".allocs_per_call_4k", "count", "lower")
		add(st+".allocs_per_call_64k", "count", "lower")
		add(st+".events_per_call_4k", "count", "lower")
	}
	add("core.copies_per_call_4k", "count", "lower")
	add("sa.ns_per_write_4k", "ns", "lower")
	add("sa.ns_per_read_4k", "ns", "lower")
	add("sa.ns_per_write_64k", "ns", "lower")
	add("sa.allocs_per_write_4k", "count", "lower")
	add("blockserver.ns_per_write_4k", "ns", "lower")
	add("blockserver.ns_per_read_4k", "ns", "lower")
	add("blockserver.allocs_per_write_4k", "count", "lower")
	add("chunkserver.ns_per_write_4k", "ns", "lower")
	add("chunkserver.ns_per_read_4k", "ns", "lower")
	add("chunkserver.allocs_per_write_4k", "count", "lower")
	add("chunkserver.bytes_per_write_4k", "B", "lower")
	add("ebs.new_cluster_ms", "ms", "lower")
	add("ebs.provision_us", "us", "lower")
	// (B) traced run: exact counts from public counters.
	add("sim.events_per_op", "count", "lower")
	add("sim.ns_per_event", "ns", "lower")
	add("simnet.pkts_per_op", "count", "lower")
	add("simnet.hops_per_op", "count", "lower")
	add("simnet.drops_per_op", "count", "lower")
	add("simnet.copies_per_op", "count", "lower")
	add("simnet.pool_miss_per_op", "count", "lower")
	add("tcpstack.retx_per_op", "count", "lower")
	add("core.retx_per_op", "count", "lower")
	add("blockserver.writes_per_op", "count", "lower")
	add("blockserver.reads_per_op", "count", "lower")
	add("chunkserver.writes_per_op", "count", "lower")
	add("chunkserver.reads_per_op", "count", "lower")
	add("chunkserver.crc_errors", "count", "lower")
	add("chunkserver.ssd_util", "share", "lower")
	// Simulated latency breakdown from IOResult.Span.
	add("span.sa_p50_us", "sim_us", "lower")
	add("span.fn_p50_us", "sim_us", "lower")
	add("span.bn_p50_us", "sim_us", "lower")
	add("span.ssd_p50_us", "sim_us", "lower")
	// Host attribution from the CPU and allocation profiles.
	for _, l := range layerNames {
		add("cpu_share."+l, "share", "lower")
	}
	for _, l := range layerNames {
		add("alloc_share."+l, "share", "lower")
	}
	add("trace.overhead_share", "share", "lower")
	return out
}
