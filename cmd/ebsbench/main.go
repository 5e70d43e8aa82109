// Command ebsbench regenerates the paper's tables and figures. Each
// experiment id maps to one table or figure of the evaluation:
//
//	ebsbench -exp fig6            # 4KB latency breakdown, kernel/luna/solar
//	ebsbench -exp table2 -quick   # failure scenarios at reduced scale
//	ebsbench -exp all             # everything, experiments running in parallel
//	ebsbench -exp fig14 -json     # machine-readable metric rows
//
// Independent experiments (and the independent cells inside each one) run as
// share-nothing simulation shards on a worker pool; -workers 1 forces a fully
// serial run that produces bit-identical tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/cc"
	"lunasolar/internal/experiments"
	"lunasolar/internal/sim/runtime"
	"lunasolar/internal/stats"
)

var registry = map[string]struct {
	fn    func(experiments.Options) *experiments.Table
	brief string
}{
	"fig3":      {experiments.Fig3, "weekly EBS vs total traffic shares"},
	"fig4":      {experiments.Fig4, "diurnal per-server IOPS"},
	"fig5":      {experiments.Fig5, "I/O and RPC size CDFs"},
	"fig6":      {experiments.Fig6, "4KB latency breakdown (kernel/luna/solar)"},
	"fig7":      {experiments.Fig7, "five-year latency/IOPS evolution"},
	"fig8":      {experiments.Fig8, "I/O hangs by failure tier (Luna era)"},
	"fig11":     {experiments.Fig11, "corruption root causes vs software CRC"},
	"fig14":     {experiments.Fig14, "fio throughput/IOPS by DPU cores"},
	"fig15":     {experiments.Fig15, "single 4KB write latency, light/heavy load"},
	"table1":    {experiments.Table1, "RPC latency and cores, kernel vs luna"},
	"table2":    {experiments.Table2, "I/O hangs under failure scenarios"},
	"table3":    {experiments.Table3, "FPGA resource consumption"},
	"ablate":    {experiments.Ablations, "Solar design-choice ablations (paths, CRC, Addr table)"},
	"rdmacliff": {experiments.RDMACliff, "RDMA connection-scalability cliff (the §3.1 FN rejection)"},

	"coupled":     {experiments.CoupledStorm, "big-pod write storm on one 4-way partitioned fabric"},
	"coupledfail": {experiments.CoupledFailover, "partitioned-fabric storm through a spine reboot"},

	"incast":        {experiments.Incast, "incast storm: all block servers answer one compute, per CC variant"},
	"spine-oversub": {experiments.SpineOversub, "write storm through a spine tier thinned 4→1, per CC variant"},
	"elephantmice":  {experiments.ElephantMice, "1 MiB elephants vs 4 KiB mice sharing the fabric, per CC variant"},

	"diurnal": {experiments.Diurnal, "bulk campaign (ramp→plateau→incast→spine reboot→ramp-down), honors -fidelity"},

	"provision-storm": {experiments.ProvisionStorm, "volume-lifecycle storm with duplicated request IDs, per stack"},
	"drain":           {experiments.Drain, "planned chunk-server drain (copy-then-cutover) under a write storm"},
	"noisyneighbor":   {experiments.NoisyNeighbor, "aggressor tenant vs victim on one hypervisor, with/without tenant QoS cap"},
}

func main() {
	exp := flag.String("exp", "", "experiment id (fig3..fig15, table1..table3, or 'all')")
	quick := flag.Bool("quick", false, "reduced scale for a fast run")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	coupledWorkers := flag.Int("coupled-workers", 0, "worker count driving a coupled experiment's fabric partitions (0 = GOMAXPROCS, 1 = serial windows; output is identical for every value)")
	jsonOut := flag.Bool("json", false, "emit one JSON metric row per line instead of tables")
	coupledBenchOut := flag.String("coupled-bench-out", "", "run the coupled-fabric storm at 1/2/4/8 workers, check byte-identity, and write the scaling report here (e.g. BENCH_pr6.json)")
	metricsOut := flag.String("metrics-out", "", "write the merged observability registry of all experiments here (e.g. METRICS.json)")
	metricsFormat := flag.String("metrics-format", "json", "format for -metrics-out: json or openmetrics")
	ccFlag := flag.String("cc", "static", "congestion controller for every RDMA stack: static, dcqcn, or swift (the CC-matrix experiments sweep all three regardless)")
	ccBenchOut := flag.String("cc-bench-out", "", "run the incast CC matrix (static/dcqcn/swift) and write the JSON report here (e.g. BENCH_pr7.json)")
	ffBenchOut := flag.String("ff-bench-out", "", "run the diurnal campaign at packet and hybrid fidelity, enforce the differential + speedup gates, and write the JSON report here (e.g. BENCH_pr8.json)")
	ctrlBenchOut := flag.String("ctrl-bench-out", "", "run the drain and noisy-neighbor control-plane scenarios, enforce the zero-failed-I/O and 2x-isolation gates, and write the JSON report here (e.g. BENCH_pr10.json)")
	fidelity := flag.String("fidelity", "packet", "simulation fidelity for experiments that support it: packet (every frame) or hybrid (fluid fast-forward of quiescent bulk flows)")
	profileDir := flag.String("profile", "", "write cpu.pprof (whole run) and heap.pprof (at exit) into this directory")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()

	ccKind, ok := cc.ParseKind(*ccFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "ebsbench: unknown -cc %q (static, dcqcn, or swift)\n", *ccFlag)
		os.Exit(1)
	}
	fid, err := ebs.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebsbench: %v\n", err)
		os.Exit(1)
	}
	var prof *profiler
	if *profileDir != "" {
		prof, err = startProfile(*profileDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ebsbench: profile: %v\n", err)
			os.Exit(1)
		}
		defer prof.Stop()
	}
	if *metricsOut != "" && *metricsFormat != "json" && *metricsFormat != "openmetrics" {
		fmt.Fprintf(os.Stderr, "ebsbench: unknown -metrics-format %q (json or openmetrics)\n", *metricsFormat)
		os.Exit(1)
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Workers: *workers,
		CoupledWorkers: *coupledWorkers, Telemetry: *metricsOut != "", Fidelity: fid, CC: ccKind}

	// Report stages: each flag that names an output file runs its report.
	reports := 0
	for _, r := range []struct {
		name, out string
		write     func(path string, opts experiments.Options) error
	}{
		{"coupled bench", *coupledBenchOut, writeCoupledBenchReport},
		{"cc bench", *ccBenchOut, writeCCBenchReport},
		{"ff bench", *ffBenchOut, writeFFBenchReport},
		{"ctrl bench", *ctrlBenchOut, writeCtrlBenchReport},
	} {
		if r.out == "" {
			continue
		}
		if err := r.write(r.out, opts); err != nil {
			fmt.Fprintf(os.Stderr, "ebsbench: %s: %v\n", r.name, err)
			prof.Stop()
			os.Exit(1)
		}
		reports++
	}
	if reports > 0 && *exp == "" && !*list {
		return
	}

	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list || *exp == "" {
		wid := 0
		for _, id := range ids {
			if len(id) > wid {
				wid = len(id)
			}
		}
		fmt.Println("experiments:")
		for _, id := range ids {
			fmt.Printf("  %-*s  %s\n", wid, id, registry[id].brief)
		}
		if *exp == "" {
			os.Exit(0)
		}
	}

	// Every experiment shard asserts that its cluster returned all pooled
	// packets; any leak fails the whole run (after all output is printed).
	var leakedTotal atomic.Int64

	// Telemetry registries are collected per experiment slot (race-free under
	// runtime.Map) and merged in run order after the fan-out.
	var expRegs []*stats.Registry

	// render runs one experiment and returns its full text block, so
	// concurrent experiments never interleave on stdout.
	render := func(slot int, id string) string {
		e, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		tab := e.fn(opts)
		elapsed := time.Since(start).Round(time.Millisecond)
		if tab.Telemetry != nil {
			expRegs[slot] = tab.Telemetry
		}
		leaked := 0
		if tab.Perf != nil {
			leaked = tab.Perf.Leaked()
			leakedTotal.Add(int64(leaked))
		}
		if *jsonOut {
			var b strings.Builder
			enc := json.NewEncoder(&b)
			for _, m := range tab.Metrics(id, *seed) {
				if err := enc.Encode(m); err != nil {
					fmt.Fprintf(os.Stderr, "json encode: %v\n", err)
					os.Exit(1)
				}
			}
			if leaked > 0 {
				enc.Encode(experiments.Metric{
					Exp: id, Metric: "leaked_packets", Value: float64(leaked), Unit: "packets", Seed: *seed,
				})
			}
			return b.String()
		}
		var b strings.Builder
		b.WriteString(tab.Format())
		if perf := tab.PerfSummary(); perf != "" {
			fmt.Fprintf(&b, "[%s perf: %s]\n", id, perf)
		}
		if leaked > 0 {
			fmt.Fprintf(&b, "[%s LEAK: %d pooled packets never returned]\n", id, leaked)
		}
		fmt.Fprintf(&b, "[%s completed in %v]\n\n", id, elapsed)
		return b.String()
	}

	var run []string
	if *exp == "all" {
		run = ids
	} else {
		for _, id := range strings.Split(*exp, ",") {
			run = append(run, strings.TrimSpace(id))
		}
	}

	// Experiments are independent of each other: fan them out on the same
	// worker pool and print the buffered blocks in id order.
	expRegs = make([]*stats.Registry, len(run))
	outs := runtime.Map(runtime.Runner{Workers: *workers}, len(run), func(i int) string {
		return render(i, run[i])
	})
	for _, out := range outs {
		fmt.Print(out)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, *metricsFormat, expRegs); err != nil {
			fmt.Fprintf(os.Stderr, "ebsbench: metrics: %v\n", err)
			prof.Stop()
			os.Exit(1)
		}
	}
	if n := leakedTotal.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "ebsbench: %d pooled packets leaked across experiments\n", n)
		prof.Stop()
		os.Exit(1)
	}
}

// writeMetrics merges the per-experiment registries in run order (each
// already carries its experiment prefix, e.g. "fig6/solar/...") and writes
// the result in the requested format.
func writeMetrics(path, format string, regs []*stats.Registry) error {
	merged := stats.NewRegistry()
	for _, reg := range regs {
		if reg != nil {
			merged.Merge(reg, "")
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "openmetrics" {
		if err := merged.WriteOpenMetrics(f); err != nil {
			return err
		}
	} else {
		if err := merged.WriteJSON(f); err != nil {
			return err
		}
	}
	return f.Close()
}
