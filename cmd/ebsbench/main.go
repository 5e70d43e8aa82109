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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, validates every selection
// before any simulation starts, runs the experiments and returns the exit
// status, so the -profile stop is one defer on every path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment id (fig3..fig15, table1..table3, or 'all')")
	quick := fs.Bool("quick", false, "reduced scale for a fast run")
	seed := fs.Int64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	coupledWorkers := fs.Int("coupled-workers", 0, "worker count driving a coupled experiment's fabric partitions (0 = GOMAXPROCS, 1 = serial windows; output is identical for every value)")
	jsonOut := fs.Bool("json", false, "emit one JSON metric row per line instead of tables")
	metricsOut := fs.String("metrics-out", "", "write the merged observability registry of all experiments here (e.g. METRICS.json)")
	ccFlag := fs.String("cc", "static", "congestion controller for every RDMA stack: static, dcqcn, or swift (the CC-matrix experiments sweep all three regardless)")
	fidelity := fs.String("fidelity", "packet", "simulation fidelity of the diurnal campaign: packet (every frame) or hybrid (fluid fast-forward of quiescent bulk flows)")
	profileDir := fs.String("profile", "", "write cpu.pprof (whole run) and heap.pprof (at exit) into this directory")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ccKind, ok := cc.ParseKind(*ccFlag)
	if !ok {
		fmt.Fprintf(stderr, "ebsbench: unknown -cc %q (static, dcqcn, or swift)\n", *ccFlag)
		return 1
	}
	fid, err := experiments.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintf(stderr, "ebsbench: %v\n", err)
		return 1
	}
	if *exp == "" && (*jsonOut || *metricsOut != "") {
		fmt.Fprintln(stderr, "ebsbench: -json and -metrics-out need -exp (try -list)")
		return 2
	}

	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// Resolve every requested id before anything runs: a typo must not
	// cost the experiments listed ahead of it.
	var sel []string
	if *exp == "all" {
		sel = ids
	} else if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := registry[id]; !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", id)
				return 1
			}
			sel = append(sel, id)
		}
	}

	if *list || *exp == "" {
		wid := 0
		for _, id := range ids {
			if len(id) > wid {
				wid = len(id)
			}
		}
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range ids {
			fmt.Fprintf(stdout, "  %-*s  %s\n", wid, id, registry[id].brief)
		}
		if *exp == "" {
			return 0
		}
	}

	if *profileDir != "" {
		prof, err := startProfile(*profileDir)
		if err != nil {
			fmt.Fprintf(stderr, "ebsbench: profile: %v\n", err)
			return 1
		}
		defer prof.Stop()
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Workers: *workers,
		CoupledWorkers: *coupledWorkers, Telemetry: *metricsOut != "", Fidelity: fid, CC: ccKind}

	// Every experiment shard asserts that its cluster returned all pooled
	// packets; any leak fails the whole run (after all output is printed).
	var leakedTotal atomic.Int64

	// Telemetry registries are collected per experiment slot (race-free under
	// runtime.Map) and merged in run order after the fan-out.
	expRegs := make([]*stats.Registry, len(sel))

	// render runs one experiment and returns its full text block, so
	// concurrent experiments never interleave on stdout.
	type block struct {
		out string
		err error
	}
	render := func(slot int) block {
		id := sel[slot]
		start := time.Now()
		tab := registry[id].fn(opts)
		elapsed := time.Since(start).Round(time.Millisecond)
		if tab.Telemetry != nil {
			expRegs[slot] = tab.Telemetry
		}
		leaked := 0
		if tab.Perf != nil {
			leaked = tab.Perf.Leaked()
			leakedTotal.Add(int64(leaked))
		}
		var b strings.Builder
		if *jsonOut {
			rows := tab.Metrics(id, *seed)
			if leaked > 0 {
				rows = append(rows, experiments.Metric{
					Exp: id, Metric: "leaked_packets", Value: float64(leaked), Unit: "packets", Seed: *seed,
				})
			}
			enc := json.NewEncoder(&b)
			for _, m := range rows {
				if err := enc.Encode(m); err != nil {
					return block{err: fmt.Errorf("%s: json encode: %w", id, err)}
				}
			}
			return block{out: b.String()}
		}
		b.WriteString(tab.Format())
		if perf := tab.PerfSummary(); perf != "" {
			fmt.Fprintf(&b, "[%s perf: %s]\n", id, perf)
		}
		if leaked > 0 {
			fmt.Fprintf(&b, "[%s LEAK: %d pooled packets or records never returned]\n", id, leaked)
		}
		fmt.Fprintf(&b, "[%s completed in %v]\n\n", id, elapsed)
		return block{out: b.String()}
	}

	// Experiments are independent of each other: fan them out on the same
	// worker pool and print the buffered blocks in id order.
	for _, b := range runtime.Map(runtime.Runner{Workers: *workers}, len(sel), render) {
		if b.err != nil {
			fmt.Fprintf(stderr, "ebsbench: %v\n", b.err)
			return 1
		}
		fmt.Fprint(stdout, b.out)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, expRegs); err != nil {
			fmt.Fprintf(stderr, "ebsbench: metrics: %v\n", err)
			return 1
		}
	}
	if n := leakedTotal.Load(); n > 0 {
		fmt.Fprintf(stderr, "ebsbench: %d pooled packets or records leaked across experiments\n", n)
		return 1
	}
	return 0
}

// writeMetrics merges the per-experiment registries in run order (each
// already carries its experiment prefix, e.g. "fig6/solar/...") and writes
// the result as JSON.
func writeMetrics(path string, regs []*stats.Registry) error {
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
	if err := merged.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}
