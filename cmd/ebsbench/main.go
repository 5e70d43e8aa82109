// Command ebsbench regenerates the paper's tables and figures. Each
// experiment id maps to one table or figure of the evaluation:
//
//	ebsbench -exp fig6            # 4KB latency breakdown, kernel/luna/solar
//	ebsbench -exp table2 -quick   # failure scenarios at reduced scale
//	ebsbench -exp all             # everything, experiments running in parallel
//	ebsbench -exp fig6 -metrics-out METRICS.json  # plus the §4.5 telemetry as JSON
//
// Independent experiments (and the independent cells inside each one) run as
// share-nothing simulation shards on a worker pool; -workers 1 forces a fully
// serial run that produces bit-identical tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

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
	"rdmacliff": {experiments.RDMACliff, "RDMA connection-scalability cliff (the §3.1 FN rejection)"},
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
	metricsOut := fs.String("metrics-out", "", "write the merged observability registry of all experiments here (e.g. METRICS.json)")
	profileDir := fs.String("profile", "", "write cpu.pprof (whole run) and heap.pprof (at exit) into this directory")
	list := fs.Bool("list", false, "list experiments")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *exp == "" && *metricsOut != "" {
		fmt.Fprintln(stderr, "ebsbench: -metrics-out needs -exp (try -list)")
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "ebsbench: -workers %d is negative (0 = GOMAXPROCS, 1 = serial)\n", *workers)
		return 2
	}

	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// Resolve every requested id before anything runs: a typo must not
	// cost the experiments listed ahead of it, and a repeated id would run
	// twice and count twice in -metrics-out.
	var sel []string
	if *exp == "all" {
		sel = ids
	} else if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := registry[id]; !ok {
				fmt.Fprintf(stderr, "ebsbench: unknown experiment %q in -exp (try -list)\n", id)
				return 2
			}
			if slices.Contains(sel, id) {
				fmt.Fprintf(stderr, "ebsbench: experiment %q given twice in -exp\n", id)
				return 2
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

	opts := experiments.Options{Seed: *seed, Quick: *quick, Workers: *workers}

	// Every experiment shard asserts that its cluster returned all pooled
	// packets and that every read passed workload.Driver's consistency
	// check; any leak or
	// mismatch fails the whole run (after all output is printed).
	var leakedTotal atomic.Int64

	// Telemetry registries are collected per experiment slot (race-free under
	// runtime.Map) and merged in run order after the fan-out; -metrics-out
	// decides only whether they are written.
	expRegs := make([]*stats.Registry, len(sel))

	// render runs one experiment and returns its full text block, so
	// concurrent experiments never interleave on stdout.
	render := func(slot int) string {
		id := sel[slot]
		start := time.Now()
		tab := registry[id].fn(opts)
		elapsed := time.Since(start).Round(time.Millisecond)
		expRegs[slot] = tab.Telemetry
		leaked, failed, failErr := 0, 0, error(nil)
		if tab.Perf != nil {
			leaked = tab.Perf.Leaked()
			failed, failErr = tab.Perf.Failed()
			leakedTotal.Add(int64(leaked + failed))
		}
		var b strings.Builder
		b.WriteString(tab.Format())
		if perf := tab.PerfSummary(); perf != "" {
			fmt.Fprintf(&b, "[%s perf: %s]\n", id, perf)
		}
		if leaked > 0 {
			fmt.Fprintf(&b, "[%s LEAK: %d pooled packets, records or store pages never returned]\n", id, leaked)
		}
		if failed > 0 {
			fmt.Fprintf(&b, "[%s MISMATCH: %d reads returned the wrong block; first: %v]\n", id, failed, failErr)
		}
		fmt.Fprintf(&b, "[%s completed in %v]\n\n", id, elapsed)
		return b.String()
	}

	// Experiments are independent of each other: fan them out on the same
	// worker pool and print the buffered blocks in id order.
	for _, out := range runtime.Map(runtime.Runner{Workers: *workers}, len(sel), render) {
		fmt.Fprint(stdout, out)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, expRegs); err != nil {
			fmt.Fprintf(stderr, "ebsbench: metrics: %v\n", err)
			return 1
		}
	}
	if n := leakedTotal.Load(); n > 0 {
		fmt.Fprintf(stderr, "ebsbench: %d leaked packets, records or pages and mismatched reads across experiments\n", n)
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
