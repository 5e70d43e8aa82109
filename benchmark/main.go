// Command benchmark is the repository's benchmark: four workloads, nine
// end-to-end metrics, per-layer rigs and a traced, profiled run. See
// README.md in this directory for what each number means and why each
// workload exists.
//
//	benchmark -workload solar_write4k -seed 1 -seconds 15 -trace 0   one end-to-end run
//	benchmark -workload solar_write4k -seed 1 -seconds 15 -trace 1   layer rigs + traced run
//	benchmark -all [-runs N] [-out set.json]                         one or more full sets
//	benchmark -layers                                                layer rigs only
//	benchmark -compare old.json new.json                             verdict per (workload, metric)
//
// The last line of standard output of a -workload run is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the workload's inputs and the simulated cluster")
	seconds := fs.Float64("seconds", refSeconds, "nominal measured seconds; fixes the op count")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (rigs + traced run)")
	all := fs.Bool("all", false, "run every workload once, tracing off, and print every end-to-end metric")
	runs := fs.Int("runs", 1, "with -all: how many sets to run, seeds seed, seed+1, ...")
	layers := fs.Bool("layers", false, "run the layer rigs only")
	out := fs.String("out", "", "append the runs to this JSON report (input of -compare)")
	traceOut := fs.String("trace-out", ".bench_build/trace", "directory for a traced run's spans and profiles")
	compare := fs.Bool("compare", false, "compare two reports: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := guardEnvironment(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// One driver goroutine does all the work; the second P is for the
	// garbage collector.
	runtime.GOMAXPROCS(2)

	switch {
	case *layers:
		printMetrics(os.Stdout, "layers", perLayer, runLayerRigs(*seconds/refSeconds))
		return 0
	case *all:
		return runSets(*seed, *seconds, *runs, *out)
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		if *traceMode == 1 {
			return runTraced(w, *seed, *seconds, *traceOut)
		}
		return runEndToEnd(w, *seed, *seconds, *out)
	}
	fs.Usage()
	return 2
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// guardEnvironment refuses to measure a simulator whose behaviour an
// environment hatch has changed.
func guardEnvironment() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "LUNASOLAR_") {
			return fmt.Errorf("%s is set; the benchmark measures the default configuration only", strings.SplitN(kv, "=", 2)[0])
		}
	}
	return nil
}

// contractLine is the object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emitContract(r *runResult, specs []metricSpec, values map[string]float64) int {
	line := contractLine{
		Correct:   len(r.bad) == 0,
		Attempted: r.ops,
		Failed:    r.unexpected,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s was not measured\n", m.name)
			return 1
		}
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for _, b := range r.bad {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED CHECK:", b)
	}
	js, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(js))
	if !line.Correct {
		return 1
	}
	return 0
}

// measureEndToEnd runs one workload with tracing off and prints its
// metrics.
func measureEndToEnd(w *workloadSpec, seed int64, seconds float64) (*runResult, map[string]float64, error) {
	r, err := runWorkload(w, runOptions{seed: seed, seconds: seconds, setups: setupRepeats})
	if err != nil {
		return nil, nil, err
	}
	values := r.endToEndValues()
	printRun(os.Stdout, r, values)
	return r, values, nil
}

// runEndToEnd is one contract run with tracing off.
func runEndToEnd(w *workloadSpec, seed int64, seconds float64, out string) int {
	r, values, err := measureEndToEnd(w, seed, seconds)
	if err == nil && out != "" {
		err = appendReport(out, []reportRun{newReportRun(r, values)})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return emitContract(r, endToEnd, values)
}

// runSets runs every workload, tracing off, n times over consecutive
// seeds, printing every end-to-end metric by name with its unit.
func runSets(seed int64, seconds float64, n int, out string) int {
	code := 0
	var runs []reportRun
	for i := 0; i < n; i++ {
		for wi := range workloads {
			r, values, err := measureEndToEnd(&workloads[wi], seed+int64(i), seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for _, b := range r.bad {
				fmt.Fprintln(os.Stderr, "benchmark: FAILED CHECK:", b)
				code = 1
			}
			runs = append(runs, newReportRun(r, values))
		}
	}
	if out != "" {
		if err := appendReport(out, runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// printRun prints one run's end-to-end metrics, the slice quartiles
// behind the host timing, and the per-cell simulated outcome.
func printRun(w *os.File, r *runResult, values map[string]float64) {
	fmt.Fprintf(w, "# %s seed=%d ops=%d (target %d) completed=%d failed=%d open=%d wall=%.2fs\n",
		r.workload, r.seed, r.ops, r.target, r.completed, r.failed, r.open, r.wall.Seconds())
	printMetrics(w, r.workload, endToEnd, values)
	q := quartiles(r.sliceUs)
	fmt.Fprintf(w, "%-16s %-28s q1=%.4f median=%.4f q3=%.4f us/op over n=%d slices\n", r.workload, "wall_us_per_op.slices", q[0], q[1], q[2], len(r.sliceUs))
	if len(r.cells) > 1 {
		for _, c := range r.cells {
			fmt.Fprintf(w, "%-16s cell %-24s ops=%d failed=%d open=%d\n", r.workload, c.Name, c.Ops, c.Failed, c.Open)
		}
	}
}

// printMetrics prints name, value and unit of every metric of specs that
// values holds, one per line, in spec order.
func printMetrics(w *os.File, scope string, specs []metricSpec, values map[string]float64) {
	for _, m := range specs {
		if v, ok := values[m.name]; ok {
			fmt.Fprintf(w, "%-16s %-28s %14.4f %s\n", scope, m.name, v, m.unit)
		}
	}
}
