// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function returning a structured result
// with a Format method that prints the same rows/series the paper reports;
// cmd/ebsbench and the repository benchmarks are thin wrappers around this
// package.
//
// Absolute numbers come from the simulated substrate, so they are not the
// authors' testbed numbers; the shapes — who wins, by what factor, where
// the crossovers fall — are the reproduction target. EXPERIMENTS.md records
// paper-vs-measured for every row.
package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/sim/runtime"
	"lunasolar/internal/simnet"
	"lunasolar/internal/stats"
)

// Options tunes experiment scale. Quick reduces sample counts and cluster
// sizes so the full suite runs in seconds (used by tests and -short
// benches); the defaults match the numbers reported in EXPERIMENTS.md.
type Options struct {
	Seed  int64
	Quick bool
	// Workers bounds the shard pool used to run independent cluster cells
	// in parallel. 0 uses GOMAXPROCS; 1 forces the serial order (for
	// determinism regression tests). Results are merged in shard order, so
	// the output is identical for every Workers value.
	Workers int
}

// config returns ebs.DefaultConfig(fn) carrying the run's seed — the one
// place Options reach an ebs.Config.
func (o Options) config(fn ebs.StackKind) ebs.Config {
	cfg := ebs.DefaultConfig(fn)
	cfg.Seed = o.Seed
	return cfg
}

// fleet returns a fresh share-nothing fleet for one experiment; its Perf is
// attached to the experiment's Table so callers can report simulator
// throughput next to the simulated results.
func (o Options) fleet() *runtime.Fleet {
	return &runtime.Fleet{Runner: runtime.Runner{Workers: o.Workers}}
}

func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// runCells runs one share-nothing cluster cell per shard. Each job returns
// its result plus the cluster it drove; the helper folds the cluster's
// engine counters (failed read checks among them) and packet-leak count
// (Cluster.Leaked) into the fleet's Perf, so cmd/ebsbench can assert that
// every experiment returned all pooled packets and read back what it wrote.
func runCells[T any](f *runtime.Fleet, n int, job func(shard int) (T, *ebs.Cluster)) []T {
	return runtime.Run(f, n, func(shard int) (T, *sim.Engine) {
		v, c := job(shard)
		observeLeaks(&f.Perf, c)
		return v, c.Eng
	})
}

// observeLeaks folds c's packet-leak count (Cluster.Leaked) into p. On a
// leak or a failed read check it dumps c's flight recorders to stderr
// first: their last anomalous events point at the stack at fault.
func observeLeaks(p *runtime.Perf, c *ebs.Cluster) {
	n := c.Leaked()
	if failed, _ := c.Eng.Failed(); n > 0 || failed > 0 {
		c.DumpFlightRecorders(os.Stderr)
	}
	p.ObserveLeaked(n)
}

// runFabricCells is runCells for experiments that drive a raw fabric
// without an ebs.Cluster (the stack microbenchmarks). The same rule
// applies: a drained engine must have zero packets and zero pooled records
// outstanding; a shard stopped mid-run (RunFor with traffic in flight) is
// exempt.
func runFabricCells[T any](f *runtime.Fleet, n int, job func(shard int) (T, *sim.Engine, *simnet.Fabric)) []T {
	return runtime.Run(f, n, func(shard int) (T, *sim.Engine) {
		v, eng, fab := job(shard)
		if eng.Pending() == 0 {
			f.Perf.ObserveLeaked(int(fab.Pool().Outstanding()) + eng.PoolOutstanding())
		}
		return v, eng
	})
}

// Table is a generic formatted result: a title, column headers, and rows.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// Perf, when set, carries the fleet's simulator-throughput counters for
	// the runs behind this table (events/sec, simulated time per wall time).
	Perf *runtime.Perf

	// Telemetry, for the experiments that export it (Fig 6 and Table 2),
	// holds the merged observability registry of every cluster the
	// experiment drove, with per-cell prefixes (e.g.
	// "fig6/solar/lat/write/e2e"): per-component latency histograms,
	// per-switch counters and per-path INT summaries. Nil for the others.
	// It is not part of Format.
	Telemetry *stats.Registry
}

// PerfSummary renders the simulator's cost — events executed, event rate
// and simulated time per wall time — or "" when the experiment ran no
// simulation shards. Event counts are cost, not output: they stay out of
// the table itself.
func (t *Table) PerfSummary() string {
	if t.Perf == nil || t.Perf.Shards() == 0 {
		return ""
	}
	return fmt.Sprintf("%d shards, %.2fM events, %.2fM events/sec, %.0f sim-µs per wall-ms",
		t.Perf.Shards(), float64(t.Perf.Events())/1e6, t.Perf.EventsPerSec()/1e6, t.Perf.SimMicrosPerWallMs())
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
