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
	"strconv"
	"strings"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/cc"
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
	// CoupledWorkers bounds the goroutines driving the partitions of a
	// coupled (single-fabric, conservatively time-synchronized) experiment.
	// 0 uses GOMAXPROCS; 1 forces serial window execution. The partition
	// count is fixed by each coupled experiment's scenario, so the output is
	// byte-identical for every CoupledWorkers value — the property the
	// coupled differential gate checks.
	CoupledWorkers int
	// Telemetry, when set, has experiments that support it export each
	// cluster's observability state (per-component latency histograms,
	// per-switch counters, per-path INT summaries) into Table.Telemetry,
	// merged in shard order under per-cell prefixes. The counters behind
	// the export are always counted; the formatted table is identical
	// either way.
	Telemetry bool
	// Fidelity selects the diurnal campaign's simulation fidelity (ebsbench
	// -fidelity); no other experiment reads it. The zero value is full
	// packet fidelity; FidelityHybrid fluid-fast-forwards quiescent bulk
	// flows (see internal/simnet/flow.go).
	Fidelity Fidelity
	// CC selects the congestion controller of every RDMA stack the
	// experiment builds (ebsbench -cc). The zero value is the static
	// window; the CC-matrix experiments sweep all three regardless.
	CC cc.Kind
}

// config returns ebs.DefaultConfig(fn) carrying the run's seed and mode
// selections — the one place Options reach an ebs.Config.
func (o Options) config(fn ebs.StackKind) ebs.Config {
	cfg := ebs.DefaultConfig(fn)
	cfg.Seed, cfg.CC = o.Seed, o.CC
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
// engine counters and packet-leak count (Cluster.Leaked) into the fleet's
// Perf, so cmd/ebsbench can assert that every experiment returned all
// pooled packets.
func runCells[T any](f *runtime.Fleet, n int, job func(shard int) (T, *ebs.Cluster)) []T {
	return runtime.Run(f, n, func(shard int) (T, *sim.Engine) {
		v, c := job(shard)
		observeLeaks(&f.Perf, c)
		return v, c.Eng
	})
}

// observeLeaks folds c's packet-leak count (Cluster.Leaked) into p. On a
// leak it dumps c's flight recorders to stderr first: their last anomalous
// events point at the stack that lost the packet.
func observeLeaks(p *runtime.Perf, c *ebs.Cluster) {
	n := c.Leaked()
	if n > 0 {
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

	// Telemetry, when the experiment ran with Options.Telemetry, holds the
	// merged observability registry of every cluster the experiment drove,
	// with per-cell prefixes (e.g. "fig6/solar/lat/write/e2e"). Nil
	// otherwise. It is deliberately not part of Format: the formatted table
	// is byte-identical with telemetry on or off.
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

// Metric is one machine-readable result row, emitted by the CLI's -json
// mode: the experiment id, a metric path built from the row's label cells,
// the numeric value, the column header as its unit, and the seed that
// produced it.
type Metric struct {
	Exp    string  `json:"exp"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Seed   int64   `json:"seed"`
}

// Metrics flattens the table into metric rows: every numeric cell becomes
// one row, named by the row's non-numeric label cells plus the column
// header. Non-numeric cells (labels, "-", compound values) are skipped.
func (t *Table) Metrics(exp string, seed int64) []Metric {
	var out []Metric
	for _, row := range t.Rows {
		var labels []string
		for i, cell := range row {
			if i >= len(t.Columns) {
				break
			}
			if _, err := strconv.ParseFloat(strings.TrimSpace(cell), 64); err != nil {
				labels = append(labels, strings.TrimSpace(cell))
			}
		}
		name := strings.Join(labels, "/")
		for i, cell := range row {
			if i >= len(t.Columns) {
				break
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				continue
			}
			metric := t.Columns[i]
			if name != "" {
				metric = name + "/" + t.Columns[i]
			}
			out = append(out, Metric{Exp: exp, Metric: metric, Value: v, Unit: t.Columns[i], Seed: seed})
		}
	}
	return out
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
