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
	// Telemetry, when set, has experiments that support it export each
	// cluster's observability state (per-component latency histograms,
	// per-switch counters, per-path INT summaries) into Table.Telemetry,
	// merged in shard order under per-cell prefixes. The counters behind
	// the export are always counted; the formatted table is identical
	// either way.
	Telemetry bool
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
// When the label cells do not tell the rows apart (fig3's hours, fig14's
// core counts), the leftmost all-numeric column that does joins the
// label as "<column>=<cell>" and is not emitted as a value.
func (t *Table) Metrics(exp string, seed int64) []Metric {
	key := -1
	if !t.uniqueNames(key) {
		for i := range t.Columns {
			if t.numericColumn(i) && t.uniqueNames(i) {
				key = i
				break
			}
		}
	}
	var out []Metric
	for _, row := range t.Rows {
		name := t.rowName(row, key)
		for i, cell := range row {
			if i >= len(t.Columns) || i == key {
				continue
			}
			v, ok := numeric(cell)
			if !ok {
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

func numeric(cell string) (float64, bool) {
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	return v, err == nil
}

// rowName joins the row's non-numeric cells and, unless key is -1, the
// key column as "<column>=<cell>", in column order.
func (t *Table) rowName(row []string, key int) string {
	var labels []string
	for i, cell := range row {
		if i >= len(t.Columns) {
			break
		}
		cell = strings.TrimSpace(cell)
		if i == key {
			labels = append(labels, t.Columns[i]+"="+cell)
		} else if _, ok := numeric(cell); !ok {
			labels = append(labels, cell)
		}
	}
	return strings.Join(labels, "/")
}

// uniqueNames reports whether rowName with this key names every row
// differently.
func (t *Table) uniqueNames(key int) bool {
	seen := make(map[string]bool, len(t.Rows))
	for _, row := range t.Rows {
		name := t.rowName(row, key)
		if seen[name] {
			return false
		}
		seen[name] = true
	}
	return true
}

// numericColumn reports whether column i holds a number in every row.
func (t *Table) numericColumn(i int) bool {
	for _, row := range t.Rows {
		if i >= len(row) {
			return false
		}
		if _, ok := numeric(row[i]); !ok {
			return false
		}
	}
	return true
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
