package experiments

import (
	"strconv"
	"strings"
	"testing"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
)

func quickOpts() Options { return Options{Seed: 1, Quick: true} }

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("no cell (%d,%d) in %q", row, col, tab.Title)
	}
	return tab.Rows[row][col]
}

func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell(t, tab, row, col)), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, cell(t, tab, row, col))
	}
	return v
}

// A drained shard that still holds a pooled packet is a leak:
// runFabricCells counts it into the fleet's Perf, whose total is how
// ebsbench fails the run.
func TestRunFabricCellsCountsLeaks(t *testing.T) {
	fleet := Options{Seed: 1, Workers: 2}.fleet()
	runFabricCells(fleet, 2, func(shard int) (struct{}, *sim.Engine, *simnet.Fabric) {
		eng := sim.NewEngine(1)
		cfg := simnet.DefaultConfig()
		cfg.RacksPerPod, cfg.HostsPerRack = 1, 1
		fab := simnet.New(eng, cfg)
		pkt := fab.Pool().Get(64)
		if shard == 1 {
			pkt.Release()
		}
		eng.Run()
		return struct{}{}, eng, fab
	})
	if got := fleet.Perf.Leaked(); got != 1 {
		t.Errorf("Leaked() = %d, want 1: one of two drained shards kept its packet", got)
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	out := tab.Format()
	for _, want := range []string{"=== demo ===", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Shares(t *testing.T) {
	tab := Fig3(quickOpts())
	if len(tab.Rows) == 0 {
		t.Fatal("empty")
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "EBS share of TX traffic: 63%") {
			found = true
		}
	}
	if !found {
		t.Fatalf("TX share off: %v", tab.Notes)
	}
}

func TestFig4Peak(t *testing.T) {
	tab := Fig4(quickOpts())
	if len(tab.Rows) != 24 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Midday average should exceed the overnight average by ≥2x.
	night := cellF(t, tab, 2, 1)
	midday := cellF(t, tab, 14, 1)
	if midday < 2*night {
		t.Fatalf("no diurnal swing: %v vs %v", night, midday)
	}
}

func TestFig5FortyPercent(t *testing.T) {
	tab := Fig5(quickOpts())
	// Row for 4K: write RPC CDF ~40%.
	var at4k float64
	for i, row := range tab.Rows {
		if row[0] == "4K" {
			at4k = cellF(t, tab, i, 4)
		}
	}
	if at4k < 35 || at4k > 50 {
		t.Fatalf("P(RPC write<=4K) = %v%%", at4k)
	}
}

func TestFig11AllDetected(t *testing.T) {
	tab := Fig11(quickOpts())
	for i := range tab.Rows {
		injected := cellF(t, tab, i, 1)
		detected := cellF(t, tab, i, 3)
		if injected != detected {
			t.Fatalf("%s: %v injected, %v detected", tab.Rows[i][0], injected, detected)
		}
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	tab := Table3(quickOpts())
	want := map[string][2]float64{
		"Addr": {5.1, 8.1}, "Block": {0.2, 8.6}, "QoS": {0.1, 0.4},
		"SEC": {2.8, 0.9}, "CRC": {0.3, 0.0},
	}
	for i, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			continue
		}
		lut, bram := cellF(t, tab, i, 1), cellF(t, tab, i, 2)
		if diff(lut, w[0]) > 0.3 || diff(bram, w[1]) > 0.6 {
			t.Fatalf("%s: %v/%v, paper %v/%v", row[0], lut, bram, w[0], w[1])
		}
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestFig6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tab := Fig6(quickOpts())
	// Panel (c) write p50: rows 6,7,8 are kernel/luna/solar e2e (col 6).
	kernel := cellF(t, tab, 6, 6)
	luna := cellF(t, tab, 7, 6)
	solar := cellF(t, tab, 8, 6)
	if !(kernel > luna && luna > solar) {
		t.Fatalf("ordering violated: %v/%v/%v", kernel, luna, solar)
	}
}

func TestFig14SolarWins(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	o := quickOpts()
	luna1, _ := runFio(o, ebs.Luna, 1, 4096)
	solar1, _ := runFio(o, ebs.Solar, 1, 4096)
	if solar1 <= luna1 {
		t.Fatalf("solar (%v) should beat luna (%v) at one core", solar1, luna1)
	}
}

// TestRDMACliffShape gates the §3.1 cliff: no QP-context misses while the
// connections fit the NIC cache, misses on every row beyond it, and the
// aggregate throughput past the cache at most 0.85× the best at or below it.
func TestRDMACliffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tab := RDMACliff(quickOpts())
	var bestFit, bestOver float64
	for r := range tab.Rows {
		conns, cache := cellF(t, tab, r, 0), cellF(t, tab, r, 1)
		krps, misses := cellF(t, tab, r, 3), cellF(t, tab, r, 4)
		if conns <= cache {
			if misses != 0 {
				t.Errorf("%v connections within a %v-QP cache: %v misses/RPC, want 0", conns, cache, misses)
			}
			bestFit = max(bestFit, krps)
		} else {
			if !(misses > 0) {
				t.Errorf("%v connections over a %v-QP cache: %v misses/RPC, want > 0", conns, cache, misses)
			}
			bestOver = max(bestOver, krps)
		}
	}
	if bestFit == 0 || bestOver == 0 {
		t.Fatalf("sweep lacks rows on both sides of the cache:\n%s", tab.Format())
	}
	if bestOver > 0.85*bestFit {
		t.Fatalf("past the cache: %v kRPC/s, want <= 0.85 x %v (best within it)\n%s", bestOver, bestFit, tab.Format())
	}
}
