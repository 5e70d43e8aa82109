package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times each cell is set up in an end-to-end
// run; setup_s is the median.
const setupRepeats = 3

// runOptions selects what one workload run records.
type runOptions struct {
	seed    int64
	seconds float64
	traced  bool      // record spans, keep the latency breakdown
	setups  int       // set-ups per cell (median reported)
	prof    *profiler // profiles each measured phase; nil when untraced
}

// cellReport is one cell's simulated outcome, for the printed breakdown.
type cellReport struct {
	Name   string `json:"name"`
	Ops    int    `json:"ops"`
	Failed int    `json:"failed"`
	Open   int    `json:"open"`
}

// runResult is everything one run of one workload measured.
type runResult struct {
	workload string
	seed     int64
	target   int // the fixed op count this run was sized for

	ops, completed, failed, open int
	// unexpected counts failed ops in cells where none may fail: the
	// contract's "failed". An I/O that hangs under a fault its stack
	// cannot mask is the simulator's correct output, not a failure of
	// the program under test.
	unexpected int
	cells      []cellReport
	bad        []string // failed correctness checks

	setupS  float64
	wall    time.Duration // measured phases, summed over cells
	sliceUs []float64     // wall us per op of every slice
	virt    time.Duration
	mallocs uint64
	bytes   uint64
	events  uint64
	counts  layerCounts
	lat     []uint32    // sorted
	comp    [4][]uint32 // SA, FN, BN, SSD; sorted
	spans   []span
	peakRSS float64 // MiB
}

// span is one recorded interval: slices in host time, ops in virtual
// time, each naming the span that caused it.
type span struct {
	ID     int
	Parent int
	Name   string
	Clock  string // "host" or "sim"
	Start  int64  // ns since the run began (host) or since time zero (sim)
	End    int64
}

// phase is one instance's measured phase.
type phase struct {
	sliceWall []time.Duration
	sliceOps  []int
	mallocs   uint64
	bytes     uint64
	events    uint64
	counts    layerCounts
	out       outcome
	bad       []string
}

// measure runs inst's measured phase slice by slice.
func measure(inst instance, prof *profiler) phase {
	var ph phase
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, e := range inst.engines() {
		ph.events -= e.Processed()
	}
	prof.begin()
	prev, prevOps := time.Now(), 0
	for k := 1; k <= numSlices; k++ {
		inst.step(k)
		now, n := time.Now(), inst.done()
		ph.sliceWall = append(ph.sliceWall, now.Sub(prev))
		ph.sliceOps = append(ph.sliceOps, n-prevOps)
		prev, prevOps = now, n
	}
	prof.end()
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.bytes = m1.TotalAlloc - m0.TotalAlloc
	for _, e := range inst.engines() {
		ph.events += e.Processed()
	}
	ph.counts = inst.counters()
	ph.out, ph.bad = inst.finish()
	return ph
}

// runWorkload sets up and measures every cell of a workload, one after
// another, on the calling goroutine.
//
// Each cell is set up opt.setups times. A single-cell workload measures
// the last instance: its 20 slices are 20 samples of one steady load, and
// their median is the host timing. A multi-cell workload (failover_storm)
// has no such redundancy inside a cell — a fault window's slices differ —
// so it measures every instance it set up: the repeats do identical
// simulated work, and each slice's time is the median over them.
func runWorkload(w *workloadSpec, opt runOptions) (*runResult, error) {
	ops := w.opsFor(opt.seconds)
	res := &runResult{workload: w.name, seed: opt.seed, target: ops}
	cells := cellsFor(w)
	epoch := time.Now()
	for _, cell := range cells {
		var setups []float64
		var phases []phase
		var began time.Time
		for r := 0; r < opt.setups; r++ {
			runtime.GC() // the previous instance's garbage is not this set-up's cost
			t := time.Now()
			inst, err := cell.build(opt.seed, ops, opt.traced)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", cell.name, err)
			}
			setups = append(setups, time.Since(t).Seconds())
			if len(cells) > 1 || r == opt.setups-1 {
				began = time.Now()
				phases = append(phases, measure(inst, opt.prof))
			}
		}
		res.setupS += median(setups)

		// The simulated work of every repeat is the same; take the counts
		// from the last and the slice times as medians over all.
		ph := phases[len(phases)-1]
		for _, other := range phases[:len(phases)-1] {
			if other.out.ops != ph.out.ops || other.events != ph.events || other.out.failed != ph.out.failed {
				res.bad = append(res.bad, fmt.Sprintf("%s: repeats of one seed diverged: ops %d/%d events %d/%d failed %d/%d",
					cell.name, other.out.ops, ph.out.ops, other.events, ph.events, other.out.failed, ph.out.failed))
			}
		}
		cellSpan := len(res.spans)
		if opt.traced {
			res.spans = append(res.spans, span{ID: cellSpan, Parent: -1, Name: "cell:" + cell.name, Clock: "host", Start: began.Sub(epoch).Nanoseconds()})
		}
		at := began
		for k := range ph.sliceWall {
			var walls []float64
			for _, p := range phases {
				walls = append(walls, float64(p.sliceWall[k].Nanoseconds()))
			}
			wall := time.Duration(median(walls))
			res.wall += wall
			if n := ph.sliceOps[k]; n > 0 {
				res.sliceUs = append(res.sliceUs, float64(wall.Nanoseconds())/1e3/float64(n))
			}
			if opt.traced {
				res.spans = append(res.spans, span{
					ID: len(res.spans), Parent: cellSpan, Name: fmt.Sprintf("slice:%d", k+1), Clock: "host",
					Start: at.Sub(epoch).Nanoseconds(), End: at.Add(ph.sliceWall[k]).Sub(epoch).Nanoseconds(),
				})
				at = at.Add(ph.sliceWall[k])
			}
		}
		if opt.traced {
			res.spans[cellSpan].End = at.Sub(epoch).Nanoseconds()
		}

		o := ph.out
		for _, b := range ph.bad {
			res.bad = append(res.bad, cell.name+": "+b)
		}
		if cell.mustFail && o.failed == 0 {
			res.bad = append(res.bad, cell.name+": no I/O hung under a fault this stack cannot mask")
		}
		if !cell.mayFail && o.failed != 0 {
			res.unexpected += o.failed
			res.bad = append(res.bad, fmt.Sprintf("%s: %d of %d ops failed", cell.name, o.failed, o.ops))
		}
		if o.completed+o.failed+o.open != o.ops {
			res.bad = append(res.bad, fmt.Sprintf("%s: %d completed + %d failed + %d open != %d issued", cell.name, o.completed, o.failed, o.open, o.ops))
		}
		res.cells = append(res.cells, cellReport{Name: cell.name, Ops: o.ops, Failed: o.failed, Open: o.open})
		res.ops += o.ops
		res.completed += o.completed
		res.failed += o.failed
		res.open += o.open
		res.virt += o.virt
		res.mallocs += ph.mallocs
		res.bytes += ph.bytes
		res.events += ph.events
		res.counts.add(ph.counts)
		res.lat = append(res.lat, o.lat...)
		for i := range o.comp {
			res.comp[i] = append(res.comp[i], o.comp[i]...)
		}
		for _, s := range o.opSpans {
			res.spans = append(res.spans, span{
				ID: len(res.spans), Parent: cellSpan, Name: "op", Clock: "sim", Start: s.start, End: s.end,
			})
		}
	}
	if res.ops == 0 {
		return nil, fmt.Errorf("%s: no op was issued", w.name)
	}
	res.counts.ssdUtil /= float64(len(res.cells))
	slices.Sort(res.lat)
	for i := range res.comp {
		slices.Sort(res.comp[i])
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.peakRSS = rss
	return res, nil
}

// wallUsPerOp is the median slice where the measured phase is one steady
// load, and total wall over total ops where it is several different cells
// (a median across unlike cells would report one of them).
func (r *runResult) wallUsPerOp() float64 {
	if len(r.cells) == 1 && len(r.sliceUs) > 0 {
		return median(r.sliceUs)
	}
	return float64(r.wall.Nanoseconds()) / 1e3 / float64(r.ops)
}

// endToEndValues returns the nine end-to-end metrics in spec order.
func (r *runResult) endToEndValues() map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"wall_us_per_op":     r.wallUsPerOp(),
		"allocs_per_op":      float64(r.mallocs) / ops,
		"alloc_bytes_per_op": float64(r.bytes) / ops,
		"peak_rss_mb":        r.peakRSS,
		"sim_lat_p50_us":     quantileNs(r.lat, 0.5) / 1e3,
		"sim_lat_p999_us":    quantileNs(r.lat, 0.999) / 1e3,
		"sim_kops":           ops / r.virt.Seconds() / 1e3,
		"op_ok_share":        1 - float64(r.failed)/ops,
		"setup_s":            r.setupS,
	}
}

// tracedValues returns the per-layer metrics a traced run reads from
// counters and spans (the profile shares are added by the caller).
func (r *runResult) tracedValues() map[string]float64 {
	ops := float64(r.ops)
	out := map[string]float64{
		"sim.events_per_op":      float64(r.events) / ops,
		"sim.ns_per_event":       float64(r.wall.Nanoseconds()) / float64(r.events),
		"chunkserver.crc_errors": float64(r.counts.n[cCRCErrors]),
		"chunkserver.ssd_util":   r.counts.ssdUtil,
		"span.sa_p50_us":         quantileNs(r.comp[0], 0.5) / 1e3,
		"span.fn_p50_us":         quantileNs(r.comp[1], 0.5) / 1e3,
		"span.bn_p50_us":         quantileNs(r.comp[2], 0.5) / 1e3,
		"span.ssd_p50_us":        quantileNs(r.comp[3], 0.5) / 1e3,
	}
	for c, name := range counterMetric {
		if name != "" {
			out[name] = float64(r.counts.n[c]) / ops
		}
	}
	return out
}

// quantileNs returns the q-quantile of sorted v (nanoseconds) by nearest
// rank; 0 for an empty sample.
func quantileNs(v []uint32, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	i := int(q * float64(len(v)))
	if i >= len(v) {
		i = len(v) - 1
	}
	return float64(v[i])
}

func median(v []float64) float64 {
	q := quartiles(v)
	return q[1]
}

// quartiles returns the three quartiles of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so spreads
// computed here equal the driver's. A single value is its own quartiles.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return [3]float64{}
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	for k := 1; k <= 3; k++ {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		out[k-1] = (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", sc.Text(), err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
