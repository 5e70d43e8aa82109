package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the driver's view of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON holds the tables in spec.go and the file
// the driver reads to each other, and both to the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if bj.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, op counts are sized for %d", bj.RunSeconds, refSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go (2 to 8 allowed)", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q (or their whys differ)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (at most 16)", len(bj.EndToEnd), len(endToEnd))
	}
	haveSetup := false
	for i, m := range endToEnd {
		name(m.name)
		j := bj.EndToEnd[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || j.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			haveSetup = m.unit == "s" && m.better == "lower"
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.name)
		j := bj.PerLayer[i]
		if j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.go %+v", i, j, m)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
	}
}

// selfTestSeconds scales each workload for the self-test: 1/200 of the
// reference run, except failover_storm, whose I/Os must be issued early
// enough in the 1.5 s fault window to age past the 1 s hang threshold.
func selfTestSeconds(w *workloadSpec) float64 {
	if w.name == "failover_storm" {
		return refSeconds / 20.0
	}
	return refSeconds / 200.0
}

// simValues are the outputs of a run that must be a pure function of
// (code, seed): the simulated metrics and every exact count.
func simValues(r *runResult) map[string]float64 {
	out := r.tracedValues()
	delete(out, "sim.ns_per_event") // host time
	e2e := r.endToEndValues()
	for _, k := range []string{"sim_lat_p50_us", "sim_lat_p999_us", "sim_kops", "op_ok_share"} {
		out[k] = e2e[k]
	}
	out["ops"] = float64(r.ops)
	out["failed"] = float64(r.failed)
	return out
}

// TestDeterminism runs every workload twice with one seed and once with
// another: the simulated outputs and exact counts must repeat exactly for
// the same seed and move with the seed, every correctness check must
// pass, and the printed end-to-end names must be BENCHMARK.json's.
func TestDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			run := func(seed int64) *runResult {
				r, err := runWorkload(w, runOptions{seed: seed, seconds: selfTestSeconds(w), setups: 1, traced: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range r.bad {
					t.Errorf("seed %d: failed check: %s", seed, b)
				}
				return r
			}
			a, b, c := run(7), run(7), run(8)
			va, vb, vc := simValues(a), simValues(b), simValues(c)
			moved := false
			for _, k := range sortedKeys(va) {
				if va[k] != vb[k] {
					t.Errorf("%s: %v then %v with the same seed", k, va[k], vb[k])
				}
				if va[k] != vc[k] {
					moved = true
				}
			}
			if !moved {
				t.Error("another seed changed no simulated output")
			}
			if len(a.spans) < a.ops {
				t.Errorf("traced run kept %d spans for %d ops", len(a.spans), a.ops)
			}
			e2e := a.endToEndValues()
			if len(e2e) != len(endToEnd) {
				t.Errorf("run reports %d end-to-end metrics, spec has %d", len(e2e), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := e2e[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s = %v (present %v): every end-to-end metric must be a positive number", m.name, v, ok)
				}
			}
		})
	}
}

// TestTracedMetricNames runs the full --trace 1 path at small scale and
// checks it measures exactly the per-layer metrics of the spec.
func TestTracedMetricNames(t *testing.T) {
	w := findWorkload("fabric_bulk")
	r, prof, values, err := tracedMetrics(w, 3, refSeconds/30.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.bad {
		t.Errorf("failed check: %s", b)
	}
	if len(values) != len(perLayer) {
		t.Errorf("traced run measured %d metrics, spec has %d", len(values), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := values[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v)", m.name, v, ok)
		}
	}
	// fabric_bulk runs no storage stack: the layers above simnet must
	// show no CPU at all, which is what makes it the bypass workload.
	for _, l := range []string{"tcpstack", "rdma", "core", "crc", "sa", "blockserver", "chunkserver"} {
		if v := values["cpu_share."+l]; v != 0 {
			t.Errorf("cpu_share.%s = %v on fabric_bulk, want 0", l, v)
		}
	}
	if err := writeTrace(t.TempDir(), w.name, r, prof, values); err != nil {
		t.Error(err)
	}
}

func TestLayerOf(t *testing.T) {
	for symbol, want := range map[string]string{
		"lunasolar/internal/sim.(*Engine).step":            "sim",
		"lunasolar/internal/sim/runtime.(*Coupled).Run":    "sim",
		"lunasolar/internal/simnet.linkDeliver":            "simnet",
		"lunasolar/internal/cc.(*DCQCN).OnAck":             "transport_cc",
		"lunasolar/internal/wire.(*EBS).Encode":            "transport_cc",
		"lunasolar/internal/core.(*Stack).callWrite.func1": "core",
		"lunasolar/internal/crc.update":                    "crc",
		"lunasolar/internal/stats.(*Histogram).Record":     "stats_trace",
		"lunasolar/ebs.(*VDisk).Write":                     "ebs",
		"lunasolar/internal/seccrypto.New":                 "ebs",
		"main.(*slot).done":                                "bench",
		"runtime.mallocgc":                                 "runtime_go",
		"runtime.memmove":                                  "runtime_go",
		"math/rand.(*Rand).Int63":                          "runtime_go",
		"internal/bytealg.Equal":                           "runtime_go",
	} {
		if got := layerOf(symbol); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", symbol, got, want)
		}
	}
}

// spinSink keeps the profile test's busy loop from being optimised away.
var spinSink uint64

// TestLeafSamples decodes a real CPU profile of this process.
func TestLeafSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	// The loop works on a local, which the race detector does not
	// instrument, so the samples land here under -race too.
	var sum uint64
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := uint64(0); i < 1e6; i++ {
			sum += i * i
		}
	}
	spinSink = sum
	pprof.StopCPUProfile()
	leaves, err := leafSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, here int64
	for fn, n := range leaves {
		total += n
		if strings.Contains(fn, "TestLeafSamples") {
			here += n
		}
	}
	if total == 0 || here*2 < total {
		t.Errorf("%d of %d samples fold onto this test's busy loop; functions: %v", here, total, leaves)
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	got := quartiles([]float64{10, 1, 3, 7, 5, 9, 2, 8, 4, 6})
	want := [3]float64{2.75, 5.5, 8.25}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if got := quartiles([]float64{3, 1, 2}); got != [3]float64{1, 2, 3} {
		t.Errorf("quartiles of three = %v", got)
	}
}

// TestCompareVerdicts covers the four verdicts, both directions, and the
// name-sorted output of -compare.
func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{name: "wall_us_per_op", unit: "us", better: "lower", bound: 0.05}
	higher := metricSpec{name: "sim_kops", unit: "kops/sim_s", better: "higher", bound: 0.01}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	noisy := func(v float64) []float64 { return []float64{v * 0.9, v * 1.1, v, v * 0.8, v * 1.2} }
	for _, tc := range []struct {
		name      string
		m         metricSpec
		base, cur []float64
		want      string
	}{
		{"same", lower, steady(100), steady(100), vUnchanged},
		{"within bound", lower, steady(100), steady(103), vUnchanged},
		{"slower", lower, steady(100), steady(110), vRegressed},
		{"faster", lower, steady(100), steady(90), vImproved},
		{"noise hides it", lower, noisy(100), noisy(104), vUnresolved},
		{"fewer kops", higher, steady(500), steady(480), vRegressed},
		{"more kops", higher, steady(500), steady(520), vImproved},
		{"single runs", lower, []float64{100}, []float64{120}, vRegressed},
	} {
		if _, _, _, _, got := judge(tc.m, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	mk := func(scale float64) []reportRun {
		var runs []reportRun
		for _, w := range []string{"solar_write4k", "fabric_bulk"} {
			runs = append(runs, reportRun{Workload: w, Metrics: map[string]float64{
				"wall_us_per_op": 50 * scale, "sim_kops": 500, "setup_s": 0.3,
			}})
		}
		return runs
	}
	var out bytes.Buffer
	if code := compareRuns(mk(1), mk(1.5), &out); code != 1 {
		t.Errorf("compare with a 50%% slowdown exited %d, want 1", code)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		rows = append(rows, f[0]+" "+f[1])
	}
	want := []string{
		"fabric_bulk setup_s", "fabric_bulk sim_kops", "fabric_bulk wall_us_per_op",
		"solar_write4k setup_s", "solar_write4k sim_kops", "solar_write4k wall_us_per_op",
	}
	if strings.Join(rows, ",") != strings.Join(want, ",") {
		t.Errorf("rows %v, want %v", rows, want)
	}
	out.Reset()
	if code := compareRuns(mk(1), mk(1), &out); code != 0 || strings.Contains(out.String(), vRegressed) || strings.Contains(out.String(), vUnresolved) {
		t.Errorf("compare of identical sets exited %d:\n%s", code, out.String())
	}
}

func TestGuardEnvironment(t *testing.T) {
	t.Setenv("LUNASOLAR_NO_WHEEL", "1")
	if err := guardEnvironment(); err == nil {
		t.Error("LUNASOLAR_NO_WHEEL set and the guard let it pass")
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
