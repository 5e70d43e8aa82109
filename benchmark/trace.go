package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
)

// memProfileRate is the allocation-sampling interval of a traced run:
// denser than the runtime's 512 KiB default, so a 15 s run attributes
// allocated bytes to within a percent.
const memProfileRate = 64 << 10

// profiler takes the CPU and allocation profiles of a traced run's
// measured phases (one per cell) from inside this process.
type profiler struct {
	cpu     []*bytes.Buffer // one CPU profile (gzipped profile.proto) per measured phase
	memBase map[[32]uintptr]runtime.MemProfileRecord
	alloc   map[string]int64 // layer -> allocated bytes, sampling bias undone
	err     error
}

func newProfiler() *profiler {
	runtime.MemProfileRate = memProfileRate
	return &profiler{alloc: map[string]int64{}}
}

// begin starts profiling one measured phase. Nil-safe: an untraced run
// has no profiler.
func (p *profiler) begin() {
	if p == nil {
		return
	}
	p.memBase = memProfile()
	p.cpu = append(p.cpu, new(bytes.Buffer))
	if err := pprof.StartCPUProfile(p.cpu[len(p.cpu)-1]); err != nil && p.err == nil {
		p.err = fmt.Errorf("cpu profile: %w", err)
	}
}

// end stops profiling the phase and folds its allocation records.
func (p *profiler) end() {
	if p == nil {
		return
	}
	pprof.StopCPUProfile()
	for stack, rec := range memProfile() {
		base := p.memBase[stack]
		objs := rec.AllocObjects - base.AllocObjects
		size := rec.AllocBytes - base.AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		// Undo the sampling bias the way runtime/pprof does: a record of
		// average size s stands for 1/(1-exp(-s/rate)) times its bytes.
		avg := float64(size) / float64(objs)
		scaled := float64(size) / (1 - math.Exp(-avg/memProfileRate))
		p.alloc[allocSite(rec.Stack())] += int64(scaled)
	}
}

// memProfile returns the allocation profile as of now, keyed by stack.
func memProfile() map[[32]uintptr]runtime.MemProfileRecord {
	// The profile only includes allocations up to the last completed
	// collection cycle; two collections publish everything before now.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		out[r.Stack0] = r
	}
	return out
}

// allocSite returns the layer of the innermost frame outside the Go
// runtime: the code that asked for the memory, not mallocgc or growslice.
func allocSite(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if f.Function != "" && !strings.HasPrefix(f.Function, "runtime.") {
			return layerOf(f.Function)
		}
		if !more {
			return "runtime_go"
		}
	}
}

// shares folds the profiles into cpu_share.<layer> and
// alloc_share.<layer>, every layer present (0 when it did nothing).
func (p *profiler) shares() (map[string]float64, error) {
	if p.err != nil {
		return nil, p.err
	}
	cpu := map[string]int64{}
	var cpuTotal, allocTotal int64
	for _, gz := range p.cpu {
		leaves, err := leafSamples(gz.Bytes())
		if err != nil {
			return nil, err
		}
		for fn, n := range leaves {
			cpu[layerOf(fn)] += n
			cpuTotal += n
		}
	}
	for _, l := range layerNames {
		allocTotal += p.alloc[l]
	}
	if cpuTotal == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}
	if allocTotal == 0 {
		allocTotal = 1 // a run that allocates nothing has all-zero shares
	}
	out := map[string]float64{}
	for _, l := range layerNames {
		out["cpu_share."+l] = float64(cpu[l]) / float64(cpuTotal)
		out["alloc_share."+l] = float64(p.alloc[l]) / float64(allocTotal)
	}
	return out, nil
}

// tracedMetrics measures every per-layer metric: the layer rigs, then the
// workload twice with one seed — tracing off for the reference wall time,
// then with spans, CPU and allocation profiles on.
func tracedMetrics(w *workloadSpec, seed int64, seconds float64) (*runResult, *profiler, map[string]float64, error) {
	// Rigs and the untraced reference run come first, at the runtime's
	// default allocation sampling; only the traced run pays for profiling.
	values := runLayerRigs(seconds / refSeconds)
	plain, err := runWorkload(w, runOptions{seed: seed, seconds: seconds, setups: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	prof := newProfiler()
	traced, err := runWorkload(w, runOptions{seed: seed, seconds: seconds, setups: 1, traced: true, prof: prof})
	if err != nil {
		return nil, nil, nil, err
	}
	shares, err := prof.shares()
	if err != nil {
		return nil, nil, nil, err
	}
	for k, v := range shares {
		values[k] = v
	}
	for k, v := range traced.tracedValues() {
		values[k] = v
	}
	values["trace.overhead_share"] = (traced.wallUsPerOp() - plain.wallUsPerOp()) / plain.wallUsPerOp()

	// A tracer must not change what it observes: the simulated outcome of
	// the traced run equals the untraced one's exactly.
	if traced.ops != plain.ops || traced.failed != plain.failed || traced.events != plain.events || traced.virt != plain.virt {
		traced.bad = append(traced.bad, fmt.Sprintf("traced run diverged: ops %d/%d failed %d/%d events %d/%d sim time %v/%v",
			traced.ops, plain.ops, traced.failed, plain.failed, traced.events, plain.events, traced.virt, plain.virt))
	}
	traced.bad = append(traced.bad, plain.bad...)
	fmt.Fprintf(os.Stdout, "# %s seed=%d ops=%d traced wall=%.2fs untraced wall=%.2fs\n",
		w.name, seed, traced.ops, traced.wall.Seconds(), plain.wall.Seconds())
	return traced, prof, values, nil
}

// runTraced is the contract's --trace 1: every per-layer metric on the
// last line, the spans and profiles written under dir.
func runTraced(w *workloadSpec, seed int64, seconds float64, dir string) int {
	traced, prof, values, err := tracedMetrics(w, seed, seconds)
	if err == nil {
		printMetrics(os.Stdout, w.name, perLayer, values)
		err = writeTrace(dir, w.name, traced, prof, values)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return emitContract(traced, perLayer, values)
}

// writeTrace writes what the traced run kept in memory: the spans, the
// CPU profiles (readable by `go tool pprof`) and the per-layer metrics.
func writeTrace(dir, workload string, r *runResult, p *profiler, values map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	fmt.Fprintln(zw, "id,parent,name,clock,start_ns,end_ns")
	for _, s := range r.spans {
		fmt.Fprintf(zw, "%d,%d,%s,%s,%d,%d\n", s.ID, s.Parent, s.Name, s.Clock, s.Start, s.End)
	}
	if err := zw.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".spans.csv.gz"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	for i, gz := range p.cpu {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.cpu%d.pprof", workload, i)), gz.Bytes(), 0o644); err != nil {
			return err
		}
	}
	js, err := json.MarshalIndent(struct {
		Host    hostStanza         `json:"host"`
		Seed    int64              `json:"seed"`
		Ops     int                `json:"ops"`
		Metrics map[string]float64 `json:"metrics"`
	}{currentHost(), r.seed, r.ops, values}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".layers.json"), append(js, '\n'), 0o644)
}
