package main

import (
	"fmt"
	"os"
	"path/filepath"
	rt "runtime"
	"runtime/pprof"
)

// profiler wraps the -profile flag: a CPU profile spanning the experiment
// run plus a heap snapshot at stop.
type profiler struct {
	dir string
	cpu *os.File
}

// startProfile creates dir (if needed) and begins the CPU profile at
// dir/cpu.pprof.
func startProfile(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{dir: dir, cpu: f}, nil
}

// Stop ends the CPU profile and writes dir/heap.pprof (post-GC, so the
// snapshot shows retained memory, not garbage).
func (p *profiler) Stop() {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ebsbench: profile: %v\n", err)
	}
	h, err := os.Create(filepath.Join(p.dir, "heap.pprof"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ebsbench: profile: %v\n", err)
		return
	}
	defer h.Close()
	rt.GC()
	if err := pprof.WriteHeapProfile(h); err != nil {
		fmt.Fprintf(os.Stderr, "ebsbench: profile: %v\n", err)
	}
}
