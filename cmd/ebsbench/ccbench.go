package main

import (
	"encoding/json"
	"fmt"
	"os"

	"lunasolar/internal/experiments"
)

// ccBenchReport is the BENCH_pr7.json schema: the incast CC matrix — one
// row per congestion controller under the identical seed and workload,
// recording the tail, the aggregate throughput, and the deepest switch
// queue each controller allowed to build.
type ccBenchReport struct {
	Schema     string               `json:"schema"`
	Bench      string               `json:"bench"`
	Seed       int64                `json:"seed"`
	Quick      bool                 `json:"quick"`
	Controller []experiments.CCCell `json:"matrix"`
}

// writeCCBenchReport runs the incast storm across every controller,
// asserts zero leaked packets, and writes the matrix.
func writeCCBenchReport(path string, opts experiments.Options) error {
	cells, tab := experiments.IncastMatrix(opts)
	if leaked := tab.Perf.Leaked(); leaked != 0 {
		return fmt.Errorf("incast matrix: %d pooled packets leaked", leaked)
	}
	rep := ccBenchReport{
		Schema: "lunasolar.ccmatrix/v1", Bench: "incast",
		Seed: opts.Seed, Quick: opts.Quick, Controller: cells,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return f.Close()
}
