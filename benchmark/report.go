package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// report is the JSON file -out appends to and -compare reads: a host
// stanza and one entry per run.
type report struct {
	Schema string      `json:"schema"`
	Host   hostStanza  `json:"host"`
	Runs   []reportRun `json:"runs"`
}

const reportSchema = "lunasolar.benchmark/v1"

// hostStanza records where the numbers came from.
type hostStanza struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

type reportRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ops      int                `json:"ops"`
	Target   int                `json:"target_ops"`
	Correct  bool               `json:"correct"`
	Failed   []string           `json:"failed_checks,omitempty"`
	Cells    []cellReport       `json:"cells"`
	Metrics  map[string]float64 `json:"metrics"`
	// SliceUs are the quartiles of the per-slice wall us/op behind
	// wall_us_per_op.
	SliceUs [3]float64 `json:"slice_us_quartiles"`
	Slices  int        `json:"slices"`
}

func newReportRun(r *runResult, values map[string]float64) reportRun {
	return reportRun{
		Workload: r.workload, Seed: r.seed, Ops: r.ops, Target: r.target,
		Correct: len(r.bad) == 0, Failed: r.bad, Cells: r.cells, Metrics: values,
		SliceUs: quartiles(r.sliceUs), Slices: len(r.sliceUs),
	}
}

func currentHost() hostStanza {
	h := hostStanza{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// appendReport adds runs to the report at path, creating it if absent,
// so that separate invocations with different seeds build up one set.
func appendReport(path string, runs []reportRun) error {
	rep, err := readReport(path)
	if errors.Is(err, fs.ErrNotExist) {
		rep = &report{Schema: reportSchema}
	} else if err != nil {
		return err
	}
	rep.Host = currentHost()
	rep.Runs = append(rep.Runs, runs...)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- -compare ------------------------------------------------------------------

// verdict of one (workload, metric) row.
const (
	vImproved   = "improved"
	vUnchanged  = "unchanged"
	vUnresolved = "unresolved"
	vRegressed  = "regressed"
)

// judge compares a metric's runs on two sides. worse is how far the new
// median moved in the metric's bad direction, spread the wider of the two
// sides' interquartile ranges, both as shares of the base median.
func judge(m metricSpec, base, cur []float64) (baseMed, curMed, worse, spread float64, verdict string) {
	qb, qc := quartiles(base), quartiles(cur)
	baseMed, curMed = qb[1], qc[1]
	scale := baseMed // every end-to-end metric is positive
	if scale == 0 {
		scale = 1
	}
	worse = (curMed - baseMed) / scale
	if m.better == "higher" {
		worse = -worse
	}
	spread = (qb[2] - qb[0]) / scale
	if s := (qc[2] - qc[0]) / scale; s > spread {
		spread = s
	}
	switch {
	case worse > m.bound && worse > spread:
		verdict = vRegressed
	case spread > m.bound:
		verdict = vUnresolved
	case worse < 0 && -worse > spread:
		verdict = vImproved
	default:
		verdict = vUnchanged
	}
	return
}

// compareReports prints one row per (workload, end-to-end metric), sorted
// by name, and returns non-zero if any row regressed.
func compareReports(oldPath, newPath string, w io.Writer) int {
	var sides [2]*report
	for i, path := range []string{oldPath, newPath} {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sides[i] = rep
	}
	return compareRuns(sides[0].Runs, sides[1].Runs, w)
}

func compareRuns(base, cur []reportRun, w io.Writer) int {
	collect := func(runs []reportRun) map[string][]float64 {
		out := map[string][]float64{}
		for _, r := range runs {
			for _, m := range endToEnd {
				if v, ok := r.Metrics[m.name]; ok {
					key := r.Workload + "\x00" + m.name
					out[key] = append(out[key], v)
				}
			}
		}
		return out
	}
	bv, cv := collect(base), collect(cur)
	names := workloadNames()
	sort.Strings(names)
	metrics := append([]metricSpec(nil), endToEnd...)
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase (n)\tnew (n)\tnew/base\tworse by\tspread\tbound\tverdict\t")
	code := 0
	for _, wl := range names {
		for _, m := range metrics {
			key := wl + "\x00" + m.name
			b, c := bv[key], cv[key]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bm, cm, worse, spread, verdict := judge(m, b, c)
			if verdict == vRegressed {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f (%d)\t%.4f (%d)\t%.4f of %.4f\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\t\n",
				wl, m.name, m.unit, bm, len(b), cm, len(c), cm/bm, bm, 100*worse, 100*spread, 100*m.bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return code
}
