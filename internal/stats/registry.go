package stats

import (
	"encoding/json"
	"io"
	"sort"
)

// SchemaVersion identifies the structured-export format. Consumers (CI
// artifact diffing, dashboards) match on it before parsing; bump it on any
// field change.
const SchemaVersion = "lunasolar.metrics/v1"

// Registry names and aggregates metrics for structured export. Every
// counter, gauge and histogram an experiment wants published is folded in
// under a slash-separated name ("fig6/solar/write/fn"); the registry then
// renders the whole set as schema-versioned JSON with fully deterministic
// ordering (names sorted, field order fixed by struct layout) so exports
// diff cleanly across runs.
//
// Registries are single-goroutine objects, like the rest of this package:
// the share-nothing harness gives each shard its own registry and merges
// them in shard order.
type Registry struct {
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
	}
}

// AddCounter accumulates delta into the named counter, creating it at zero.
func (r *Registry) AddCounter(name string, delta uint64) {
	r.counters[name] += delta
}

// SetGauge sets the named gauge to v (last write wins).
func (r *Registry) SetGauge(name string, v float64) {
	r.gauges[name] = v
}

// ObserveHistogram merges h into the named histogram, creating it if
// needed. The source histogram is not retained, so callers may keep
// mutating it.
func (r *Registry) ObserveHistogram(name string, h *Histogram) {
	dst, ok := r.hists[name]
	if !ok {
		dst = NewHistogram()
		r.hists[name] = dst
	}
	dst.Merge(h)
}

// Counter returns the named counter's value (0 if absent).
func (r *Registry) Counter(name string) uint64 { return r.counters[name] }

// Histogram returns the named histogram, or nil.
func (r *Registry) Histogram(name string) *Histogram { return r.hists[name] }

// Len returns the total number of registered metrics.
func (r *Registry) Len() int {
	return len(r.counters) + len(r.gauges) + len(r.hists)
}

// Merge folds every metric of src into r with prefix prepended to its name.
// The harness uses it to combine per-shard registries in shard order, which
// keeps the merged result deterministic for a fixed seed.
func (r *Registry) Merge(src *Registry, prefix string) {
	for _, name := range sortedKeysU64(src.counters) {
		r.AddCounter(prefix+name, src.counters[name])
	}
	for _, name := range sortedKeysF64(src.gauges) {
		r.SetGauge(prefix+name, src.gauges[name])
	}
	for _, name := range sortedKeysHist(src.hists) {
		r.ObserveHistogram(prefix+name, src.hists[name])
	}
}

func sortedKeysU64(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysF64(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysHist(m map[string]*Histogram) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Metric is one exported entry. Exactly the fields for its Type are set:
// counters and gauges carry Value; histograms carry the count/percentile
// block (nanosecond units, matching time.Duration). Field order in the JSON
// is the struct order below and never changes within a schema version.
type Metric struct {
	Name  string  `json:"name"`
	Type  string  `json:"type"` // "counter" | "gauge" | "histogram"
	Value float64 `json:"value,omitempty"`

	Count  uint64  `json:"count,omitempty"`
	SumNs  float64 `json:"sum_ns,omitempty"`
	MinNs  int64   `json:"min_ns,omitempty"`
	MaxNs  int64   `json:"max_ns,omitempty"`
	MeanNs int64   `json:"mean_ns,omitempty"`
	P50Ns  int64   `json:"p50_ns,omitempty"`
	P95Ns  int64   `json:"p95_ns,omitempty"`
	P99Ns  int64   `json:"p99_ns,omitempty"`
}

// Export is the top-level JSON document.
type Export struct {
	Schema  string   `json:"schema"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot renders every metric, names sorted within each type and types
// interleaved into one global name order, so the export is a deterministic
// function of the registry's contents.
func (r *Registry) Snapshot() Export {
	ms := make([]Metric, 0, r.Len())
	for _, name := range sortedKeysU64(r.counters) {
		ms = append(ms, Metric{Name: name, Type: "counter", Value: float64(r.counters[name])})
	}
	for _, name := range sortedKeysF64(r.gauges) {
		ms = append(ms, Metric{Name: name, Type: "gauge", Value: r.gauges[name]})
	}
	for _, name := range sortedKeysHist(r.hists) {
		h := r.hists[name]
		ms = append(ms, Metric{
			Name:   name,
			Type:   "histogram",
			Count:  h.Count(),
			SumNs:  h.sum,
			MinNs:  int64(h.Min()),
			MaxNs:  int64(h.Max()),
			MeanNs: int64(h.Mean()),
			P50Ns:  int64(h.Median()),
			P95Ns:  int64(h.P95()),
			P99Ns:  int64(h.P99()),
		})
	}
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return Export{Schema: SchemaVersion, Metrics: ms}
}

// WriteJSON writes the indented JSON export.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
