package stats

import (
	"encoding/json"
	"io"
	"slices"
	"strings"
)

// SchemaVersion identifies the structured-export format. Consumers (CI
// artifact diffing, dashboards) match on it before parsing; bump it on any
// field change.
const SchemaVersion = "lunasolar.metrics/v1"

// Registry is a list of named metric rows for structured export. Every
// counter, gauge and histogram an experiment wants published is appended
// as one row under a slash-separated name ("fig6/solar/write/fn"); the
// registry then renders the rows as schema-versioned JSON, sorted by name
// (field order fixed by struct layout), so exports diff cleanly across
// runs. Names are expected to be unique: nothing is summed or merged.
//
// Registries are single-goroutine objects, like the rest of this package:
// the share-nothing harness gives each shard its own registry and merges
// them in shard order.
type Registry struct {
	rows []Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// AddCounter appends the named counter with value v.
func (r *Registry) AddCounter(name string, v uint64) {
	r.rows = append(r.rows, Metric{Name: name, Type: "counter", Value: float64(v)})
}

// SetGauge appends the named gauge with value v.
func (r *Registry) SetGauge(name string, v float64) {
	r.rows = append(r.rows, Metric{Name: name, Type: "gauge", Value: v})
}

// ObserveHistogram appends h's summary under name. The summary is taken
// now, so callers may keep mutating h.
func (r *Registry) ObserveHistogram(name string, h *Histogram) {
	r.rows = append(r.rows, Metric{
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

// Merge appends every row of src to r with prefix prepended to its name.
// The harness uses it to combine per-shard registries in shard order.
func (r *Registry) Merge(src *Registry, prefix string) {
	for _, m := range src.rows {
		m.Name = prefix + m.Name
		r.rows = append(r.rows, m)
	}
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

// Snapshot returns a copy of the rows sorted by name (stably, so rows that
// share a name keep their append order); an empty registry exports [].
func (r *Registry) Snapshot() Export {
	ms := append(make([]Metric, 0, len(r.rows)), r.rows...)
	slices.SortStableFunc(ms, func(a, b Metric) int { return strings.Compare(a.Name, b.Name) })
	return Export{Schema: SchemaVersion, Metrics: ms}
}

// WriteJSON writes the indented JSON export.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
