package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func buildRegistry(order []int) *Registry {
	r := NewRegistry()
	// Insert in caller-chosen order to prove output order is independent
	// of map insertion history.
	for _, i := range order {
		switch i {
		case 0:
			r.AddCounter("fig6/solar/retransmits", 3)
		case 1:
			r.SetGauge("fig6/solar/goodput_gbps", 87.5)
		case 2:
			h := NewHistogram()
			h.Record(100 * time.Microsecond)
			h.Record(300 * time.Microsecond)
			r.ObserveHistogram("fig6/solar/write/fn", h)
		}
	}
	return r
}

func TestRegistryDeterministicExport(t *testing.T) {
	a := buildRegistry([]int{0, 1, 2})
	b := buildRegistry([]int{2, 1, 0})
	var ja, jb strings.Builder
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatalf("JSON export depends on insertion order:\n%s\nvs\n%s", ja.String(), jb.String())
	}
}

func TestRegistryJSONSchema(t *testing.T) {
	r := buildRegistry([]int{0, 1, 2})
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var ex Export
	if err := json.Unmarshal([]byte(sb.String()), &ex); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if ex.Schema != SchemaVersion {
		t.Fatalf("schema = %q, want %q", ex.Schema, SchemaVersion)
	}
	if len(ex.Metrics) != 3 {
		t.Fatalf("metrics = %d, want 3", len(ex.Metrics))
	}
	// Global name order.
	for i := 1; i < len(ex.Metrics); i++ {
		if ex.Metrics[i-1].Name > ex.Metrics[i].Name {
			t.Fatalf("metrics not name-sorted: %q > %q", ex.Metrics[i-1].Name, ex.Metrics[i].Name)
		}
	}
	byName := map[string]Metric{}
	for _, m := range ex.Metrics {
		byName[m.Name] = m
	}
	if m := byName["fig6/solar/retransmits"]; m.Type != "counter" || m.Value != 3 {
		t.Fatalf("counter metric = %+v", m)
	}
	if m := byName["fig6/solar/write/fn"]; m.Type != "histogram" || m.Count != 2 ||
		m.MinNs != int64(100*time.Microsecond) || m.MaxNs != int64(300*time.Microsecond) {
		t.Fatalf("histogram metric = %+v", m)
	}
}

// Merge appends each shard's rows under its prefix, in merge order, and
// leaves the source registries as they were.
func TestRegistryMergeWithPrefix(t *testing.T) {
	shard0 := buildRegistry([]int{0, 1, 2})
	shard1 := buildRegistry([]int{0, 2})
	merged := NewRegistry()
	merged.Merge(shard0, "shard0/")
	merged.Merge(shard1, "shard1/")
	var got []string
	for _, m := range merged.Snapshot().Metrics {
		got = append(got, m.Type+" "+m.Name)
	}
	want := []string{
		"gauge shard0/fig6/solar/goodput_gbps",
		"counter shard0/fig6/solar/retransmits",
		"histogram shard0/fig6/solar/write/fn",
		"counter shard1/fig6/solar/retransmits",
		"histogram shard1/fig6/solar/write/fn",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("merged rows %q, want %q", got, want)
	}
	if n := len(shard0.Snapshot().Metrics); n != 3 {
		t.Fatalf("merge changed its source: %d rows, want 3", n)
	}
}
