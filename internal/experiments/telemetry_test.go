package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"lunasolar/internal/stats"
)

// TestExperimentTelemetryExport drives Fig6 with plain Options and checks
// the merged registry: one row per name (nothing in it would sum),
// per-stack latency histograms, per-path INT summaries for the Solar cell,
// and a schema-valid JSON export.
func TestExperimentTelemetryExport(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tb := Fig6(Options{Seed: 3, Quick: true, Workers: 4})
	if tb.Telemetry == nil {
		t.Fatal("Fig6 left Table.Telemetry nil")
	}
	rows := tb.Telemetry.Snapshot().Metrics
	byName := map[string]stats.Metric{}
	for i, m := range rows {
		if i > 0 && rows[i-1].Name >= m.Name {
			t.Fatalf("snapshot names not strictly increasing: %q then %q", rows[i-1].Name, m.Name)
		}
		byName[m.Name] = m
	}
	for _, name := range []string{
		"fig6/kernel/lat/write/e2e",
		"fig6/luna/lat/write/e2e",
		"fig6/solar/lat/write/sa",
		"fig6/solar/lat/write/fn",
		"fig6/solar/lat/write/bn",
		"fig6/solar/lat/write/ssd",
		"fig6/solar/lat/write/e2e",
	} {
		if m := byName[name]; m.Type != "histogram" || m.Count == 0 {
			t.Fatalf("missing per-component histogram %q", name)
		}
	}
	var solarINT float64
	for _, m := range rows {
		if strings.HasPrefix(m.Name, "fig6/solar/") && strings.HasSuffix(m.Name, "/acks_with_int") {
			solarINT += m.Value
		}
	}
	if solarINT == 0 {
		t.Fatal("Solar cell exported no per-path INT ack counts")
	}

	var sb strings.Builder
	if err := tb.Telemetry.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Schema != stats.SchemaVersion {
		t.Fatalf("schema = %q, want %q", doc.Schema, stats.SchemaVersion)
	}
	if len(doc.Metrics) == 0 {
		t.Fatal("export has no metrics")
	}
}
