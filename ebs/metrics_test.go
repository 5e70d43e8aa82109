package ebs

import (
	"strings"
	"testing"

	"lunasolar/internal/simnet"
	"lunasolar/internal/stats"
	"lunasolar/internal/trace"
)

// ExportMetrics on a driven Solar cluster must include per-component
// latency histograms, network telemetry, and per-path INT summaries.
func TestClusterExportMetrics(t *testing.T) {
	c := testCluster(t, Solar)
	vd := c.MustProvision(0, 64<<20, DefaultQoS())
	data := fill(32<<10, 0x5a)
	vd.Write(0, data, func(res IOResult) {
		vd.Read(0, len(data), func(IOResult) {})
	})
	c.Run()

	reg := stats.NewRegistry()
	c.ExportMetrics(reg, "")
	snap := reg.Snapshot()
	byName := map[string]stats.Metric{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	for _, name := range []string{
		"lat/write/sa", "lat/write/fn", "lat/write/bn", "lat/write/ssd", "lat/write/e2e",
		"lat/read/e2e",
	} {
		if m := byName[name]; m.Type != "histogram" || m.Count == 0 {
			t.Fatalf("missing latency histogram %q", name)
		}
	}
	if byName["chunk0/writes"].Value+byName["chunk1/writes"].Value+
		byName["chunk2/writes"].Value+byName["chunk3/writes"].Value == 0 {
		t.Fatal("no chunk-server writes exported")
	}
	// Per-path INT summaries: the compute stacks are Solar, telemetry is
	// on, and acks echo INT — at least one path must have folded hops.
	var intAcks float64
	var sawPath bool
	for _, m := range snap.Metrics {
		if strings.Contains(m.Name, "/acks_with_int") {
			sawPath = true
			intAcks += m.Value
		}
	}
	if !sawPath {
		t.Fatal("no per-path INT summaries exported")
	}
	if intAcks == 0 {
		t.Fatal("telemetry enabled but no acks folded INT hops")
	}
	// The export must be valid, deterministic JSON.
	var a, b strings.Builder
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	reg2 := stats.NewRegistry()
	c.ExportMetrics(reg2, "")
	if err := reg2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repeated export differs")
	}
}

// Every Solar stack and chunk server records injected anomalies with no
// configuration.
func TestClusterFlightRecorder(t *testing.T) {
	c := New(smallConfig(Solar))
	vd := c.MustProvision(0, 64<<20, DefaultQoS())

	// Inject loss so Solar retransmits, then let the run drain.
	for _, sw := range c.Fabric.Switches() {
		if sw.Tier() == simnet.TierSpine {
			sw.SetDropRate(0.05)
		}
	}
	data := fill(64<<10, 0x17)
	vd.Write(0, data, func(IOResult) {})
	c.Run()

	var sb strings.Builder
	n := c.DumpFlightRecorders(&sb)
	if n == 0 {
		t.Fatal("5% spine loss produced no recorded events")
	}
	if !strings.Contains(sb.String(), trace.EvRetransmit) {
		t.Fatalf("dump missing retransmit events:\n%s", sb.String())
	}

	// A healthy cluster records nothing.
	c2 := testCluster(t, Solar)
	var sb2 strings.Builder
	if got := c2.DumpFlightRecorders(&sb2); got != 0 {
		t.Fatalf("default config dumped %d events", got)
	}
}
