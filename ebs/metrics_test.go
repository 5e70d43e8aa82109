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
	for _, name := range []string{
		"lat/write/sa", "lat/write/fn", "lat/write/bn", "lat/write/ssd", "lat/write/e2e",
		"lat/read/e2e",
	} {
		if h := reg.Histogram(name); h == nil || h.Count() == 0 {
			t.Fatalf("missing latency histogram %q", name)
		}
	}
	if reg.Counter("chunk0/writes")+reg.Counter("chunk1/writes")+
		reg.Counter("chunk2/writes")+reg.Counter("chunk3/writes") == 0 {
		t.Fatal("no chunk-server writes exported")
	}
	// Per-path INT summaries: the compute stacks are Solar, telemetry is
	// on, and acks echo INT — at least one path must have folded hops.
	snap := reg.Snapshot()
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

// The flight recorder wires into Solar stacks and chunk servers when the
// config asks for it, and records injected anomalies.
func TestClusterFlightRecorder(t *testing.T) {
	cfg := smallConfig(Solar)
	cfg.FlightRecorderDepth = 128
	c := New(cfg)
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

	// Depth 0 (default) means no recorders at all.
	c2 := testCluster(t, Solar)
	var sb2 strings.Builder
	if got := c2.DumpFlightRecorders(&sb2); got != 0 {
		t.Fatalf("default config dumped %d events", got)
	}
}
