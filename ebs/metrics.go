package ebs

import (
	"fmt"
	"io"

	"lunasolar/internal/core"
	"lunasolar/internal/stats"
	"lunasolar/internal/tcpstack"
	"lunasolar/internal/trace"
)

// ExportMetrics folds the cluster's observability state into reg under
// prefix: the trace collector's per-component latency histograms
// ("<prefix>lat/<op>/<sa|fn|bn|ssd|e2e>"), the fabric's drop and per-switch
// telemetry ("<prefix>net/..."), per-compute stack counters and per-path
// INT summaries ("<prefix>compute<i>/..."), and chunk-server operation
// counters ("<prefix>chunk<i>/..."). All sections walk their sources in
// construction order, so the export is deterministic for a fixed seed.
func (c *Cluster) ExportMetrics(reg *stats.Registry, prefix string) {
	c.Collector().RegisterInto(reg, prefix+"lat/")
	c.Fabric.RegisterInto(reg, prefix+"net/")
	for i, cs := range c.computes {
		base := fmt.Sprintf("%scompute%d/", prefix, i)
		switch st := cs.Stack.(type) {
		case *core.Stack:
			st.RegisterInto(reg, base)
		case *tcpstack.Stack:
			reg.AddCounter(base+"retransmits", st.Retransmits)
			reg.AddCounter(base+"timeouts", st.Timeouts)
			reg.AddCounter(base+"ecn_marks", st.EcnMarks)
		}
	}
	for i, ss := range c.chunks {
		base := fmt.Sprintf("%schunk%d/", prefix, i)
		w, r, crcErrs, misses := ss.Chunk.Stats()
		reg.AddCounter(base+"writes", w)
		reg.AddCounter(base+"reads", r)
		reg.AddCounter(base+"crc_errors", crcErrs)
		reg.AddCounter(base+"misses", misses)
	}
}

// DumpFlightRecorders writes the post-mortem listing of every Solar
// stack's (compute and block server), chunk server's and the control
// plane's flight recorder to w, skipping empty ones. Used when a run trips
// the packet-leak gate. Returns the number of events dumped.
func (c *Cluster) DumpFlightRecorders(w io.Writer) int {
	total := 0
	dump := func(rec *trace.Recorder, label string) {
		if rec.Len() > 0 {
			rec.Dump(w, label)
			total += rec.Len()
		}
	}
	for i, cs := range c.computes {
		if st, ok := cs.Stack.(*core.Stack); ok {
			dump(st.Recorder(), fmt.Sprintf("compute%d", i))
		}
	}
	for i, bs := range c.blocks {
		if st, ok := bs.FN.(*core.Stack); ok {
			dump(st.Recorder(), fmt.Sprintf("block%d", i))
		}
	}
	for i, ss := range c.chunks {
		dump(ss.Chunk.Recorder(), fmt.Sprintf("chunk%d", i))
	}
	if c.ctrlPlane != nil {
		dump(&c.ctrlPlane.rec, "ctrl")
	}
	return total
}
