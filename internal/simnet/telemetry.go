package simnet

import (
	"sort"

	"lunasolar/internal/stats"
)

// Per-hop telemetry: port ECN-mark counts and queue high-water marks are
// plain field writes on the forwarding path (zero allocations on the
// //lint:hotpath functions, AllocsPerRun-gated) that never feed back into
// the simulation; RegisterInto folds them into a metrics registry at export
// time.

// MaxQueuedBytes returns the output queue's high-water mark in bytes.
func (p *Port) MaxQueuedBytes() int { return p.maxQueued }

// MaxQueuedBytes returns the deepest output-queue high-water mark across
// every switch port in the fabric — the congestion signature the CC-matrix
// experiments compare per controller. Switches are walked in tier order,
// so the scan is deterministic (and the max is order-independent anyway).
func (f *Fabric) MaxQueuedBytes() int {
	maxq := 0
	for _, sw := range f.Switches() {
		for _, p := range sw.ports {
			if p.maxQueued > maxq {
				maxq = p.maxQueued
			}
		}
	}
	return maxq
}

// RegisterInto exports the fabric's per-hop telemetry into reg:
// drops-by-reason counters under "<prefix>drops/<reason>", and per-switch
// forwarding counters, ECN marks (summed over the switch's ports) and queue
// high-water marks (max over ports) under "<prefix>sw/<name>/...". Reasons
// and switches are walked in sorted/tier order so the export is
// deterministic.
func (f *Fabric) RegisterInto(reg *stats.Registry, prefix string) {
	drops := f.Drops()
	reasons := make([]string, 0, len(drops))
	for k := range drops {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		reg.AddCounter(prefix+"drops/"+k, drops[k])
	}
	for _, sw := range f.Switches() {
		base := prefix + "sw/" + sw.Name() + "/"
		reg.AddCounter(base+"rx", sw.rx)
		reg.AddCounter(base+"forwarded", sw.forwarded)
		reg.AddCounter(base+"dropped", sw.dropped)
		var ecn uint64
		maxq := 0
		for _, p := range sw.ports {
			ecn += p.ecnMarks
			if p.maxQueued > maxq {
				maxq = p.maxQueued
			}
		}
		reg.AddCounter(base+"ecn_marks", ecn)
		reg.SetGauge(base+"max_queued_bytes", float64(maxq))
	}
}
