package core

import (
	"fmt"
	"slices"

	"lunasolar/internal/stats"
	"lunasolar/internal/trace"
	"lunasolar/internal/wire"
)

// pathTelemetry folds the per-hop INT stacks echoed on a path's acks into
// a per-path summary (§4.5: per-packet ACKs carry echoed INT, making path
// condition observable end to end). Updated on ack processing; the summary
// never feeds back into path selection or congestion control.
type pathTelemetry struct {
	acksWithINT uint64 // acks that carried a non-empty INT stack
	ecnAcks     uint64 // acks with the CE echo set
	maxQLenB    uint32 // deepest queue any hop reported
	maxHops     int    // longest INT stack seen (path length)
}

// foldINT merges one ack's INT echo into the path summary.
func foldINT(t *pathTelemetry, hops []wire.INTHop, ecnMarked bool) {
	if ecnMarked {
		t.ecnAcks++
	}
	if len(hops) == 0 {
		return
	}
	t.acksWithINT++
	if len(hops) > t.maxHops {
		t.maxHops = len(hops)
	}
	for i := range hops {
		if hops[i].QLenB > t.maxQLenB {
			t.maxQLenB = hops[i].QLenB
		}
	}
}

// RegisterInto exports the stack's counters and per-path INT summaries into
// reg. Path entries are named "<prefix>peer<addr>/path<slot>/...", walked
// by peer address then path slot, so the export is deterministic.
func (s *Stack) RegisterInto(reg *stats.Registry, prefix string) {
	reg.AddCounter(prefix+"retransmits", s.Retransmits)
	reg.AddCounter(prefix+"path_failovers", s.PathFailovers)
	reg.AddCounter(prefix+"integrity_hits", s.IntegrityHits)
	reg.SetGauge(prefix+"admission_wait_ns", float64(s.AdmissionWait.Nanoseconds()))
	addrs := make([]uint32, 0, len(s.peers))
	for a := range s.peers {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		for slot, p := range s.peers[a].paths {
			base := fmt.Sprintf("%speer%d/path%d/", prefix, a, slot)
			reg.AddCounter(base+"sent", p.sent)
			reg.AddCounter(base+"acked", p.acked)
			reg.AddCounter(base+"acks_with_int", p.tele.acksWithINT)
			reg.AddCounter(base+"ecn_acks", p.tele.ecnAcks)
			reg.SetGauge(base+"ewma_rtt_ns", float64(p.rtt.SRTT().Nanoseconds()))
			reg.SetGauge(base+"max_qlen_bytes", float64(p.tele.maxQLenB))
			reg.SetGauge(base+"max_hops", float64(p.tele.maxHops))
		}
	}
}

// Recorder returns the stack's flight recorder: its last anomalous events
// (retransmits, failovers, integrity hits, admission waits).
func (s *Stack) Recorder() *trace.Recorder { return &s.rec }
