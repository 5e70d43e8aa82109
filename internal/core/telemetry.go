package core

import (
	"fmt"
	"slices"
	"time"

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

// PathStat is one path's telemetry snapshot.
type PathStat struct {
	Peer                uint32
	PathID              uint16 // UDP source port = path identity
	Sent, Acked, Failed uint64
	EwmaRTT             time.Duration
	AcksWithINT         uint64
	EcnAcks             uint64
	MaxQLenB            uint32
	MaxHops             int
}

// PathTelemetry snapshots every live path's INT summary, ordered by peer
// address then path slot, so repeat calls on the same state are identical.
func (s *Stack) PathTelemetry() []PathStat {
	addrs := make([]uint32, 0, len(s.peers))
	for a := range s.peers {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	var out []PathStat
	for _, a := range addrs {
		pe := s.peers[a]
		for _, p := range pe.paths {
			out = append(out, PathStat{
				Peer: a, PathID: p.id,
				Sent: p.sent, Acked: p.acked, Failed: p.failed,
				EwmaRTT:     p.ewma,
				AcksWithINT: p.tele.acksWithINT,
				EcnAcks:     p.tele.ecnAcks,
				MaxQLenB:    p.tele.maxQLenB,
				MaxHops:     p.tele.maxHops,
			})
		}
	}
	return out
}

// RegisterInto exports the stack's counters and per-path INT summaries into
// reg. Path entries are named "<prefix>peer<addr>/path<slot>/..." in the
// same deterministic order PathTelemetry uses.
func (s *Stack) RegisterInto(reg *stats.Registry, prefix string) {
	reg.AddCounter(prefix+"probes", s.Probes)
	reg.AddCounter(prefix+"retransmits", s.Retransmits)
	reg.AddCounter(prefix+"path_failovers", s.PathFailovers)
	reg.AddCounter(prefix+"integrity_hits", s.IntegrityHits)
	reg.SetGauge(prefix+"admission_wait_ns", float64(s.AdmissionWait.Nanoseconds()))
	slot := 0
	lastPeer := uint32(0)
	for i, ps := range s.PathTelemetry() {
		if i == 0 || ps.Peer != lastPeer {
			slot = 0
			lastPeer = ps.Peer
		}
		base := fmt.Sprintf("%speer%d/path%d/", prefix, ps.Peer, slot)
		slot++
		reg.AddCounter(base+"sent", ps.Sent)
		reg.AddCounter(base+"acked", ps.Acked)
		reg.AddCounter(base+"acks_with_int", ps.AcksWithINT)
		reg.AddCounter(base+"ecn_acks", ps.EcnAcks)
		reg.SetGauge(base+"ewma_rtt_ns", float64(ps.EwmaRTT.Nanoseconds()))
		reg.SetGauge(base+"max_qlen_bytes", float64(ps.MaxQLenB))
		reg.SetGauge(base+"max_hops", float64(ps.MaxHops))
	}
}

// Recorder returns the stack's flight recorder: its last anomalous events
// (retransmits, failovers, integrity hits, admission waits).
func (s *Stack) Recorder() *trace.Recorder { return &s.rec }
