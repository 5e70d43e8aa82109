package trace

import (
	"fmt"
	"io"
	"time"
)

// Event is one flight-recorder entry. Kind is always a package-level string
// constant (EvRetransmit etc.) so recording never allocates; Arg1/Arg2 carry
// kind-specific detail (an RPC ID, a path index, a byte count) without
// forcing a per-kind struct.
type Event struct {
	At   time.Duration // engine virtual time
	Kind string
	Arg1 uint64
	Arg2 uint64
}

// Event kinds recorded by the stacks and chunk servers. Interpretation of
// Arg1/Arg2 per kind:
//
//	EvRetransmit    Arg1=rpcID   Arg2=pktID
//	EvFailover      Arg1=oldPath Arg2=newPath
//	EvIntegrityHit  Arg1=rpcID   Arg2=0
//	EvCRCError      Arg1=diskID  Arg2=blockID
//	EvAdmissionWait Arg1=rpcID   Arg2=waitNs
//	EvCutover       Arg1=segID   Arg2=newAddr
const (
	EvRetransmit    = "retransmit"
	EvFailover      = "failover"
	EvIntegrityHit  = "integrity-hit"
	EvCRCError      = "crc-error"
	EvAdmissionWait = "admission-wait"
	EvCutover       = "cutover"
)

// RecorderDepth is how many events a Recorder retains.
const RecorderDepth = 64

// Recorder is a ring buffer of the last RecorderDepth anomalous events — a
// flight recorder for post-mortem debugging of injected faults. Its zero
// value records, so every stack, chunk server and control plane embeds one
// by value and instrumented code never asks whether telemetry is wired up.
// Record never allocates, making it safe on warm paths. Dumped when a run
// trips the packet-leak gate.
type Recorder struct {
	buf   [RecorderDepth]Event
	total uint64
}

// Record appends one event, overwriting the oldest once the buffer is full.
func (r *Recorder) Record(at time.Duration, kind string, arg1, arg2 uint64) {
	r.buf[r.total%RecorderDepth] = Event{At: at, Kind: kind, Arg1: arg1, Arg2: arg2}
	r.total++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return int(min(r.total, RecorderDepth)) }

// Total returns the lifetime number of recorded events, including those the
// ring has since overwritten.
func (r *Recorder) Total() uint64 { return r.total }

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r.total == 0 {
		return nil
	}
	if r.total <= RecorderDepth {
		return append([]Event(nil), r.buf[:r.total]...)
	}
	oldest := r.total % RecorderDepth
	return append(append(make([]Event, 0, RecorderDepth), r.buf[oldest:]...), r.buf[:oldest]...)
}

// Dump writes a human-readable post-mortem listing, oldest event first.
func (r *Recorder) Dump(w io.Writer, label string) {
	evs := r.Events()
	fmt.Fprintf(w, "flight recorder %s: %d retained of %d total\n", label, len(evs), r.Total())
	for _, e := range evs {
		fmt.Fprintf(w, "  %12v %-16s arg1=%d arg2=%d\n", e.At, e.Kind, e.Arg1, e.Arg2)
	}
}
