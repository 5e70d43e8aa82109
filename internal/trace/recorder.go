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

// Recorder is a fixed-depth ring buffer of the last N anomalous events — a
// flight recorder for post-mortem debugging of injected faults. It is
// nil-safe (a nil *Recorder drops every Record call) so instrumented code
// never branches on "is telemetry wired up" beyond the pointer itself, and
// Record never allocates, making it safe on warm paths. Dumped when a run
// trips the packet-leak gate or a CRC check fails.
type Recorder struct {
	buf   []Event
	next  int
	total uint64
}

// NewRecorder returns a recorder retaining the last depth events. A depth
// <= 0 returns nil, which is the valid "recording off" recorder.
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		return nil
	}
	return &Recorder{buf: make([]Event, 0, depth)}
}

// Record appends one event, overwriting the oldest once the buffer is full.
// Safe to call on a nil receiver (drops the event).
func (r *Recorder) Record(at time.Duration, kind string, arg1, arg2 uint64) {
	if r == nil {
		return
	}
	e := Event{At: at, Kind: kind, Arg1: arg1, Arg2: arg2}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next++
	if r.next == cap(r.buf) {
		r.next = 0
	}
	r.total++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns the lifetime number of recorded events, including those the
// ring has since overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the retained events oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Dump writes a human-readable post-mortem listing, oldest event first.
func (r *Recorder) Dump(w io.Writer, label string) {
	evs := r.Events()
	fmt.Fprintf(w, "flight recorder %s: %d retained of %d total\n", label, len(evs), r.Total())
	for _, e := range evs {
		fmt.Fprintf(w, "  %12v %-16s arg1=%d arg2=%d\n", e.At, e.Kind, e.Arg1, e.Arg2)
	}
}
