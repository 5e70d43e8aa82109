package trace

import (
	"strings"
	"testing"
	"time"

	"lunasolar/internal/stats"
)

func TestRecorderRingOrder(t *testing.T) {
	var r Recorder
	for i := 0; i < RecorderDepth+6; i++ {
		r.Record(time.Duration(i)*time.Millisecond, EvRetransmit, uint64(i), 0)
	}
	if r.Len() != RecorderDepth {
		t.Fatalf("len = %d, want %d", r.Len(), RecorderDepth)
	}
	if r.Total() != RecorderDepth+6 {
		t.Fatalf("total = %d, want %d", r.Total(), RecorderDepth+6)
	}
	evs := r.Events()
	if len(evs) != RecorderDepth {
		t.Fatalf("events = %d, want %d", len(evs), RecorderDepth)
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Arg1 != want {
			t.Fatalf("event %d arg1 = %d, want %d (oldest-first after wrap)", i, e.Arg1, want)
		}
	}
}

func TestRecorderPartialFill(t *testing.T) {
	var r Recorder
	r.Record(time.Millisecond, EvCRCError, 1, 2)
	r.Record(2*time.Millisecond, EvFailover, 0, 1)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != EvCRCError || evs[1].Kind != EvFailover {
		t.Fatalf("events = %+v", evs)
	}
}

// The zero value is an empty recorder that is ready to record.
func TestRecorderZeroValueEmpty(t *testing.T) {
	var r Recorder
	if r.Len() != 0 || r.Total() != 0 || r.Events() != nil {
		t.Fatal("zero recorder not empty")
	}
	var sb strings.Builder
	r.Dump(&sb, "idle")
	if got, want := sb.String(), "flight recorder idle: 0 retained of 0 total\n"; got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
}

func TestRecorderRecordDoesNotAllocate(t *testing.T) {
	r := &Recorder{}
	// Wrap the ring once.
	for i := 0; i < 64; i++ {
		r.Record(0, EvRetransmit, 0, 0)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(time.Millisecond, EvFailover, 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v/op, want 0", allocs)
	}
}

func TestRecorderDump(t *testing.T) {
	var r Recorder
	r.Record(5*time.Millisecond, EvCRCError, 7, 42)
	var sb strings.Builder
	r.Dump(&sb, "bn0")
	out := sb.String()
	if !strings.Contains(out, "bn0") || !strings.Contains(out, EvCRCError) ||
		!strings.Contains(out, "arg1=7") {
		t.Fatalf("dump missing fields:\n%s", out)
	}
}

func TestCollectorRegisterInto(t *testing.T) {
	c := NewCollector()
	s := &Span{Op: "write", Size: 4096}
	s.Add(SA, 10*time.Microsecond)
	s.Add(FN, 20*time.Microsecond)
	s.Add(BN, 30*time.Microsecond)
	s.Add(SSD, 40*time.Microsecond)
	c.Record(s)
	reg := stats.NewRegistry()
	c.RegisterInto(reg, "fig6/solar/")
	for _, name := range []string{
		"fig6/solar/write/sa", "fig6/solar/write/fn",
		"fig6/solar/write/bn", "fig6/solar/write/ssd", "fig6/solar/write/e2e",
	} {
		if h := reg.Histogram(name); h == nil || h.Count() != 1 {
			t.Fatalf("missing or wrong histogram %q: %v", name, h)
		}
	}
	// No reads recorded → no read histograms exported.
	if reg.Histogram("fig6/solar/read/e2e") != nil {
		t.Fatal("empty read op should not export")
	}
	if got := int64(reg.Histogram("fig6/solar/write/e2e").Max()); got != int64(100*time.Microsecond) {
		t.Fatalf("e2e max = %d", got)
	}
}
