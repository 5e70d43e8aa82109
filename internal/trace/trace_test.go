package trace

import (
	"testing"
	"time"
)

func TestSpanAccumulates(t *testing.T) {
	s := &Span{Op: "write", Size: 4096}
	s.Add(SA, 10*time.Microsecond)
	s.Add(SA, 5*time.Microsecond)
	s.Add(FN, 20*time.Microsecond)
	s.Add(BN, -5*time.Microsecond) // negative clamped
	if got := s.Get(SA); got != 15*time.Microsecond {
		t.Fatalf("SA = %v", got)
	}
	if got := s.Get(BN); got != 0 {
		t.Fatalf("BN = %v", got)
	}
	if got := s.Total(); got != 35*time.Microsecond {
		t.Fatalf("total = %v", got)
	}
}

func TestCollectorSeparatesOps(t *testing.T) {
	c := NewCollector()
	w := &Span{Op: "write"}
	w.Add(FN, 10*time.Microsecond)
	r := &Span{Op: "read"}
	r.Add(FN, 30*time.Microsecond)
	c.Record(w)
	c.Record(r)
	if c.E2E("write").Count() != 1 || c.E2E("read").Count() != 1 {
		t.Fatal("ops not separated")
	}
	if c.Component("write", FN).Median() >= c.Component("read", FN).Median() {
		t.Fatal("write FN should be below read FN")
	}
}

func TestBreakdownOrder(t *testing.T) {
	c := NewCollector()
	s := &Span{Op: "read"}
	s.Add(SA, 1*time.Microsecond)
	s.Add(FN, 2*time.Microsecond)
	s.Add(BN, 3*time.Microsecond)
	s.Add(SSD, 4*time.Microsecond)
	c.Record(s)
	parts, e2e := c.Breakdown("read", 0.5)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	want := []time.Duration{1, 2, 3, 4} // SA FN BN SSD per Components order
	for i, comp := range Components {
		_ = comp
		if parts[i] != want[i]*time.Microsecond {
			t.Fatalf("part %d = %v", i, parts[i])
		}
	}
	if e2e != 10*time.Microsecond {
		t.Fatalf("e2e = %v", e2e)
	}
}

// TestComponentsString: each component exports under its lowercase name.
func TestComponentsString(t *testing.T) {
	names := map[Component]string{SA: "sa", FN: "fn", BN: "bn", SSD: "ssd"}
	for c, want := range names {
		if got := lowerComponent(c); got != want {
			t.Fatalf("component %d exports as %q, want %q", c, got, want)
		}
	}
}
