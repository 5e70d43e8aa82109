package sim

import "testing"

type poolRec struct{ v int }

func TestPoolLIFOAndCounters(t *testing.T) {
	p := NewPool[poolRec](NewEngine(1))
	if p.Get() != nil || p.Get() != nil {
		t.Fatal("empty pool must miss with nil")
	}
	if p.Misses() != 2 || p.Outstanding() != 2 {
		t.Fatalf("after two misses: misses=%d outstanding=%d, want 2 and 2", p.Misses(), p.Outstanding())
	}
	a, b := &poolRec{1}, &poolRec{2}
	p.Put(a)
	p.Put(b)
	if p.Outstanding() != 0 {
		t.Fatalf("outstanding=%d after both records came back", p.Outstanding())
	}
	if got := p.Get(); got != b {
		t.Fatalf("first Get = %v, want the last Put (b)", got)
	}
	if got := p.Get(); got != a {
		t.Fatalf("second Get = %v, want a", got)
	}
	if p.Get() != nil {
		t.Fatal("drained pool must miss with nil")
	}
	if p.Misses() != 3 || p.Outstanding() != 3 {
		t.Fatalf("misses=%d outstanding=%d, want 3 and 3", p.Misses(), p.Outstanding())
	}
}

func TestPoolOutstandingSumsPerEngine(t *testing.T) {
	e1, e2 := NewEngine(1), NewEngine(2)
	p1, p2, other := NewPool[poolRec](e1), NewPool[int](e1), NewPool[poolRec](e2)
	p1.Get()
	p1.Get()
	p2.Get()
	other.Get()
	if got := e1.PoolOutstanding(); got != 3 {
		t.Fatalf("e1.PoolOutstanding() = %d, want 3 (2 + 1, not the other engine's)", got)
	}
	if got := e2.PoolOutstanding(); got != 1 {
		t.Fatalf("e2.PoolOutstanding() = %d, want 1", got)
	}
	p1.Put(&poolRec{})
	if got := e1.PoolOutstanding(); got != 2 {
		t.Fatalf("e1.PoolOutstanding() = %d after one Put, want 2", got)
	}
	// The zero Pool works and is bound to nothing; the engine's own event
	// list is one, so scheduling never shows up as an outstanding record.
	var free Pool[poolRec]
	free.Get()
	e1.Schedule(0, nil)
	if got := e1.PoolOutstanding(); got != 2 {
		t.Fatalf("unbound pools moved e1.PoolOutstanding() to %d", got)
	}
}

func TestPoolWarmCycleDoesNotAllocate(t *testing.T) {
	p := NewPool[poolRec](NewEngine(1))
	for i := 0; i < 2; i++ {
		p.Get()
		p.Put(&poolRec{})
	}
	if avg := testing.AllocsPerRun(1000, func() {
		a, b := p.Get(), p.Get()
		p.Put(a)
		p.Put(b)
	}); avg != 0 {
		t.Fatalf("warm Get/Put cycle: %v allocs/run, want 0", avg)
	}
}
