package sim

import (
	"sync"
	"testing"
	"time"
)

// TestMailboxDrainOrder posts entries in scrambled wall order and checks
// Drain delivers them in (At, Src, Seq) order regardless.
func TestMailboxDrainOrder(t *testing.T) {
	var mb Mailbox
	posts := []Inbound{
		{At: 30, Src: 1, Seq: 2, Arg: "e"},
		{At: 10, Src: 2, Seq: 1, Arg: "b"},
		{At: 30, Src: 0, Seq: 9, Arg: "c"},
		{At: 10, Src: 1, Seq: 5, Arg: "a"},
		{At: 30, Src: 1, Seq: 1, Arg: "d"},
	}
	for _, in := range posts {
		mb.Post(in)
	}
	if got := mb.Len(); got != len(posts) {
		t.Fatalf("Len = %d, want %d", got, len(posts))
	}
	var got []string
	mb.Drain(func(in Inbound) { got = append(got, in.Arg.(string)) })
	want := []string{"a", "b", "c", "d", "e"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
	if mb.Len() != 0 {
		t.Fatalf("mailbox not empty after drain: %d", mb.Len())
	}
}

// TestMailboxConcurrentPost hammers Post from several goroutines and
// checks nothing is lost and the drain is still totally ordered.
func TestMailboxConcurrentPost(t *testing.T) {
	var mb Mailbox
	const producers, per = 8, 200
	var wg sync.WaitGroup
	for src := 0; src < producers; src++ {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 1; seq <= per; seq++ {
				mb.Post(Inbound{At: Time(seq % 7), Src: src, Seq: uint64(seq)})
			}
		}()
	}
	wg.Wait()
	var prev Inbound
	n := 0
	mb.Drain(func(in Inbound) {
		if n > 0 {
			less := prev.At < in.At ||
				(prev.At == in.At && prev.Src < in.Src) ||
				(prev.At == in.At && prev.Src == in.Src && prev.Seq < in.Seq)
			if !less {
				t.Fatalf("entry %d out of order: %+v then %+v", n, prev, in)
			}
		}
		prev = in
		n++
	})
	if n != producers*per {
		t.Fatalf("drained %d entries, want %d", n, producers*per)
	}
}

// TestMailboxReusesBatch checks the drained batch's backing array is
// recycled rather than reallocated every cycle.
func TestMailboxReusesBatch(t *testing.T) {
	var mb Mailbox
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 4; i++ {
			mb.Post(Inbound{At: Time(i), Src: 0, Seq: uint64(i)})
		}
		n := 0
		mb.Drain(func(Inbound) { n++ })
		if n != 4 {
			t.Fatalf("cycle %d drained %d, want 4", cycle, n)
		}
	}
	if cap(mb.spare) < 4 {
		t.Fatalf("spare capacity %d; drain did not recycle the batch", cap(mb.spare))
	}
}

// runWindow drives e through one coupled window, RunUntil(until), and
// returns how many events fired in it by the Processed delta.
func runWindow(e *Engine, until Time) int {
	before := e.Processed()
	e.RunUntil(until)
	return int(e.Processed() - before)
}

// TestRunWindow checks the bounded drive mode: only events inside the
// window fire, the clock lands exactly on the bound, and the Processed
// delta reports the window's firings.
func TestRunWindow(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	for i, d := range []time.Duration{10, 20, 30, 40} {
		i := i
		e.Schedule(d*time.Microsecond, func() { fired = append(fired, i) })
	}
	if n := runWindow(e, Time(25*time.Microsecond)); n != 2 {
		t.Fatalf("window fired %d events, want 2", n)
	}
	if e.Now() != Time(25*time.Microsecond) {
		t.Fatalf("clock at %v after window, want 25µs", e.Now())
	}
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 {
		t.Fatalf("fired %v, want [0 1]", fired)
	}
	if n := runWindow(e, Time(25*time.Microsecond)); n != 0 {
		t.Fatalf("empty window fired %d events", n)
	}
	if n := runWindow(e, Time(50*time.Microsecond)); n != 2 {
		t.Fatalf("second window fired %d events, want 2", n)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four", fired)
	}
}

// TestNextEventAt checks the window-planning time: exactly the earliest
// pending event's, through schedules, cancels and windows.
func TestNextEventAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("empty engine reports a pending event")
	}
	want := func(d time.Duration) {
		t.Helper()
		if at, ok := e.NextEventAt(); !ok || at != Time(d) {
			t.Fatalf("NextEventAt = %v ok=%v, want exactly %v", at, ok, d)
		}
	}

	e.Schedule(300*time.Microsecond, func() {})
	want(300 * time.Microsecond)
	early := e.Schedule(100*time.Microsecond, func() {})
	want(100 * time.Microsecond)
	early.Cancel()
	want(300 * time.Microsecond)

	// A window that ends short of the next event fires nothing and leaves
	// the time where it was.
	if n := runWindow(e, Time(200*time.Microsecond)); n != 0 {
		t.Fatalf("window fired %d events before the next one was due", n)
	}
	want(300 * time.Microsecond)
	if n := runWindow(e, Time(300*time.Microsecond)); n != 1 {
		t.Fatalf("window ending at the next event fired %d events, want 1", n)
	}
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("drained engine reports a pending event")
	}
}
