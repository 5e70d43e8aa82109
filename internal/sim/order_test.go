package sim

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// refQueue is the reference for the engine's firing order: a slice kept
// sorted by (at, seq), where seq counts every schedule in issue order and
// a negative delay means now. Firing pops the head.
type refQueue struct {
	now Time
	seq uint64
	q   []refEvent
}

type refEvent struct {
	at       Time
	seq      uint64
	id       int
	child    time.Duration // delay of the event this one schedules when it fires
	hasChild bool
}

func (r *refQueue) schedule(d time.Duration, ev refEvent) {
	r.seq++
	ev.at, ev.seq = r.now.Add(max(d, 0)), r.seq
	// seq only grows, so a new event goes after every event at the same time.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > ev.at })
	r.q = slices.Insert(r.q, i, ev)
}

// run fires every event due at or before t, then advances the clock to t
// (Run passes timeMax and leaves the clock at the last event).
func (r *refQueue) run(t Time, fire func(refEvent)) {
	for len(r.q) > 0 && r.q[0].at <= t {
		ev := r.q[0]
		r.q = r.q[1:]
		r.now = ev.at
		fire(ev)
	}
	if t != timeMax && r.now < t {
		r.now = t
	}
}

// firing is one fired event: which schedule it was and when it ran.
type firing struct {
	id int
	at Time
}

// FuzzEventOrder drives the engine and refQueue through the same operation
// sequence — schedule at a delay (top level, or one that schedules a child
// when it fires), cancel the k-th live timer, RunUntil, RunWindow and Run —
// and requires identical firings, live timers, Pending and NextEventAt
// after every operation. Each operation is three bytes: kind, then two
// operands. Kinds are weighted toward schedules so the heap grows deep
// enough for a cancel to have to move an event up.
func FuzzEventOrder(f *testing.F) {
	const sched, nested, cancel, until, window, run = 0, 7, 9, 12, 14, 15
	// Ties at one instant, zero and negative delays, nested schedules,
	// cancels before and after firing, and every drive mode.
	f.Add([]byte{sched, 5, 0, sched, 5, 0, nested, 0, 0, sched, 0x80, 0, nested, 3, 0xfd,
		cancel, 1, 0, until, 4, 0, sched, 7, 0, window, 9, 0, run, 0, 0})
	f.Add([]byte{nested, 10, 10, nested, 10, 0, cancel, 0, 0, nested, 3, 3, window, 12, 0,
		cancel, 5, 0, until, 255, 0, run, 0, 0})
	// A mid-heap cancel whose replacement must sift up past its new parent.
	f.Add([]byte{sched, 1, 0, sched, 10, 0, sched, 2, 0, sched, 11, 0, sched, 12, 0, sched, 3, 0,
		sched, 4, 0, sched, 20, 0, sched, 21, 0, sched, 22, 0, sched, 23, 0, sched, 5, 0, cancel, 3, 0, run, 0, 0})
	rnd := NewRand(7)
	for n := 0; n < 6; n++ {
		data := make([]byte, 3*(20+rnd.Intn(100)))
		rnd.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		eng := NewEngine(1)
		ref := &refQueue{}
		var timers []Timer // by id, in schedule order
		var got, want []firing
		var schedEng func(d time.Duration, child time.Duration, hasChild bool)
		schedEng = func(d, child time.Duration, hasChild bool) {
			id := len(timers)
			timers = append(timers, eng.Schedule(d, func() {
				got = append(got, firing{id, eng.Now()})
				if hasChild {
					schedEng(child, 0, false)
				}
			}))
		}
		refIDs := 0
		fireRef := func(ev refEvent) {
			want = append(want, firing{ev.id, ev.at})
			if ev.hasChild {
				ref.schedule(ev.child, refEvent{id: refIDs})
				refIDs++
			}
		}
		schedRef := func(d, child time.Duration, hasChild bool) {
			ref.schedule(d, refEvent{id: refIDs, child: child, hasChild: hasChild})
			refIDs++
		}
		delay := func(b byte) time.Duration { return time.Duration(int8(b)) * time.Microsecond }

		for op := 0; op+3 <= len(data); op += 3 {
			a, b := data[op+1], data[op+2]
			switch k := data[op] % 16; {
			case k < nested:
				schedEng(delay(a), 0, false)
				schedRef(delay(a), 0, false)
			case k < cancel:
				schedEng(delay(a), delay(b), true)
				schedRef(delay(a), delay(b), true)
			case k < until:
				if live := liveIDs(timers); len(live) > 0 {
					k := live[int(a)%len(live)]
					timers[k].Cancel()
					i := slices.IndexFunc(ref.q, func(ev refEvent) bool { return ev.id == k })
					ref.q = slices.Delete(ref.q, i, i+1)
				}
			case k < window:
				end := eng.Now().Add(time.Duration(a) * time.Microsecond)
				eng.RunUntil(end)
				ref.run(end, fireRef)
			case k < run:
				end := eng.Now().Add(time.Duration(a) * time.Microsecond)
				before := len(got)
				if n := eng.RunWindow(end); n != len(got)-before {
					t.Fatalf("op %d: RunWindow reported %d events, %d fired", op/3, n, len(got)-before)
				}
				ref.run(end, fireRef)
			default:
				eng.Run()
				ref.run(timeMax, fireRef)
			}
			checkAgainstRef(t, op/3, eng, ref, timers, got, want)
		}
		eng.Run()
		ref.run(timeMax, fireRef)
		checkAgainstRef(t, len(data)/3, eng, ref, timers, got, want)
	})
}

// liveIDs returns the ids whose timers are still active, in schedule order.
func liveIDs(timers []Timer) []int {
	var live []int
	for id, tm := range timers {
		if tm.Active() {
			live = append(live, id)
		}
	}
	return live
}

func checkAgainstRef(t *testing.T, op int, eng *Engine, ref *refQueue, timers []Timer, got, want []firing) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("after op %d: engine fired %v, reference %v", op, got, want)
	}
	if eng.Now() != ref.now {
		t.Fatalf("after op %d: engine clock %v, reference %v", op, eng.Now(), ref.now)
	}
	refLive := make([]int, len(ref.q))
	for i, ev := range ref.q {
		refLive[i] = ev.id
	}
	slices.Sort(refLive)
	if live := liveIDs(timers); !slices.Equal(live, refLive) {
		t.Fatalf("after op %d: engine live timers %v, reference %v", op, live, refLive)
	}
	if eng.Pending() != len(ref.q) {
		t.Fatalf("after op %d: Pending = %d, reference holds %d", op, eng.Pending(), len(ref.q))
	}
	next, ok := eng.NextEventAt()
	if ok != (len(ref.q) > 0) || ok && next != ref.q[0].at {
		t.Fatalf("after op %d: NextEventAt = %v, %v; reference %v", op, next, ok, ref.q)
	}
}
