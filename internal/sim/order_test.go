package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"
)

// refQueue is the reference for the engine's firing order: a slice kept
// sorted by (at, seq), where seq counts every schedule and every backlog
// departure in issue order and a negative delay means now. A departure is
// a silent entry: it takes a seq and its place in the order but fires
// nothing; popping it moves its bytes from queued to gone. Firing pops
// the head.
type refQueue struct {
	now    Time
	seq    uint64
	q      []refEvent
	queued [2]int
	gone   [2]uint64
	last   [2]Time // latest departure per backlog
}

type refEvent struct {
	at   Time
	seq  uint64
	id   int // -1 for a departure
	do   action
	bl   int // a departure's backlog and size
	size int
}

// action is what a fuzzed event does when it fires: nothing, schedule one
// more event, or add a departure to one of the two backlogs.
type action struct {
	kind uint8
	d    time.Duration
	bl   int
	size int
}

// timeMax is the reference's open horizon: Run is run(timeMax).
const timeMax = Time(math.MaxInt64)

const (
	doNothing = iota
	doSchedule
	doDepart
)

func (r *refQueue) schedule(d time.Duration, ev refEvent) {
	r.seq++
	ev.at, ev.seq = r.now.Add(max(d, 0)), r.seq
	r.insert(ev)
}

// depart adds a departure at or after at: a backlog's departures never go
// back in time, so a later one is clamped to the previous.
func (r *refQueue) depart(bl int, at Time, size int) {
	r.last[bl] = max(r.last[bl], at)
	r.seq++
	r.queued[bl] += size
	r.insert(refEvent{at: r.last[bl], seq: r.seq, id: -1, bl: bl, size: size})
}

func (r *refQueue) insert(ev refEvent) {
	// seq only grows, so a new entry goes after every entry at the same time.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > ev.at })
	r.q = slices.Insert(r.q, i, ev)
}

// run fires every event due at or before t and retires every departure
// due by then, then advances the clock to t (Run passes timeMax and
// leaves the clock at the last entry, event or departure).
func (r *refQueue) run(t Time, fire func(refEvent)) {
	for len(r.q) > 0 && r.q[0].at <= t {
		ev := r.q[0]
		r.q = r.q[1:]
		r.now = ev.at
		if ev.id < 0 {
			r.queued[ev.bl] -= ev.size
			r.gone[ev.bl] += uint64(ev.size)
			continue
		}
		fire(ev)
	}
	if t != timeMax && r.now < t {
		r.now = t
	}
}

// events returns the ids of the events (not departures) still queued.
func (r *refQueue) events() []int {
	var ids []int
	for _, ev := range r.q {
		if ev.id >= 0 {
			ids = append(ids, ev.id)
		}
	}
	return ids
}

// firing is one fired event: which schedule it was, when it ran, and — for
// even ids — what each backlog held queued as it ran (-1 otherwise, so
// some reads are left to settle lazily later).
type firing struct {
	id int
	at Time
	q  [2]int
}

func newFiring(id int, at Time, queued func(bl int) int) firing {
	f := firing{id: id, at: at, q: [2]int{-1, -1}}
	if id%2 == 0 {
		f.q = [2]int{queued(0), queued(1)}
	}
	return f
}

// FuzzEventOrder drives the engine and refQueue through the same operation
// sequence — schedule at a delay (top level, or one that schedules a child
// when it fires), add a departure to one of two backlogs (now, or from an
// event that fires later), cancel the k-th live timer, RunUntil, a counted
// window (RunUntil plus the Processed delta) and Run — and requires
// identical firings (with the backlogs' queued bytes seen from inside
// events), live timers, Pending, NextEventAt, Queued and Gone after every
// operation. Each operation is three bytes: kind, then two
// operands. Kinds are weighted toward schedules so the heap grows deep
// enough for a cancel to have to move an event up.
func FuzzEventOrder(f *testing.F) {
	const sched, depart, nested, cancel, until, window, run = 0, 6, 7, 9, 12, 14, 15
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
	// A departure between two events at its instant: the first sees it
	// queued, the second sees it gone. Then one due exactly when RunUntil
	// stops, after the window's last event.
	f.Add([]byte{sched, 5, 0, sched, 5, 0, depart, 4, 0x20, sched, 5, 0, until, 10, 0,
		sched, 5, 0, depart, 4, 0x41, until, 5, 0, run, 0, 0})
	// Departures with no event left: NextEventAt must report them, a window
	// ending short leaves them queued, Run drains them. Then departures
	// added from inside events, at once and later, on both backlogs.
	f.Add([]byte{depart, 9, 0x10, depart, 2, 0x11, window, 3, 0, depart, 0, 0x30, window, 7, 0, run, 0, 0,
		depart, 3, 0x02, depart, 3, 0x2b, depart, 0, 0x06, sched, 3, 0, depart, 5, 0xff, until, 20, 0, run, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		eng := NewEngine(1)
		bls := [2]*Backlog{NewBacklog(eng), NewBacklog(eng)}
		queued := func(bl int) int { return bls[bl].Queued() }
		var last [2]Time // the engine side's latest departure per backlog
		addEng := func(bl int, at Time, size int) {
			last[bl] = max(last[bl], at)
			bls[bl].Add(last[bl], size)
		}
		ref := &refQueue{}
		var timers []Timer // by id, in schedule order
		var got, want []firing
		var schedEng func(d time.Duration, do action)
		schedEng = func(d time.Duration, do action) {
			id := len(timers)
			timers = append(timers, eng.Schedule(d, func() {
				got = append(got, newFiring(id, eng.Now(), queued))
				switch do.kind {
				case doSchedule:
					schedEng(do.d, action{})
				case doDepart:
					addEng(do.bl, eng.Now().Add(do.d), do.size)
				}
			}))
		}
		refIDs := 0
		fireRef := func(ev refEvent) {
			want = append(want, newFiring(ev.id, ev.at, func(bl int) int { return ref.queued[bl] }))
			switch ev.do.kind {
			case doSchedule:
				ref.schedule(ev.do.d, refEvent{id: refIDs})
				refIDs++
			case doDepart:
				ref.depart(ev.do.bl, ref.now.Add(ev.do.d), ev.do.size)
			}
		}
		sched := func(d time.Duration, do action) {
			schedEng(d, do)
			ref.schedule(d, refEvent{id: refIDs, do: do})
			refIDs++
		}
		delay := func(b byte) time.Duration { return time.Duration(int8(b)) * time.Microsecond }

		for op := 0; op+3 <= len(data); op += 3 {
			a, b := data[op+1], data[op+2]
			switch k := data[op] % 16; {
			case k < depart:
				sched(delay(a), action{})
			case k < nested:
				// b: bit 0 the backlog, bit 1 "from an event firing at
				// delay a", bits 2-4 that event's departure delay, and the
				// size is b+1. A departure added outside an event lies in
				// the future: the cursor there is (now, ∞).
				bl, size := int(b&1), int(b)+1
				if b&2 != 0 {
					sched(delay(a), action{kind: doDepart, d: time.Duration(b>>2&7) * time.Microsecond, bl: bl, size: size})
					break
				}
				d := time.Duration(1+a%64) * time.Microsecond
				addEng(bl, eng.Now().Add(d), size)
				ref.depart(bl, ref.now.Add(d), size)
			case k < cancel:
				sched(delay(a), action{kind: doSchedule, d: delay(b)})
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
				if n := runWindow(eng, end); n != len(got)-before {
					t.Fatalf("op %d: window counted %d events, %d fired", op/3, n, len(got)-before)
				}
				ref.run(end, fireRef)
			default:
				eng.Run()
				ref.run(timeMax, fireRef)
			}
			checkAgainstRef(t, op/3, eng, bls, ref, timers, got, want)
		}
		eng.Run()
		ref.run(timeMax, fireRef)
		checkAgainstRef(t, len(data)/3, eng, bls, ref, timers, got, want)
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

func checkAgainstRef(t *testing.T, op int, eng *Engine, bls [2]*Backlog, ref *refQueue, timers []Timer, got, want []firing) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("after op %d: engine fired %v, reference %v", op, got, want)
	}
	if eng.Now() != ref.now {
		t.Fatalf("after op %d: engine clock %v, reference %v", op, eng.Now(), ref.now)
	}
	refLive := ref.events()
	slices.Sort(refLive)
	if live := liveIDs(timers); !slices.Equal(live, refLive) {
		t.Fatalf("after op %d: engine live timers %v, reference %v", op, live, refLive)
	}
	if eng.Pending() != len(refLive) {
		t.Fatalf("after op %d: Pending = %d, reference holds %d events", op, eng.Pending(), len(refLive))
	}
	next, ok := eng.NextEventAt()
	if ok != (len(ref.q) > 0) || ok && next != ref.q[0].at {
		t.Fatalf("after op %d: NextEventAt = %v, %v; reference %v", op, next, ok, ref.q)
	}
	for bl, b := range bls {
		if q, g := b.Queued(), b.Gone(); q != ref.queued[bl] || g != ref.gone[bl] {
			t.Fatalf("after op %d: backlog %d queued %d gone %d; reference %d, %d", op, bl, q, g, ref.queued[bl], ref.gone[bl])
		}
	}
}
