// Package sim provides the discrete-event simulation kernel used by every
// other subsystem in this repository: a virtual clock, a cancellable event
// heap, FIFO service resources (used to model CPU cores and PCIe channels),
// and seeded random distributions.
//
// All simulated latencies in the repository are measured in virtual time
// produced by this package, so results are exactly reproducible for a fixed
// seed regardless of host machine speed.
//
// # Ownership
//
// An Engine is share-nothing: it is owned by exactly one goroutine at a
// time, the one driving Step/Run/RunUntil/RunFor. Sharing one engine
// between goroutines is a bug, and the engine detects concurrent drivers
// with a cheap atomic check and panics. Parallel runs build on this rule
// (see sim/runtime): each engine owns a whole model and runs to
// completion with no communication (the Runner/Fleet path).
//
// # Allocation discipline
//
// Events are pooled per engine: firing or cancelling an event returns it
// (with its callback references cleared) to an engine-owned free list, so
// steady-state scheduling is allocation-free. The arg-based variants
// (ScheduleArg, AtArg) let hot paths avoid closure allocations entirely by
// passing a package-level function plus a pooled state value; Pool is the
// free list those state values, and the events themselves, are kept on.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Durations are expressed with time.Duration, which uses the
// same nanosecond unit.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and s (t - s).
func (t Time) Sub(s Time) time.Duration { return time.Duration(t - s) }

// Duration converts t to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback, owned by its engine's pool. Model code
// never holds a *Event directly; it holds a Timer, whose generation check
// makes a handle to a fired-and-recycled event a harmless no-op.
type Event struct {
	eng   *Engine
	at    Time
	seq   uint64
	gen   uint64
	fn    func(any)
	arg   any
	index int32 // heap index; -1 when not queued
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and inactive. Timers are value types: copy them freely, but only
// the engine's owning goroutine may use them.
type Timer struct {
	e   *Event
	gen uint64
}

// Active reports whether the event is still pending (not fired, not
// cancelled).
func (t Timer) Active() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.index != -1
}

// Cancel removes the event from the queue and releases it (and its callback
// references) back to the engine pool. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t Timer) Cancel() {
	ev := t.e
	if ev == nil || ev.gen != t.gen || ev.index == -1 {
		return
	}
	ev.eng.remove(ev)
	ev.eng.release(ev)
}

// Engine is a single-threaded discrete-event scheduler. All model code runs
// inside event callbacks on the owning goroutine; see the package comment
// for the ownership rules.
type Engine struct {
	now   Time
	seq   uint64
	heap  []*Event
	free  Pool[Event] // unbound: Pending already counts the events in use
	pools []*int      // outstanding counts of the pools bound here (NewPool)
	Rand  *Rand

	processed uint64
	busy      atomic.Int32

	// cur is the running (or, after Step, last run) event's seq, and
	// math.MaxUint64 between runs: with now it is the cursor a Backlog
	// settles against.
	// backlogs lists every Backlog built on the engine, so Run can end
	// the clock at the last departure.
	cur      uint64
	backlogs []*Backlog
	failed   int // Fail calls; failErr is the first one's error
	failErr  error
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{Rand: NewRand(seed), cur: math.MaxUint64}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Fail records a broken invariant a checker on the engine found (a read of
// the wrong block): the run goes on, and fails at its end like a leak.
func (e *Engine) Fail(err error) { e.failErr, e.failed = cmp.Or(e.failErr, err), e.failed+1 }

// Failed returns how many times Fail was called, and the first error.
func (e *Engine) Failed() (int, error) { return e.failed, e.failErr }

// Pending returns the number of events still queued. Backlog departures
// are not events and are not counted.
func (e *Engine) Pending() int { return len(e.heap) }

// enter marks the engine as being driven; a second concurrent driver is a
// share-nothing violation and panics immediately.
func (e *Engine) enter() {
	if !e.busy.CompareAndSwap(0, 1) {
		panic("sim: Engine driven from multiple goroutines; each Engine is owned by exactly one")
	}
}

func (e *Engine) leave() { e.busy.Store(0) }

// eventBlock is how many Events are allocated at once when the free list is
// empty; batching keeps pool refills rare and the events cache-adjacent.
const eventBlock = 128

func (e *Engine) alloc() *Event {
	if ev := e.free.Get(); ev != nil {
		return ev
	}
	block := make([]Event, eventBlock)
	for i := range block {
		block[i].eng = e
		block[i].index = -1
	}
	// The rest of the block goes straight onto the list: nobody got these.
	for i := eventBlock - 1; i > 0; i-- {
		e.free.free = append(e.free.free, &block[i])
	}
	return &block[0]
}

// release returns a fired or cancelled event to the pool, dropping its
// callback references so they cannot pin packet buffers, and bumping the
// generation so outstanding Timers become no-ops.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.arg = nil
	ev.gen++
	e.free.Put(ev)
}

// callFunc is the one adapter between the two callback spellings: the
// closure forms (Schedule, At, Server.Submit, Channel.Transfer) box their
// func() in arg and run it through here, so the scheduler carries a single
// (fn, arg) shape. A func value is pointer-shaped, so the boxing allocates
// nothing; a nil closure is a no-op event.
func callFunc(a any) {
	if fn := a.(func()); fn != nil {
		fn()
	}
}

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	return e.ScheduleArg(d, callFunc, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past is an error
// in the model; it panics to surface the bug immediately.
func (e *Engine) At(t Time, fn func()) Timer {
	return e.AtArg(t, callFunc, fn)
}

// ScheduleArg runs fn(arg) after delay d. Unlike Schedule it takes a plain
// function plus an explicit argument, so hot paths can pass a package-level
// function and a pooled state value instead of allocating a closure.
func (e *Engine) ScheduleArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now.Add(d), fn, arg)
}

// ScheduleCoarseArg is ScheduleArg, kept because benchmark/layers.go calls it.
func (e *Engine) ScheduleCoarseArg(d time.Duration, fn func(any), arg any) Timer {
	return e.ScheduleArg(d, fn, arg)
}

// AtArg runs fn(arg) at absolute virtual time t; see ScheduleArg.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.arg = arg
	e.push(ev)
	return Timer{e: ev, gen: ev.gen}
}

// Step executes the next event, advancing the clock. It returns false when
// no events remain. Backlogs settle against the event Step last ran.
func (e *Engine) Step() bool {
	e.enter()
	defer e.leave()
	return e.step()
}

func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.cur = ev.seq
	e.processed++
	fn, arg := ev.fn, ev.arg
	e.release(ev)
	fn(arg)
	return true
}

// Run executes events until the queue drains. Departures still queued
// after the last event then leave too, and the clock ends at the last of
// them, as if each had been an event.
func (e *Engine) Run() {
	e.enter()
	defer e.leave()
	for e.step() {
	}
	for _, b := range e.backlogs {
		if at, ok := b.last(); ok && at > e.now {
			e.now = at
		}
	}
	e.cur = math.MaxUint64
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.enter()
	defer e.leave()
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
	e.cur = math.MaxUint64
}

// RunFor executes events for duration d of virtual time from now.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now.Add(d)) }

// Intrusive binary min-heap ordered by (at, seq). Events carry their own
// heap index so Cancel can remove them eagerly in O(log n) without the
// container/heap interface indirection.

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *Event) {
	ev.index = int32(len(e.heap))
	e.heap = append(e.heap, ev)
	e.siftUp(len(e.heap) - 1)
}

// pop removes the root bottom-up: the hole it leaves walks to a leaf along
// the lesser child, one comparison per level instead of siftDown's two, and
// the last element fills it and sifts up, which from a leaf is rarely far.
// Keys are unique, so the heap pops in the same order either way.
func (e *Engine) pop() *Event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	e.heap = h
	if n > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && eventLess(h[r], h[m]) {
				m = r
			}
			h[i] = h[m]
			h[i].index = int32(i)
			i = m
		}
		h[i] = last
		last.index = int32(i)
		e.siftUp(i)
	}
	root.index = -1
	return root
}

func (e *Engine) remove(ev *Event) {
	i := int(ev.index)
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if i < n {
		e.heap[i] = last
		last.index = int32(i)
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	ev.index = -1
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

func (e *Engine) siftDown(i int) bool {
	h := e.heap
	n := len(h)
	ev := h[i]
	top := i
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && eventLess(h[r], h[m]) {
			m = r
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = int32(i)
		i = m
	}
	h[i] = ev
	ev.index = int32(i)
	return i > top
}

// Rand wraps math/rand with the distributions the models need. Each
// stream belongs to the engine that draws from it.
type Rand struct {
	*rand.Rand
}

// NewRand returns a deterministic random source.
func NewRand(seed int64) *Rand {
	return &Rand{rand.New(rand.NewSource(seed))}
}

// Fork derives an independent stream from r, so subsystems can consume
// randomness without perturbing each other's sequences.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Int63())
}

// Exp samples an exponential distribution with the given mean.
func (r *Rand) Exp(mean time.Duration) time.Duration {
	return time.Duration(r.ExpFloat64() * float64(mean))
}

// LogNormal samples a log-normal distribution parameterised by its median
// and sigma (the shape parameter of the underlying normal). Latency tails in
// the models use this shape: p50 = median, p95 ≈ median·e^(1.64σ).
func (r *Rand) LogNormal(median time.Duration, sigma float64) time.Duration {
	return time.Duration(float64(median) * math.Exp(sigma*r.NormFloat64()))
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f].
func (r *Rand) Jitter(d time.Duration, f float64) time.Duration {
	scale := 1 + f*(2*r.Float64()-1)
	return time.Duration(float64(d) * scale)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
