package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestCoarseFiringOrderMatchesHeap is the wheel's core determinism
// property: a schedule issued through ScheduleCoarse fires in the same
// order as the same schedule issued through exact Schedule on a second
// engine, because cascading preserves the original (time, seq) key — the
// heap is the reference for that order. Delays are drawn to cover every
// wheel level, the beyond-horizon clamp, and same-tick ties.
func TestCoarseFiringOrderMatchesHeap(t *testing.T) {
	run := func(coarse bool) []string {
		var got []string
		eng := NewEngine(42)
		arm := eng.Schedule
		if coarse {
			arm = eng.ScheduleCoarse
		}
		rnd := NewRand(99)
		var timers []Timer
		// Delay spectrum: sub-tick, level 0..3, and past the 68.7 s
		// horizon so the top-level clamp re-cascades.
		spans := []time.Duration{
			500 * time.Nanosecond, 50 * time.Microsecond,
			3 * time.Millisecond, 400 * time.Millisecond,
			20 * time.Second, 90 * time.Second,
		}
		for i := 0; i < 400; i++ {
			i := i
			d := time.Duration(rnd.Int63n(int64(spans[i%len(spans)])))
			if i%3 == 0 {
				timers = append(timers, arm(d, func() {
					got = append(got, fmt.Sprintf("c%d@%d", i, eng.Now()))
					if i%9 == 0 {
						// Nested re-arm from a callback, like an RTO
						// re-arming after firing.
						arm(d/2, func() {
							got = append(got, fmt.Sprintf("n%d@%d", i, eng.Now()))
						})
					}
				}))
			} else {
				timers = append(timers, eng.Schedule(d, func() {
					got = append(got, fmt.Sprintf("h%d@%d", i, eng.Now()))
				}))
			}
		}
		// Cancel a deterministic third of everything scheduled.
		for i, tm := range timers {
			if i%3 == 1 {
				tm.Cancel()
			}
		}
		// Drive in stages so RunUntil's settle path is exercised too.
		eng.RunFor(10 * time.Millisecond)
		eng.RunFor(30 * time.Second)
		eng.Run()
		if p := eng.Pending(); p != 0 {
			t.Fatalf("coarse=%v: %d events still pending after drain", coarse, p)
		}
		return got
	}
	wheel, heap := run(true), run(false)
	if len(wheel) != len(heap) {
		t.Fatalf("wheel fired %d callbacks, heap-only fired %d", len(wheel), len(heap))
	}
	for i := range wheel {
		if wheel[i] != heap[i] {
			t.Fatalf("firing order diverged at %d: wheel %q vs heap %q", i, wheel[i], heap[i])
		}
	}
}

// TestCoarseCancelAfterFire verifies the generation check: a Timer held
// across its event's firing and recycling must not cancel the event's next
// incarnation, including when that incarnation is parked in the wheel.
func TestCoarseCancelAfterFire(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	stale := eng.ScheduleCoarse(time.Microsecond, func() {})
	eng.Run()
	// The event is recycled; the next coarse schedule reuses it.
	fresh := eng.ScheduleCoarse(time.Millisecond, func() { fired = true })
	if stale.Active() {
		t.Fatal("stale timer reports active")
	}
	stale.Cancel() // must be a no-op on the recycled event
	if !fresh.Active() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	eng.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestCoarseZeroAndNegativeDelays: zero and negative delays clamp to "now"
// and fire in scheduling order, interleaved exactly with heap events.
func TestCoarseZeroAndNegativeDelays(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	eng.ScheduleCoarse(0, func() { got = append(got, 0) })
	eng.Schedule(0, func() { got = append(got, 1) })
	eng.ScheduleCoarse(-time.Second, func() { got = append(got, 2) })
	eng.ScheduleCoarseArg(-1, func(a any) { got = append(got, a.(int)) }, 3)
	eng.Run()
	if eng.Now() != 0 {
		t.Fatalf("clock moved to %v on zero-delay events", eng.Now())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fired out of order: %v", got)
		}
	}
}

// TestWheelCascadeAtTickBoundaries pins down behaviour at the exact slot
// and level edges: events 1 ns either side of tick multiples, at level
// boundaries, and a heap event timed exactly between them.
func TestWheelCascadeAtTickBoundaries(t *testing.T) {
	const tick = 1 << tickShift
	eng := NewEngine(1)
	type fire struct {
		label string
		at    Time
	}
	var got []fire
	add := func(class string, d time.Duration) {
		label := fmt.Sprintf("%s%v", class, d)
		fn := func() { got = append(got, fire{label, eng.Now()}) }
		if class == "c" {
			eng.ScheduleCoarse(d, fn)
		} else {
			eng.Schedule(d, fn)
		}
	}
	edges := []int64{
		tick - 1, tick, tick + 1, // level-0 entry edge
		wheelSlots*tick - 1, wheelSlots * tick, wheelSlots*tick + 1, // level-1 edge
		wheelSlots*wheelSlots*tick - 1, wheelSlots * wheelSlots * tick, // level-2 edge
	}
	for _, e := range edges {
		add("c", time.Duration(e))
		add("h", time.Duration(e)) // same-instant heap twin
	}
	eng.Run()
	if len(got) != 2*len(edges) {
		t.Fatalf("fired %d of %d events", len(got), 2*len(edges))
	}
	for i := 0; i+1 < len(got); i++ {
		if got[i].at > got[i+1].at {
			t.Fatalf("fired out of time order: %v then %v", got[i], got[i+1])
		}
	}
	// Each coarse/heap twin pair fires at the same instant with the
	// coarse one first (it was scheduled first: lower seq).
	for i := 0; i < len(got); i += 2 {
		c, h := got[i], got[i+1]
		if c.label[0] != 'c' || h.label[0] != 'h' || c.label[1:] != h.label[1:] || c.at != h.at {
			t.Fatalf("twin pair broken at %d: %v / %v", i, c, h)
		}
	}
}

// TestCoarsePendingAccounting: Pending must count parked events, and
// cancelling must return them to the pool without a trip through the heap.
func TestCoarsePendingAccounting(t *testing.T) {
	eng := NewEngine(1)
	var tms []Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, eng.ScheduleCoarse(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if got := eng.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	for _, tm := range tms {
		if !tm.Active() {
			t.Fatal("parked timer reports inactive")
		}
	}
	for _, tm := range tms[:5] {
		tm.Cancel()
	}
	if got := eng.Pending(); got != 5 {
		t.Fatalf("Pending after cancel = %d, want 5", got)
	}
	eng.Run()
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// TestCoarseArmDisarmAllocs is the pooling gate for the retransmit pattern:
// steady-state arm/cancel/re-arm churn on the wheel must not allocate.
func TestCoarseArmDisarmAllocs(t *testing.T) {
	eng := NewEngine(1)
	// Warm the event pool past the churn's working set.
	var warm []Timer
	for i := 0; i < 64; i++ {
		warm = append(warm, eng.ScheduleCoarse(time.Millisecond, func() {}))
	}
	for _, tm := range warm {
		tm.Cancel()
	}
	tick := func(any) {}
	avg := testing.AllocsPerRun(200, func() {
		var tms [32]Timer
		for i := range tms {
			tms[i] = eng.ScheduleCoarseArg(time.Duration(i+1)*100*time.Microsecond, tick, nil)
		}
		for i := range tms {
			tms[i].Cancel() // armed and disarmed before firing, like an RTO on a healthy path
		}
		eng.RunFor(50 * time.Microsecond)
	})
	if avg != 0 {
		t.Fatalf("coarse arm/disarm churn allocates %.2f per cycle, want 0", avg)
	}
}

// TestTokenBucketWait: the bucket's coarse-class wait must admit at the
// exact refill instants (pacing unchanged by the wheel) and stay fair under
// competing waiters.
func TestTokenBucketWait(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 1000, 1) // 1 token/ms, burst 1
	var admitted []Time
	for i := 0; i < 5; i++ {
		b.Wait(1, func() { admitted = append(admitted, eng.Now()) })
	}
	eng.Run()
	if len(admitted) != 5 {
		t.Fatalf("admitted %d of 5 waiters", len(admitted))
	}
	// Burst admits the first synchronously; the rest pace at 1 ms.
	for i, at := range admitted {
		want := Time(int64(i) * int64(time.Millisecond))
		if at != want {
			t.Fatalf("waiter %d admitted at %v, want %v", i, at, want)
		}
	}
}

// BenchmarkTimerChurn measures the retransmit-timer pattern both ways:
// arm, advance a little, cancel, re-arm — the dominant timer workload in
// every stack. The wheel sub-benchmark arms through ScheduleCoarseArg; the
// heap sub-benchmark arms the same timers through exact ScheduleArg.
// arms/sec is the comparable figure.
func BenchmarkTimerChurn(b *testing.B) {
	churn := func(b *testing.B, coarse bool) {
		eng := NewEngine(1)
		arm := eng.ScheduleArg
		if coarse {
			arm = eng.ScheduleCoarseArg
		}
		const conns = 256
		var tms [conns]Timer
		nop := func(any) {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % conns
			tms[k].Cancel()
			tms[k] = arm(800*time.Microsecond, nop, nil)
			if k == 0 {
				eng.RunFor(20 * time.Microsecond)
			}
		}
		b.StopTimer()
		for k := range tms {
			tms[k].Cancel()
		}
		eng.Run()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "arms/sec")
	}
	b.Run("wheel", func(b *testing.B) { churn(b, true) })
	b.Run("heap", func(b *testing.B) { churn(b, false) })
}
