package sim

import (
	"math"
	"testing"
	"time"
)

// A paused bucket (rate 0) must not divide by zero in Delay: before the
// guard, need/rate yielded +Inf and the float→Duration conversion was
// undefined. The sentinel is Forever and no waiter timer is armed.
func TestTokenBucketZeroRateDelay(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 0, 8)
	for i := 0; i < 8; i++ {
		if !b.TryTake(1) {
			t.Fatalf("take %d failed within explicit burst", i)
		}
	}
	if d := b.Delay(1); d != Forever {
		t.Fatalf("paused-bucket delay = %v, want Forever", d)
	}
	if b.TryTake(1) {
		t.Fatal("paused empty bucket admitted a take")
	}
}

// Negative rates behave like paused: no refill (the old refill code would
// have drained tokens below zero over time).
func TestTokenBucketNegativeRateDoesNotDrain(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, -5, 4)
	eng.Schedule(time.Hour, func() {})
	eng.Run()
	if got := b.Available(); got != 4 {
		t.Fatalf("available = %v after an hour at rate -5, want 4 (no refill, no drain)", got)
	}
	if d := b.Delay(5); d != Forever {
		t.Fatalf("delay = %v, want Forever", d)
	}
}

// NewTokenBucket with rate <= 0 and no explicit burst must not start with
// a negative burst/token count.
func TestNewTokenBucketNonPositiveRate(t *testing.T) {
	eng := NewEngine(1)
	for _, rate := range []float64{0, -3} {
		b := NewTokenBucket(eng, rate, 0)
		if got := b.Available(); got != 0 {
			t.Fatalf("rate=%v: available = %v, want 0", rate, got)
		}
		if b.TryTake(1) {
			t.Fatalf("rate=%v: empty paused bucket admitted a take", rate)
		}
		if d := b.Delay(1); d != Forever {
			t.Fatalf("rate=%v: delay = %v, want Forever", rate, d)
		}
	}
}

// A rate tiny enough that the refill wait overflows int64 nanoseconds must
// clamp to Forever, not wrap negative (which would schedule a waiter in
// the past and panic the engine).
func TestTokenBucketTinyRateDelayClamps(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 1e-18, 10)
	b.TryTake(10) // drain the initial burst
	d := b.Delay(1)
	if d != Forever {
		t.Fatalf("tiny-rate delay = %v, want Forever", d)
	}
	if d < 0 {
		t.Fatalf("tiny-rate delay wrapped negative: %v", d)
	}
	// Sanity: a representable-but-huge wait still comes out positive.
	b2 := NewTokenBucket(eng, 1e-6, 10)
	b2.TryTake(10)
	if d := b2.Delay(1); d <= 0 || d == Forever {
		t.Fatalf("slow-rate delay = %v, want a positive finite duration", d)
	}
}

// Delay must round up, never truncate to zero for a positive need: a
// waiter woken a float-hair early re-arms with the residual need, and a
// truncated 0 ns delay would re-fire at the same virtual instant forever
// (refill sees dt == 0 and adds nothing — a virtual-time livelock). Rates
// that don't divide a nanosecond evenly (2000/s → 500000.000... ±ulp per
// token) hit this under many-waiter contention.
func TestTokenBucketDelayNeverTruncatesToZero(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 2000, 2)
	b.TryTake(2)
	// A residual need representable only below 1 ns of refill: the delay
	// must still be at least 1 ns so virtual time advances.
	b.tokens = 1 - 1e-12
	if d := b.Delay(1); d <= 0 {
		t.Fatalf("delay for sub-ns residual need = %v, want >= 1ns", d)
	}
	// End-to-end: 17 competing waiters on one 2000/s bucket must all
	// drain within bounded virtual time (the livelock kept Run from ever
	// returning).
	b.tokens = 0
	fired := 0
	for i := 0; i < 17; i++ {
		b.Wait(1, func() { fired++ })
	}
	eng.Run()
	if fired != 17 || b.Waiting() != 0 {
		t.Fatalf("fired = %d, waiting = %d; want 17 and 0", fired, b.Waiting())
	}
	if got, want := eng.Now().Duration(), 17*time.Millisecond; got > want {
		t.Fatalf("17 tokens at 2000/s took %v, want <= %v", got, want)
	}
}

// Wait on a paused bucket parks with no timer; SetRate re-arms it and the
// waiter fires at exactly the instant the new rate implies.
func TestTokenBucketWaitPausedThenSetRate(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 0, 10)
	b.TryTake(10)
	var fired Time
	b.Wait(5, func() { fired = eng.Now() })
	if b.Waiting() != 1 {
		t.Fatalf("waiting = %d, want 1 parked waiter", b.Waiting())
	}
	// Unpause at t=1ms: 5 tokens at 1000/s arrive 5ms later.
	eng.Schedule(time.Millisecond, func() { b.SetRate(1000) })
	eng.Run()
	want := Time(0).Add(6 * time.Millisecond)
	if fired != want {
		t.Fatalf("waiter fired at %v, want %v", fired, want)
	}
	if b.Waiting() != 0 {
		t.Fatalf("waiting = %d after fire, want 0", b.Waiting())
	}
}

// Raising the rate mid-wait must pull the wake earlier: under the old
// code the waiter stayed scheduled at the instant computed from the old
// rate and woke late.
func TestTokenBucketSetRateReArmsEarlier(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 10, 10) // 10/s: 5 tokens need 500ms
	b.TryTake(10)
	var fired Time
	b.Wait(5, func() { fired = eng.Now() })
	// At t=100ms the bucket holds 1 token; at 1000/s the remaining 4
	// arrive 4ms later.
	eng.Schedule(100*time.Millisecond, func() { b.SetRate(1000) })
	eng.Run()
	want := Time(0).Add(104 * time.Millisecond)
	if fired != want {
		t.Fatalf("waiter fired at %v, want %v (stale wake would be 500ms)", fired, want)
	}
}

// Cutting the rate mid-wait must push the wake later in one step, not
// leave the stale early timer to fire, fail, and re-arm.
func TestTokenBucketSetRateCutParksLonger(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 1000, 10) // 5 tokens in 5ms
	b.TryTake(10)
	var fired Time
	b.Wait(5, func() { fired = eng.Now() })
	// At t=1ms the bucket holds 1 token; at 10/s the remaining 4 need
	// 400ms more.
	eng.Schedule(time.Millisecond, func() { b.SetRate(10) })
	eng.Run()
	want := Time(0).Add(401 * time.Millisecond)
	if fired != want {
		t.Fatalf("waiter fired at %v, want %v", fired, want)
	}
}

// Cutting to zero parks the waiter indefinitely; the engine must drain
// (no busy re-arm loop at Forever).
func TestTokenBucketSetRateToZeroParks(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 1000, 10)
	b.TryTake(10)
	fired := false
	b.Wait(5, func() { fired = true })
	eng.Schedule(time.Millisecond, func() { b.SetRate(0) })
	eng.Run() // must terminate
	if fired {
		t.Fatal("waiter fired on a paused bucket")
	}
	if b.Waiting() != 1 {
		t.Fatalf("waiting = %d, want the waiter still parked", b.Waiting())
	}
	// A later raise still wakes it.
	b.SetRate(1e6)
	eng.Run()
	if !fired {
		t.Fatal("waiter never woke after the bucket was unpaused")
	}
}

// Multiple parked waiters re-arm in arrival order across a SetRate, so
// admission order is stable.
func TestTokenBucketSetRatePreservesWaiterOrder(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 10, 4)
	b.TryTake(4)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		b.Wait(2, func() { order = append(order, i) })
	}
	eng.Schedule(time.Millisecond, func() { b.SetRate(10000) })
	eng.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("waiters fired in order %v, want [0 1 2]", order)
	}
}

// TestTokenBucketWait: a parked wait must admit at the exact refill instants
// and stay fair under competing waiters.
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

// Wait for more than the burst capacity can never be satisfied and stays a
// loud programming error under the new guards.
func TestTokenBucketWaitBeyondBurstPanics(t *testing.T) {
	eng := NewEngine(1)
	b := NewTokenBucket(eng, 100, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("Wait(n > burst) did not panic")
		}
	}()
	b.Wait(6, func() {})
}

// The Forever sentinel is the maximum representable Duration, so any
// comparison against real delays stays well-ordered.
func TestForeverSentinel(t *testing.T) {
	if Forever != time.Duration(math.MaxInt64) {
		t.Fatalf("Forever = %v, want MaxInt64 ns", Forever)
	}
}
