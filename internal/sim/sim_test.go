package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	eng.Schedule(30*time.Microsecond, func() { got = append(got, 3) })
	eng.Schedule(10*time.Microsecond, func() { got = append(got, 1) })
	eng.Schedule(20*time.Microsecond, func() { got = append(got, 2) })
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if eng.Now() != Time(30*time.Microsecond) {
		t.Fatalf("clock = %v, want 30µs", eng.Now())
	}
}

// Events due at one instant fire in scheduling order, whichever form armed
// them; zero and negative delays clamp to now.
func TestEngineFIFOAtSameTime(t *testing.T) {
	for _, row := range []struct {
		name   string
		delays []time.Duration
		at     Time
	}{
		{"positive", []time.Duration{time.Microsecond}, Time(time.Microsecond)},
		{"zero-and-negative", []time.Duration{0, -time.Second, -1}, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			eng := NewEngine(1)
			var got []int
			for i := 0; i < 10; i++ {
				d := row.delays[i%len(row.delays)]
				if i%2 == 0 {
					eng.Schedule(d, func() { got = append(got, i) })
				} else {
					eng.ScheduleArg(d, func(a any) { got = append(got, a.(int)) }, i)
				}
			}
			eng.Run()
			if len(got) != 10 {
				t.Fatalf("fired %d of 10 events", len(got))
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("same-time events not FIFO: %v", got)
				}
			}
			if eng.Now() != row.at {
				t.Fatalf("clock = %v, want %v", eng.Now(), row.at)
			}
		})
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine(1)
	fired := false
	tm := eng.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Active() {
		t.Fatal("Active() = false before Cancel")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("Active() = true after Cancel")
	}
	tm.Cancel() // double-cancel is a no-op
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelReleasesCallback(t *testing.T) {
	eng := NewEngine(1)
	tm := eng.Schedule(time.Millisecond, func() {})
	ev := tm.e
	tm.Cancel()
	if ev.fn != nil || ev.arg != nil {
		t.Fatal("cancelled event still pins its callback")
	}
	if len(eng.free.free) == 0 {
		t.Fatal("cancelled event not returned to the pool")
	}
}

func TestStaleTimerDoesNotCancelRecycledEvent(t *testing.T) {
	eng := NewEngine(1)
	first := eng.Schedule(time.Microsecond, func() {})
	eng.Run() // fires; the event returns to the pool
	fired := false
	second := eng.Schedule(time.Microsecond, func() { fired = true })
	first.Cancel() // stale handle; may alias second's recycled Event
	if !second.Active() {
		t.Fatal("stale Cancel deactivated a recycled event")
	}
	eng.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestCancelMidHeapKeepsOrdering(t *testing.T) {
	eng := NewEngine(1)
	var got []int
	var timers []Timer
	for i := 0; i < 50; i++ {
		i := i
		timers = append(timers, eng.Schedule(time.Duration(37*i%50)*time.Microsecond, func() {
			got = append(got, 37*i%50)
		}))
	}
	for i := 0; i < 50; i += 3 {
		timers[i].Cancel()
	}
	eng.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order after mid-heap removals: %v", got)
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after drain", eng.Pending())
	}
}

func TestConcurrentDrivePanics(t *testing.T) {
	eng := NewEngine(1)
	res := make(chan any, 1)
	eng.Schedule(time.Microsecond, func() {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			eng.Step() // second driver while Run holds the engine
		}()
		res <- <-done
	})
	eng.Run()
	if r := <-res; r == nil {
		t.Fatal("driving one engine from two goroutines did not panic")
	}
}

func TestSteadyStateSchedulingAllocs(t *testing.T) {
	eng := NewEngine(1)
	noop := func(any) {}
	// Warm the event pool and the heap's backing array.
	for i := 0; i < 256; i++ {
		eng.ScheduleArg(time.Microsecond, noop, nil)
	}
	eng.Run()
	avg := testing.AllocsPerRun(200, func() {
		eng.ScheduleArg(time.Microsecond, noop, nil)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state schedule/fire allocates %v per cycle, want 0", avg)
	}
}

// TestArmCancelRearmAllocs is the pooling gate for the retransmit pattern:
// timers armed and cancelled before firing, then re-armed, must not
// allocate once the event pool and heap are warm.
func TestArmCancelRearmAllocs(t *testing.T) {
	eng := NewEngine(1)
	var warm []Timer
	for i := 0; i < 64; i++ {
		warm = append(warm, eng.Schedule(time.Millisecond, func() {}))
	}
	for _, tm := range warm {
		tm.Cancel()
	}
	tick := func(any) {}
	avg := testing.AllocsPerRun(200, func() {
		var tms [32]Timer
		for i := range tms {
			tms[i] = eng.ScheduleArg(time.Duration(i+1)*100*time.Microsecond, tick, nil)
		}
		for i := range tms {
			tms[i].Cancel() // armed and disarmed before firing, like an RTO on a healthy path
		}
		eng.RunFor(50 * time.Microsecond)
	})
	if avg != 0 {
		t.Fatalf("arm/cancel churn allocates %.2f per cycle, want 0", avg)
	}
}

func TestSubmitArgAllocs(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, "cpu", 2)
	noop := func(any) {}
	for i := 0; i < 64; i++ {
		srv.SubmitArg(time.Microsecond, noop, nil)
	}
	eng.Run()
	avg := testing.AllocsPerRun(200, func() {
		srv.SubmitArg(time.Microsecond, noop, nil)
		srv.SubmitArg(time.Microsecond, noop, nil)
		srv.SubmitArg(time.Microsecond, noop, nil)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state SubmitArg allocates %v per cycle, want 0", avg)
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		d := d
		eng.Schedule(d, func() { fired = append(fired, d) })
	}
	eng.RunUntil(Time(2 * time.Millisecond))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if eng.Now() != Time(2*time.Millisecond) {
		t.Fatalf("clock = %v, want 2ms", eng.Now())
	}
	eng.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

// runWindow drives e to until with RunUntil and returns how many events
// fired on the way, by the Processed delta.
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

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine(1)
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			eng.Schedule(time.Microsecond, step)
		}
	}
	eng.Schedule(0, step)
	eng.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(time.Millisecond, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	eng.At(Time(0), func() {})
}

func TestServerSingleUnit(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, "cpu", 1)
	var doneAt []Time
	for i := 0; i < 3; i++ {
		srv.Submit(10*time.Microsecond, func() { doneAt = append(doneAt, eng.Now()) })
	}
	eng.Run()
	want := []Time{Time(10 * time.Microsecond), Time(20 * time.Microsecond), Time(30 * time.Microsecond)}
	for i, w := range want {
		if doneAt[i] != w {
			t.Fatalf("job %d done at %v, want %v", i, doneAt[i], w)
		}
	}
	if srv.Served() != 3 {
		t.Fatalf("served = %d", srv.Served())
	}
}

func TestServerParallelUnits(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, "cpu", 2)
	var doneAt []Time
	for i := 0; i < 4; i++ {
		srv.Submit(10*time.Microsecond, func() { doneAt = append(doneAt, eng.Now()) })
	}
	eng.Run()
	// Two at 10µs, two at 20µs.
	if doneAt[1] != Time(10*time.Microsecond) || doneAt[3] != Time(20*time.Microsecond) {
		t.Fatalf("completion times %v", doneAt)
	}
}

func TestServerUtilization(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, "cpu", 4)
	// Keep 2 of 4 units busy for the whole run.
	for i := 0; i < 2; i++ {
		srv.Submit(time.Millisecond, nil)
	}
	eng.Run()
	u := srv.Utilization()
	if math.Abs(u-2.0) > 0.01 {
		t.Fatalf("utilization = %v, want ~2.0 busy units", u)
	}
}

func TestChannelSerialization(t *testing.T) {
	eng := NewEngine(1)
	// 1 Gbit/s → 1000 bytes take 8µs.
	ch := NewChannel(eng, "pcie", 1e9)
	var doneAt []Time
	ch.Transfer(1000, func() { doneAt = append(doneAt, eng.Now()) })
	ch.Transfer(1000, func() { doneAt = append(doneAt, eng.Now()) })
	eng.Run()
	if doneAt[0] != Time(8*time.Microsecond) {
		t.Fatalf("first transfer at %v, want 8µs", doneAt[0])
	}
	if doneAt[1] != Time(16*time.Microsecond) {
		t.Fatalf("second transfer at %v, want 16µs (queued)", doneAt[1])
	}
	if got := ch.Transferred(); got != 2000 {
		t.Fatalf("transferred = %d", got)
	}
}

func TestChannelBacklog(t *testing.T) {
	eng := NewEngine(1)
	ch := NewChannel(eng, "pcie", 1e9)
	ch.Transfer(125000, nil) // 1ms worth
	if b := ch.Backlog(); b != time.Millisecond {
		t.Fatalf("backlog = %v, want 1ms", b)
	}
	eng.Run()
	if b := ch.Backlog(); b != 0 {
		t.Fatalf("backlog after drain = %v", b)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandLogNormalMedian(t *testing.T) {
	r := NewRand(42)
	const n = 20000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(r.LogNormal(100*time.Microsecond, 0.5))
	}
	// Median should be near 100µs.
	count := 0
	for _, s := range samples {
		if s < float64(100*time.Microsecond) {
			count++
		}
	}
	frac := float64(count) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median fraction = %v, want ~0.5", frac)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(42)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Exp(time.Millisecond))
	}
	mean := sum / n
	if math.Abs(mean-float64(time.Millisecond)) > float64(time.Millisecond)*0.05 {
		t.Fatalf("mean = %v, want ~1ms", time.Duration(mean))
	}
}

// Property: for any sequence of Submit calls, a 1-unit server completes jobs
// in FIFO order and total busy time equals the sum of service times.
func TestServerFIFOProperty(t *testing.T) {
	f := func(services []uint16) bool {
		if len(services) == 0 {
			return true
		}
		if len(services) > 200 {
			services = services[:200]
		}
		eng := NewEngine(3)
		srv := NewServer(eng, "cpu", 1)
		var order []int
		var total time.Duration
		for i, s := range services {
			i := i
			d := time.Duration(s) * time.Nanosecond
			total += d
			srv.Submit(d, func() { order = append(order, i) })
		}
		eng.Run()
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return eng.Now() == Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelUtilizationAndReset(t *testing.T) {
	eng := NewEngine(1)
	ch := NewChannel(eng, "pipe", 1e9)
	ch.Transfer(125_000, nil) // 1ms of pipe time
	eng.Schedule(2*time.Millisecond, func() {})
	eng.Run()
	u := ch.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	ch.ResetStats()
	if ch.Transferred() != 0 || ch.Utilization() != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestServerResetStats(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, "cpu", 2)
	srv.Submit(time.Millisecond, nil)
	eng.Run()
	if srv.Served() != 1 {
		t.Fatalf("served = %d", srv.Served())
	}
	srv.ResetStats()
	if srv.Served() != 0 || srv.Utilization() != 0 {
		t.Fatal("reset did not clear")
	}
	srv.Submit(time.Millisecond, nil)
	eng.Run()
	// Utilization reports average busy units: one unit busy the whole time.
	if got := srv.Utilization(); got < 0.95 || got > 1.05 {
		t.Fatalf("post-reset utilization = %v, want ~1 busy unit", got)
	}
}

// A nil closure is how callers charge time with nothing to run afterwards
// (core's per-block CPU): through every closure form it is a no-op that
// still fires, so it is counted like any other event, job or transfer.
func TestNilClosureIsANoOpThatStillCounts(t *testing.T) {
	eng := NewEngine(1)
	srv := NewServer(eng, "cpu", 1)
	ch := NewChannel(eng, "pipe", 1e9)
	eng.Schedule(time.Microsecond, nil)
	eng.At(Time(2*time.Microsecond), nil)
	eng.Schedule(time.Millisecond, nil)
	srv.Submit(time.Microsecond, nil)
	ch.Transfer(1000, nil)
	eng.Run()
	if got := eng.Processed(); got != 5 {
		t.Fatalf("processed %d events, want 5", got)
	}
	if srv.Served() != 1 || ch.Transferred() != 1000 {
		t.Fatalf("served=%d transferred=%d, want 1 and 1000", srv.Served(), ch.Transferred())
	}
	if eng.Now() != Time(time.Millisecond) || eng.Pending() != 0 {
		t.Fatalf("now=%v pending=%d, want the last event's 1ms and a drained queue", eng.Now(), eng.Pending())
	}
}

func TestEventAtAccessor(t *testing.T) {
	eng := NewEngine(1)
	tm := eng.Schedule(7*time.Microsecond, func() {})
	if tm.At() != Time(7*time.Microsecond) {
		t.Fatalf("At = %v", tm.At())
	}
	eng.Run()
	if tm.At() != 0 {
		t.Fatalf("At after fire = %v, want 0", tm.At())
	}
}

func TestTimeHelpers(t *testing.T) {
	a := Time(10 * time.Microsecond)
	if a.Add(5*time.Microsecond) != Time(15*time.Microsecond) {
		t.Fatal("Add broken")
	}
	if a.Sub(Time(4*time.Microsecond)) != 6*time.Microsecond {
		t.Fatal("Sub broken")
	}
	if a.String() != "10µs" {
		t.Fatalf("String = %q", a.String())
	}
}
