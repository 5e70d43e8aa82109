// Package determ exercises the determinism analyzer inside its scope: the
// fixture's import path contains internal/sim, so it is a virtual-time
// package.
package determ

import (
	"math/rand"
	"os"
	"time"
)

func envKnob() bool { return os.Getenv("KNOB") != "" } // want `os\.Getenv in a virtual-time package`

func wallclock() time.Duration {
	t0 := time.Now()             // want `time\.Now in a virtual-time package`
	time.Sleep(time.Millisecond) // want `time\.Sleep in a virtual-time package`
	return time.Since(t0)        // want `time\.Since in a virtual-time package`
}

func timers(fn func()) {
	timer := time.NewTimer(time.Second) // want `time\.NewTimer in a virtual-time package`
	_ = timer
	time.AfterFunc(time.Second, fn) // want `time\.AfterFunc in a virtual-time package`
}

func globalRand(xs []int) int {
	n := rand.Intn(10) // want `global rand\.Intn in a virtual-time package`
	rand.Shuffle(len(xs), func(i, j int) { // want `global rand\.Shuffle in a virtual-time package`
		xs[i], xs[j] = xs[j], xs[i]
	})
	return n
}

// seeded draws are the approved pattern: determinism comes from the seed.
func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Pure time arithmetic never touches the wall clock.
func durations(d time.Duration) time.Duration {
	return 2*d + time.Millisecond
}

func selects(a, b chan int) int {
	select { // want `select in a virtual-time package`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// A justified allow suppresses the diagnostic.
func allowed() time.Time {
	//lint:allow wallclock — fixture for the bench-layer escape: measures wall time, never feeds virtual time
	return time.Now()
}

// An allow for a different key suppresses nothing, and an allow that
// suppresses nothing is itself a finding.
func wrongKey() time.Time {
	//lint:allow globalrand — wrong key on purpose; does not cover wallclock // want `//lint:allow globalrand absorbs no finding`
	return time.Now() // want `time\.Now in a virtual-time package`
}
