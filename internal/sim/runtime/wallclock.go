package runtime

import "time"

// The bench layer is the one place in the tree allowed to read the wall
// clock: it measures how fast the simulator itself runs (sim-µs/wall-ms,
// events/sec) and never feeds the measurement back into virtual time.
// Funneling every read through these two helpers keeps the suppression
// surface to exactly two expressions (TestSuiteOverRepo counts them).

// wallNow stamps the start of a measured region.
func wallNow() time.Time {
	//lint:allow wallclock — bench layer: the one sanctioned wall-clock read; feeds perf metrics, never virtual time
	return time.Now()
}

// wallSince returns the wall time elapsed since a wallNow stamp.
func wallSince(t0 time.Time) time.Duration {
	//lint:allow wallclock — bench layer: paired with wallNow; feeds perf metrics, never virtual time
	return time.Since(t0)
}
