// Package bench sits outside the virtual-time scope: identical wall-clock
// and global-rand calls, and float equality outside the fluid packages,
// must produce no determinism diagnostics here.
package bench

import (
	"math/rand"
	"time"
)

func Measure(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	time.Sleep(time.Millisecond)
	return time.Since(t0)
}

func Jitter() int {
	return rand.Intn(100)
}

func Either(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func SameRate(a, b float64) bool {
	return a == b
}
