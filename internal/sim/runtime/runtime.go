// Package runtime executes multi-engine simulations in parallel. It is the
// multi-engine counterpart of the single-engine kernel in internal/sim:
// independent shards (Runner/Fleet/Run), one run-to-complete engine per
// core with no shared mutable state, mirroring the paper's Luna engine.
// Each shard builds its own sim.Engine and model inside the shard
// function; nothing crosses shard boundaries except the shard index and
// the values returned.
//
// The rules that make this safe and reproducible:
//
//   - Exactly one goroutine drives each engine (the engines enforce this
//     with an atomic check).
//   - Results are always delivered in shard order, never completion
//     order, so aggregates are bit-identical whether the fleet ran on 1
//     worker or on GOMAXPROCS workers.
//   - Seeds derive from the shard index, not from any shared random
//     stream consumed at run time.
package runtime

import (
	"cmp"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"lunasolar/internal/sim"
)

// Runner fans independent shard functions out over a fixed-size worker
// pool. The zero value uses GOMAXPROCS workers; Workers == 1 runs shards
// serially on the calling goroutine, which is useful for determinism
// regression tests and debugging.
type Runner struct {
	Workers int
}

// workers resolves the effective pool size.
func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return gort.GOMAXPROCS(0)
}

// Each runs job(shard) for every shard in [0, n) and blocks until all
// complete. Shards are claimed from a shared counter, so long shards do not
// serialize behind short ones. A panic in any shard is re-raised on the
// calling goroutine after the remaining shards finish.
func (r Runner) Each(n int, job func(shard int)) {
	if n <= 0 {
		return
	}
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var panicked any
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { panicked = p })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs job for every shard and returns the results in shard order.
func Map[T any](r Runner, n int, job func(shard int) T) []T {
	out := make([]T, n)
	r.Each(n, func(i int) { out[i] = job(i) })
	return out
}

// Perf accumulates simulator-throughput counters across shards: how many
// events the engines executed, how much virtual time they simulated, and
// how much wall time the shards consumed (summed across workers, so it
// reads like CPU time). It is safe for concurrent Observe calls.
type Perf struct {
	mu      sync.Mutex
	shards  int
	events  uint64
	simd    time.Duration
	wall    time.Duration
	leaked  int
	failed  int
	failErr error // the first failed check's
}

// Observe folds one finished shard's engine counters and wall time in.
func (p *Perf) Observe(eng *sim.Engine, wall time.Duration) {
	if p == nil || eng == nil {
		return
	}
	p.mu.Lock()
	n, err := eng.Failed()
	p.failed, p.failErr = p.failed+n, cmp.Or(p.failErr, err)
	p.shards++
	p.events += eng.Processed()
	p.simd += eng.Now().Duration()
	p.wall += wall
	p.mu.Unlock()
}

// ObserveLeaked folds one shard's leaked-packet count in (see
// ebs.Cluster.Leaked); cmd/ebsbench asserts the total is zero after every
// experiment.
func (p *Perf) ObserveLeaked(n int) {
	if p == nil || n == 0 {
		return
	}
	p.mu.Lock()
	p.leaked += n
	p.mu.Unlock()
}

// Leaked returns the total leaked-packet count across observed shards.
func (p *Perf) Leaked() int { p.mu.Lock(); defer p.mu.Unlock(); return p.leaked }

// Failed returns the failed checks (sim.Engine.Failed) across observed
// shards and the first one's error; cmd/ebsbench asserts it is zero.
func (p *Perf) Failed() (int, error) { p.mu.Lock(); defer p.mu.Unlock(); return p.failed, p.failErr }

// Shards returns how many shards have been observed.
func (p *Perf) Shards() int { p.mu.Lock(); defer p.mu.Unlock(); return p.shards }

// Events returns the total engine events executed.
func (p *Perf) Events() uint64 { p.mu.Lock(); defer p.mu.Unlock(); return p.events }

// SimTime returns the total virtual time simulated across shards.
func (p *Perf) SimTime() time.Duration { p.mu.Lock(); defer p.mu.Unlock(); return p.simd }

// WallTime returns the total wall time consumed across shards (summed over
// workers; with W busy workers this advances ~W× faster than the clock).
func (p *Perf) WallTime() time.Duration { p.mu.Lock(); defer p.mu.Unlock(); return p.wall }

// EventsPerSec returns engine events executed per second of shard wall
// time — the simulator's core throughput metric.
func (p *Perf) EventsPerSec() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wall <= 0 {
		return 0
	}
	return float64(p.events) / p.wall.Seconds()
}

// SimMicrosPerWallMs returns how many microseconds of virtual time the
// simulator advances per millisecond of wall time.
func (p *Perf) SimMicrosPerWallMs() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wall <= 0 {
		return 0
	}
	return float64(p.simd.Microseconds()) / (float64(p.wall.Nanoseconds()) / 1e6)
}

// Fleet couples a Runner with Perf accounting: it executes N independent
// (Engine, model, seed) shards and reports the fleet's simulator
// throughput. Experiments share one Fleet per table so the CLI can print
// events/sec alongside the simulated results.
type Fleet struct {
	Runner Runner
	Perf   Perf
}

// Run executes n shards on the fleet. Each shard function builds its own
// engine and model (seeded from the shard index), drives the simulation to
// completion, and returns (result, engine). Results come back in shard
// order; engine counters are folded into the fleet's Perf.
func Run[T any](f *Fleet, n int, job func(shard int) (T, *sim.Engine)) []T {
	out := make([]T, n)
	f.Runner.Each(n, func(i int) {
		t0 := wallNow()
		v, eng := job(i)
		f.Perf.Observe(eng, wallSince(t0))
		out[i] = v
	})
	return out
}
