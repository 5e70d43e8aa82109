package runtime

import (
	gort "runtime"
	"sync/atomic"
	"time"

	"lunasolar/internal/sim"
)

// Coupled advances several engines that share one model — partitions of a
// single fabric — in barrier-synchronized epochs, the conservative
// parallel-DES scheme: within one window no partition may run further than
// the minimum cross-partition propagation delay (the lookahead), so no
// event generated by a peer during the same window could possibly be due
// inside it. Between windows a single coordinator goroutine drains the
// partitions' mailboxes in deterministic (time, partition, seq) order and
// refreshes any published cross-partition state, so the execution is
// bit-identical for every worker count, including 1.
type Coupled struct {
	// Engines are the partition engines, in partition order.
	Engines []*sim.Engine

	// Lookahead is the epoch horizon: the minimum propagation delay over
	// all cut links. A message sent at virtual time s crosses a partition
	// boundary no earlier than s + Lookahead, so a window of that width
	// can never miss a peer's message. Must be positive when more than one
	// engine is coupled.
	Lookahead time.Duration

	// Workers bounds the goroutines driving windows. 0 uses GOMAXPROCS;
	// 1 runs every window serially on the calling goroutine (the
	// determinism baseline). Capped at len(Engines).
	Workers int

	// AtBarrier runs on the coordinator between windows (and once before
	// the first), while no engine is being driven: publish cross-partition
	// state snapshots and drain mailboxes here. May be nil.
	AtBarrier func()

	// openEnd is the end of the window a bounded drive stopped inside (open
	// is set until a later drive finishes it). Barriers therefore fall at
	// the same virtual times however the run is sliced.
	openEnd sim.Time
	open    bool
}

func (c *Coupled) workers() int {
	w := c.Workers
	if w <= 0 {
		w = gort.GOMAXPROCS(0)
	}
	if w > len(c.Engines) {
		w = len(c.Engines)
	}
	return w
}

// nextEvent returns the earliest pending event's time across all engines.
func (c *Coupled) nextEvent() (sim.Time, bool) {
	var best sim.Time
	ok := false
	for _, e := range c.Engines {
		if t, has := e.NextEventAt(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Run drives all partitions until every engine's queue and every mailbox
// drain (AtBarrier is responsible for turning mailbox entries into engine
// events, so an empty fleet-wide heap after a barrier means done).
func (c *Coupled) Run() { c.drive(false, 0) }

// RunUntil drives all partitions to virtual time t: every event with
// timestamp <= t fires, and every engine's clock ends exactly at t. A t
// inside a window leaves the window open, with no barrier at t; the next
// drive finishes it first, so any sequence of RunUntil calls ends exactly
// where one Run does.
func (c *Coupled) RunUntil(t sim.Time) { c.drive(true, t) }

func (c *Coupled) drive(bounded bool, limit sim.Time) {
	n := len(c.Engines)
	if n == 0 {
		return
	}
	if n > 1 && c.Lookahead <= 0 {
		panic("runtime: Coupled needs positive lookahead (is there a cut link with zero propagation delay?)")
	}
	var pool *windowPool
	if n > 1 && c.workers() > 1 {
		pool = newWindowPool(c.Engines, c.workers())
		defer pool.stop()
	}
	runTo := func(end sim.Time) {
		if pool != nil {
			pool.run(end)
			return
		}
		for _, e := range c.Engines {
			e.RunUntil(end)
		}
	}
	if c.open {
		if bounded && c.openEnd > limit {
			runTo(limit)
			return
		}
		runTo(c.openEnd)
		c.open = false
	}
	for {
		if c.AtBarrier != nil {
			c.AtBarrier()
		}
		next, ok := c.nextEvent()
		if !ok || (bounded && next > limit) {
			// Quiescent (or nothing left before the horizon): nothing can
			// generate new cross-partition traffic, so jumping every clock
			// straight to the limit is safe.
			if bounded {
				runTo(limit)
			}
			return
		}
		if n == 1 {
			// One partition has no cut links and needs no windows.
			if bounded {
				runTo(limit)
				return
			}
			c.Engines[0].Run()
			continue
		}
		// Idle-skip to the earliest pending event, then run one lookahead
		// window.
		end := next.Add(c.Lookahead)
		if bounded && end > limit {
			runTo(limit)
			c.openEnd, c.open = end, true
			return
		}
		runTo(end)
	}
}

// windowPool is a persistent worker pool for window execution: one
// goroutine per worker for the lifetime of a drive call, so each epoch
// costs two channel operations per worker instead of goroutine spawns.
// Engines are claimed from an atomic counter each epoch; the channel
// operations order each engine's window against the coordinator's barrier
// work, so engine ownership legally migrates between workers across
// epochs (the engines' own busy check enforces exclusivity within one).
type windowPool struct {
	engines []*sim.Engine
	next    atomic.Int64
	start   chan sim.Time
	done    chan any
	n       int
}

func newWindowPool(engines []*sim.Engine, workers int) *windowPool {
	p := &windowPool{
		engines: engines,
		start:   make(chan sim.Time),
		done:    make(chan any, workers),
		n:       workers,
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *windowPool) worker() {
	for end := range p.start {
		p.done <- p.windows(end)
	}
}

// windows claims engines until none remain, running each one's window;
// returns the recovered panic value, if any.
func (p *windowPool) windows(end sim.Time) (panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.engines) {
			return nil
		}
		p.engines[i].RunUntil(end)
	}
}

// run executes one epoch: every engine advances to end before run returns.
// A panic in any window is re-raised here after all workers report.
func (p *windowPool) run(end sim.Time) {
	p.next.Store(0)
	for i := 0; i < p.n; i++ {
		p.start <- end
	}
	var panicked any
	for i := 0; i < p.n; i++ {
		if r := <-p.done; r != nil && panicked == nil {
			panicked = r
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

func (p *windowPool) stop() { close(p.start) }

// ObserveCoupledRun measures one coupled run and folds it into p: run's
// wall time counts once (the partitions ran concurrently on one barrier
// schedule, unlike independent shards whose wall times sum), each
// partition counts as a shard for event totals, and the simulated span
// counts once — every partition advances the same virtual clock.
func (p *Perf) ObserveCoupledRun(engs []*sim.Engine, run func()) {
	t0 := wallNow()
	run()
	wall := wallSince(t0)
	if p == nil || len(engs) == 0 {
		return
	}
	p.mu.Lock()
	p.shards += len(engs)
	for _, eng := range engs {
		p.events += eng.Processed()
	}
	p.simd += engs[0].Now().Duration()
	p.wall += wall
	p.mu.Unlock()
}
