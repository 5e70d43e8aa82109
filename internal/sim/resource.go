package sim

import (
	"math"
	"time"
)

// Server models a pool of identical FIFO servers — CPU cores, DMA engines,
// accelerator lanes. Jobs submitted to a Server queue until a unit is free,
// occupy it for their service time, then complete. Queueing delay therefore
// emerges from contention, which is how "consumed cores" and saturation
// behaviour arise in the stack models rather than being hard-coded.
type Server struct {
	eng   *Engine
	name  string
	units int

	busy     int
	queue    []serverJob
	busyNS   int64 // integral of busy units over time, for utilization
	lastUpd  Time
	resetAt  Time
	served   uint64
	freeDone *Pool[svcDone]
}

type serverJob struct {
	service time.Duration
	fn      func(any)
	arg     any
}

// svcDone carries one in-service job's completion callback through the
// engine's arg-based event path; nodes are pooled on the Server so
// steady-state Submit/complete cycles do not allocate.
type svcDone struct {
	s   *Server
	fn  func(any)
	arg any
}

// NewServer creates a pool with the given number of service units.
func NewServer(eng *Engine, name string, units int) *Server {
	if units <= 0 {
		panic("sim: server needs at least one unit")
	}
	return &Server{eng: eng, name: name, units: units, lastUpd: eng.Now(), freeDone: NewPool[svcDone](eng)}
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Units returns the pool size.
func (s *Server) Units() int { return s.units }

// Served returns the number of completed jobs.
func (s *Server) Served() uint64 { return s.served }

func (s *Server) account() {
	now := s.eng.Now()
	s.busyNS += int64(s.busy) * int64(now-s.lastUpd)
	s.lastUpd = now
}

// Utilization returns average busy units since the last Reset (or creation):
// e.g. 2.7 means 2.7 cores were busy on average. This is the "consumed
// cores" metric of Table 1.
func (s *Server) Utilization() float64 {
	s.account()
	elapsed := int64(s.eng.Now() - s.resetAt)
	if elapsed <= 0 {
		return 0
	}
	return float64(s.busyNS) / float64(elapsed)
}

// Submit enqueues a job with the given service time; done (may be nil) runs
// at completion.
func (s *Server) Submit(service time.Duration, done func()) {
	s.SubmitArg(service, callFunc, done)
}

// SubmitArg enqueues a job whose completion calls fn(arg). Like
// Engine.ScheduleArg, this lets hot paths pass a package-level function and
// a pooled state value instead of allocating a closure per job.
func (s *Server) SubmitArg(service time.Duration, fn func(any), arg any) {
	if service < 0 {
		service = 0
	}
	j := serverJob{service: service, fn: fn, arg: arg}
	if s.busy < s.units {
		s.start(j)
		return
	}
	s.queue = append(s.queue, j)
}

func (s *Server) start(j serverJob) {
	s.account()
	s.busy++
	d := s.freeDone.Get()
	if d == nil {
		d = &svcDone{s: s}
	}
	d.fn, d.arg = j.fn, j.arg
	s.eng.ScheduleArg(j.service, serverFinish, d)
}

// serverFinish completes one in-service job: it frees the unit, starts the
// next queued job, returns the completion node to the pool, and only then
// invokes the callback (which may submit again and reuse the node).
func serverFinish(x any) {
	d := x.(*svcDone)
	s := d.s
	s.account()
	s.busy--
	s.served++
	if len(s.queue) > 0 {
		next := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.start(next)
	}
	fn, arg := d.fn, d.arg
	d.fn, d.arg = nil, nil
	s.freeDone.Put(d)
	fn(arg)
}

// ResetStats restarts utilization and counter accounting from the current
// virtual time.
func (s *Server) ResetStats() {
	s.account()
	s.busyNS = 0
	s.served = 0
	s.resetAt = s.eng.Now()
	s.lastUpd = s.eng.Now()
}

// Channel models a bandwidth-limited serial pipe: an Ethernet link NIC-side
// serializer, or the ALI-DPU's internal PCIe channel. Transfers serialize
// one after another at the configured rate; the completion callback fires
// when the last byte has passed.
type Channel struct {
	eng      *Engine
	name     string
	bitsPerS float64

	free     Time // when the pipe next becomes idle
	xferred  uint64
	busyNS   int64
	resetAt2 Time
}

// NewChannel creates a pipe with the given rate in bits per second.
func NewChannel(eng *Engine, name string, bitsPerSecond float64) *Channel {
	if bitsPerSecond <= 0 {
		panic("sim: channel needs positive rate")
	}
	return &Channel{eng: eng, name: name, bitsPerS: bitsPerSecond}
}

// Name returns the channel's diagnostic name.
func (c *Channel) Name() string { return c.name }

// SerializationDelay returns how long n bytes occupy the pipe.
func (c *Channel) SerializationDelay(n int) time.Duration {
	return time.Duration(float64(n*8) / c.bitsPerS * float64(time.Second))
}

// Transfer schedules n bytes through the pipe; done fires when the transfer
// completes (after any queueing behind earlier transfers).
func (c *Channel) Transfer(n int, done func()) {
	c.TransferArg(n, callFunc, done)
}

// TransferArg schedules n bytes through the pipe with an arg-based
// completion; see Engine.ScheduleArg for the allocation rationale.
func (c *Channel) TransferArg(n int, fn func(any), arg any) {
	now := c.eng.Now()
	start := c.free
	if start < now {
		start = now
	}
	ser := c.SerializationDelay(n)
	end := start.Add(ser)
	c.busyNS += int64(ser)
	c.free = end
	c.xferred += uint64(n)
	c.eng.AtArg(end, fn, arg)
}

// Backlog returns how far in the future the pipe is already committed.
func (c *Channel) Backlog() time.Duration {
	now := c.eng.Now()
	if c.free <= now {
		return 0
	}
	return c.free.Sub(now)
}

// Transferred returns total bytes moved since the last ResetStats.
func (c *Channel) Transferred() uint64 { return c.xferred }

// Utilization returns the fraction of time the pipe was busy since the last
// ResetStats.
func (c *Channel) Utilization() float64 {
	elapsed := int64(c.eng.Now() - c.resetAt2)
	if elapsed <= 0 {
		return 0
	}
	u := float64(c.busyNS) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// ResetStats restarts throughput accounting.
func (c *Channel) ResetStats() {
	c.xferred = 0
	c.busyNS = 0
	c.resetAt2 = c.eng.Now()
}

// Forever is the Delay sentinel for "never at the current rate": a paused
// (rate <= 0) bucket, or a refill so slow the wait would overflow a
// Duration. Waiters facing it park without a timer and are re-armed by
// SetRate.
const Forever = time.Duration(math.MaxInt64)

// TokenBucket is a virtual-time token bucket used by the QoS table to
// enforce per-virtual-disk IOPS and bandwidth service levels.
type TokenBucket struct {
	eng     *Engine
	rate    float64 // tokens per second; <= 0 means paused (no refill)
	burst   float64
	tokens  float64
	lastFil Time
	waiters []*tokenWaiter // parked Waits, in arrival order
}

// NewTokenBucket creates a bucket that refills at rate tokens/second up to
// burst, starting full. rate <= 0 creates a paused bucket (no refill until
// SetRate raises it); burst <= 0 defaults to rate, clamped at zero — a
// paused bucket with no explicit burst holds no tokens and admits nothing.
func NewTokenBucket(eng *Engine, rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = rate
	}
	if burst < 0 {
		burst = 0
	}
	return &TokenBucket{eng: eng, rate: rate, burst: burst, tokens: burst, lastFil: eng.Now()}
}

func (b *TokenBucket) refill() {
	now := b.eng.Now()
	dt := now.Sub(b.lastFil).Seconds()
	if dt > 0 {
		if b.rate > 0 {
			b.tokens += dt * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
		b.lastFil = now
	}
}

// TryTake consumes n tokens if available, reporting success.
func (b *TokenBucket) TryTake(n float64) bool {
	b.refill()
	if b.tokens >= n {
		b.tokens -= n
		return true
	}
	return false
}

// Available returns the current token count.
func (b *TokenBucket) Available() float64 {
	b.refill()
	return b.tokens
}

// Delay returns how long until n tokens will be available (zero if they
// already are). It does not consume. A paused bucket (rate <= 0), or one
// whose refill is so slow the wait would overflow a time.Duration, returns
// Forever.
func (b *TokenBucket) Delay(n float64) time.Duration {
	b.refill()
	if b.tokens >= n {
		return 0
	}
	if b.rate <= 0 {
		return Forever
	}
	need := n - b.tokens
	sec := need / b.rate
	// Clamp before the float→Duration conversion: for tiny rates sec*1e9
	// exceeds MaxInt64 and the conversion is undefined (wraps negative on
	// most targets, which would schedule the waiter in the past).
	if sec >= float64(math.MaxInt64)/float64(time.Second) {
		return Forever
	}
	// Round up: a positive need must never truncate to a zero delay, or a
	// waiter would re-arm at the same virtual instant forever (refill sees
	// dt == 0 and adds nothing — a virtual-time livelock).
	return time.Duration(math.Ceil(sec * float64(time.Second)))
}

// tokenWaiter carries one parked Wait through the engine's arg-based event
// path so re-arms do not allocate a fresh closure.
type tokenWaiter struct {
	b     *TokenBucket
	n     float64
	fn    func()
	timer Timer // pending wake, if any; zero (inactive) while parked Forever
}

// Wait runs fn as soon as n tokens can be consumed, taking them. If the
// bucket already holds them, fn runs synchronously; otherwise the wait is
// parked until the computed refill instant. Competing waiters re-check on
// wake and re-arm, so a token claimed by another consumer never admits two
// I/Os. A paused (rate <= 0) bucket parks the wait with no timer at all;
// SetRate re-arms it.
func (b *TokenBucket) Wait(n float64, fn func()) {
	if n > b.burst {
		panic("sim: token bucket wait exceeds burst capacity")
	}
	if b.TryTake(n) {
		fn()
		return
	}
	w := &tokenWaiter{b: b, n: n, fn: fn}
	b.waiters = append(b.waiters, w)
	b.arm(w)
}

// arm schedules w's wake at the current refill estimate; a Forever delay
// leaves it parked without a timer (SetRate is the only way forward).
func (b *TokenBucket) arm(w *tokenWaiter) {
	if d := b.Delay(w.n); d < Forever {
		w.timer = b.eng.ScheduleArg(d, tokenBucketWake, w)
	} else {
		w.timer = Timer{}
	}
}

func tokenBucketWake(x any) {
	w := x.(*tokenWaiter)
	if w.b.TryTake(w.n) {
		w.b.unpark(w)
		w.fn()
		return
	}
	w.b.arm(w)
}

// unpark removes w from the parked-waiter list, preserving arrival order.
func (b *TokenBucket) unpark(w *tokenWaiter) {
	for i, cand := range b.waiters {
		if cand == w {
			copy(b.waiters[i:], b.waiters[i+1:])
			b.waiters[len(b.waiters)-1] = nil
			b.waiters = b.waiters[:len(b.waiters)-1]
			return
		}
	}
}

// Waiting returns the number of parked Wait calls (diagnostics).
func (b *TokenBucket) Waiting() int { return len(b.waiters) }

// SetRate changes the refill rate (management-plane updates to the QoS
// table) and re-arms every parked waiter at the instant the new rate
// implies: a waiter scheduled under the old rate would otherwise wake at a
// stale time — late after a raise, or in a busy re-check loop after a cut.
// Waiters are re-armed in arrival order, so admission order is preserved.
func (b *TokenBucket) SetRate(rate float64) {
	b.refill() // credit accrued tokens at the old rate first
	b.rate = rate
	for _, w := range b.waiters {
		w.timer.Cancel()
		b.arm(w)
	}
}
