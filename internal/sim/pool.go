package sim

// Pool is the free list every pooled record in the tree sits on: a LIFO of
// *T owned, like the engine it is bound to, by one goroutine at a time. A
// plain slice (not sync.Pool) keeps reuse order deterministic for a fixed
// seed and shares nothing between engines, which is what lets shards run
// on separate goroutines with no coordination.
//
// The pool knows nothing about T. Get returns nil on a miss and the caller
// builds the record, doing there whatever is done once per record (owner
// pointer, bound reply function, timer init); the caller's put wipes what
// the record must not pin or carry over before handing it to Put.
//
// The zero Pool is ready to use and bound to no engine; NewPool's result is
// also counted by its engine's PoolOutstanding.
type Pool[T any] struct {
	free   []*T
	out    int
	misses uint64
}

// NewPool returns an empty pool bound to e.
func NewPool[T any](e *Engine) *Pool[T] {
	p := &Pool[T]{}
	e.pools = append(e.pools, &p.out)
	return p
}

// Get hands out the most recently Put record, or nil when none is free;
// either way the caller now holds one more record it owes a Put.
func (p *Pool[T]) Get() *T {
	p.out++
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	p.misses++
	return nil
}

// Put takes back a record the caller got, or built after a miss.
func (p *Pool[T]) Put(x *T) {
	p.out--
	p.free = append(p.free, x)
}

// Outstanding returns how many records are held by callers: Gets minus Puts.
func (p *Pool[T]) Outstanding() int { return p.out }

// Misses returns how many Gets found the list empty, each one a fresh
// allocation by the caller.
func (p *Pool[T]) Misses() uint64 { return p.misses }

// PoolOutstanding sums Outstanding over every pool bound to e. On a drained
// engine nothing is left to return a record, so anything but zero is a leak:
// a record that was got and never put.
func (e *Engine) PoolOutstanding() int {
	n := 0
	for _, out := range e.pools {
		n += *out
	}
	return n
}
