package sim

// Backlog is a FIFO of departures: amounts (bytes, for a port's output
// queue) that leave at reserved places in the engine's firing order
// without being events. Nothing fires when an entry leaves; Queued and
// Gone settle the FIFO lazily whenever the model reads it.
//
// Add reserves a departure's place exactly as scheduling an event would:
// it takes the engine's next sequence number. To code running in the
// event at (now, seq), an entry at (t, s) has left iff (t, s) sorts
// before (now, seq) — precisely the state it would see had the departure
// been an event. Between runs (before the first, and after Run or RunUntil
// returns) the cursor is (now, ∞): everything due by now has left, so an
// entry added there must lie after now.
//
// Departure times must not decrease (a serializer finishes frames in the
// order it started them), which is what makes the FIFO a ring.
type Backlog struct {
	eng    *Engine
	ring   []departure // length is zero or a power of two
	head   int
	n      int
	queued int
	gone   uint64
}

type departure struct {
	at   Time
	seq  uint64
	size int
}

// NewBacklog returns an empty backlog whose departures ride e's firing order.
func NewBacklog(e *Engine) *Backlog {
	b := &Backlog{eng: e}
	e.backlogs = append(e.backlogs, b)
	return b
}

// Add queues size units that leave at t.
//
//lint:hotpath
func (b *Backlog) Add(t Time, size int) {
	e := b.eng
	if t < e.now || b.n > 0 && t < b.ring[(b.head+b.n-1)&(len(b.ring)-1)].at {
		panic("sim: backlog departure before now or before the previous departure")
	}
	if b.n == len(b.ring) {
		b.grow()
	}
	e.seq++
	b.ring[(b.head+b.n)&(len(b.ring)-1)] = departure{at: t, seq: e.seq, size: size}
	b.n++
	b.queued += size
}

// Queued returns the units added that have not left yet.
func (b *Backlog) Queued() int {
	b.settle()
	return b.queued
}

// Gone returns the units that have left, over the backlog's lifetime.
func (b *Backlog) Gone() uint64 {
	b.settle()
	return b.gone
}

// settle retires every entry that sorts before the engine's cursor.
func (b *Backlog) settle() {
	e := b.eng
	for b.n > 0 {
		d := &b.ring[b.head]
		if !(d.at < e.now || d.at == e.now && d.seq < e.cur) {
			return
		}
		b.queued -= d.size
		b.gone += uint64(d.size)
		b.head = (b.head + 1) & (len(b.ring) - 1)
		b.n--
	}
}

// last returns the latest departure queued (settled or not).
func (b *Backlog) last() (Time, bool) {
	if b.n == 0 {
		return 0, false
	}
	return b.ring[(b.head+b.n-1)&(len(b.ring)-1)].at, true
}

func (b *Backlog) grow() {
	ring := make([]departure, max(8, 2*len(b.ring)))
	for i := 0; i < b.n; i++ {
		ring[i] = b.ring[(b.head+i)&(len(b.ring)-1)]
	}
	b.ring, b.head = ring, 0
}
