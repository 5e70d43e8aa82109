// Package sim is a fixture stand-in for the real event engine: the
// maporder analyzer keys sinks on (package name, method name), and the
// partown analyzer keys ownership on package-qualified type names, so
// these shapes drive both exactly like the real package. The methods that
// enqueue events carry the real package's names.
package sim

// Engine is one partition's event loop and clock.
//
//lint:partowned
type Engine struct{ seq uint64 }

func (e *Engine) Schedule(after int64, fn func()) { e.seq++ }

func (e *Engine) ScheduleArg(after int64, fn func(any), arg any) { e.seq++ }

func (e *Engine) At(at int64, fn func()) { e.seq++ }

func (e *Engine) AtArg(at int64, fn func(any), arg any) { e.seq++ }

func (e *Engine) Now() int64 { return int64(e.seq) }

// Server is a FIFO service resource; a submitted job completes as an event.
type Server struct{ eng *Engine }

func (s *Server) Submit(service int64, done func()) { s.eng.seq++ }

func (s *Server) SubmitArg(service int64, fn func(any), arg any) { s.eng.seq++ }

// Channel is a serial pipe; a transfer completes as an event.
type Channel struct{ eng *Engine }

func (c *Channel) Transfer(n int, done func()) { c.eng.seq++ }

func (c *Channel) TransferArg(n int, fn func(any), arg any) { c.eng.seq++ }

// Rand is one partition's deterministic random stream.
//
//lint:partowned
type Rand struct{ state uint64 }

func (r *Rand) Uint32() uint32 { r.state++; return uint32(r.state) }

// Mailbox is the sanctioned cross-partition crossing: Post is safe from
// any partition's window.
//
//lint:crossing
type Mailbox struct{ pending int }

func (m *Mailbox) Post(v any) { m.pending++ }
