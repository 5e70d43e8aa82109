package cc

import (
	"time"

	"lunasolar/internal/sim"
)

// Pacer enforces a rate-based controller's Rate() on a sender's transmit
// loop. The loop asks Ready before each transmission, Charges the bytes it
// sends, and Arms a resume callback when it has to stop early. Window-only
// controllers report Rate()==0 and the loop never consults the pacer, so
// embedding one is free for DCTCP/HPCC/Swift/static senders.
type Pacer struct {
	eng    *sim.Engine
	fire   func(any)
	arg    any
	nextAt sim.Time
	timer  sim.Timer
}

// Init binds the pacer to an engine and its resume callback. fire must be
// a package-level func (determinism: no per-call closures on the hot
// path); arg is handed back to it, typically the owning sender.
func (p *Pacer) Init(eng *sim.Engine, fire func(any), arg any) {
	p.eng, p.fire, p.arg = eng, fire, arg
}

// Ready reports whether a transmission may start at now.
//
//lint:hotpath
func (p *Pacer) Ready(now sim.Time) bool { return now >= p.nextAt }

// Charge accounts one transmission of n bytes at rate bytes/second,
// pushing the next-allowed time forward by its serialization delay.
//
//lint:hotpath
func (p *Pacer) Charge(now sim.Time, n int, rate float64) {
	start := p.nextAt
	if start < now {
		start = now
	}
	p.nextAt = start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
}

// Arm schedules the resume callback for the next-allowed time. A no-op
// while a resume is already pending.
func (p *Pacer) Arm(now sim.Time) {
	if p.timer.Active() {
		return
	}
	d := p.nextAt.Sub(now)
	if d < 0 {
		d = 0
	}
	p.timer = p.eng.ScheduleArg(d, p.fire, p.arg)
}
