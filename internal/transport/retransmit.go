package transport

import (
	"lunasolar/internal/sim"
)

// Retransmitter is the one retransmission-timer implementation shared by
// every stack: kernel TCP and Luna (per-connection RTO), RDMA (per-QP RTO)
// and Solar (per-packet selective retransmission). It owns the pieces those
// stacks used to duplicate — the cancellable timer, the consecutive-timeout
// counter driving exponential backoff, and the hook into the Jacobson RTT
// estimator — while the policy that runs on expiry (rewind, go-back-N,
// path failover) stays in the stack's callback.
//
// A Retransmitter is embedded by value in pooled per-connection/per-packet
// records; Init rebinds it after a record is recycled. The zero value is
// inactive.
type Retransmitter struct {
	eng  *sim.Engine
	rtt  *RTT // default estimator; ArmOn overrides per arm (multipath)
	fire func(any)
	arg  any

	timer  sim.Timer
	consec int
	maxExp int
}

// Init binds the retransmitter to its engine, default RTT estimator and
// expiry callback. maxExp clamps the backoff exponent (negative leaves it
// unclamped; RTT.Backoff clamps the resulting duration to maxRTO either
// way). fire(arg) runs on expiry with the timer already cleared, so the
// callback may re-Arm.
func (r *Retransmitter) Init(eng *sim.Engine, rtt *RTT, maxExp int, fire func(any), arg any) {
	r.eng = eng
	r.rtt = rtt
	r.maxExp = maxExp
	r.fire = fire
	r.arg = arg
}

// Arm (re)schedules expiry after the default estimator's RTO, backed off
// exponentially by the consecutive-timeout count. Any pending expiry is
// cancelled first.
func (r *Retransmitter) Arm() { r.ArmOn(r.rtt) }

// ArmOn is Arm with an explicit estimator, for stacks that keep one
// estimator per path rather than per endpoint (Solar's multipath).
func (r *Retransmitter) ArmOn(rtt *RTT) {
	r.Disarm()
	exp := r.consec
	if r.maxExp >= 0 && exp > r.maxExp {
		exp = r.maxExp
	}
	r.timer = r.eng.ScheduleArg(rtt.Backoff(exp), retxExpired, r)
}

// retxExpired is the pooled-event trampoline: clear the handle, then hand
// control to the stack's policy callback. Accounting is left to the
// callback — stacks differ on whether a timeout with nothing in flight
// counts against backoff.
func retxExpired(a any) {
	r := a.(*Retransmitter)
	r.timer = sim.Timer{}
	r.fire(r.arg)
}

// Disarm cancels any pending expiry.
func (r *Retransmitter) Disarm() {
	r.timer.Cancel()
	r.timer = sim.Timer{}
}

// Active reports whether an expiry is pending.
func (r *Retransmitter) Active() bool { return r.timer.Active() }

// RecordTimeout counts one retransmission-triggering event, raising the
// backoff exponent for subsequent arms, and returns the new count.
func (r *Retransmitter) RecordTimeout() int {
	r.consec++
	return r.consec
}

// RecordAck resets the backoff exponent after forward progress.
func (r *Retransmitter) RecordAck() { r.consec = 0 }

// Consecutive returns the count of timeouts since the last RecordAck; zero
// means the next arm uses the plain RTO (and, per Karn's rule, that the
// current transmission is unambiguous and may be RTT-sampled).
func (r *Retransmitter) Consecutive() int { return r.consec }
