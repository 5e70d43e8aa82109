package simnet

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
)

// runBulkOnce drives one 512 KiB transfer over an idle cross-pod path,
// optionally in hybrid fidelity and with a disturbance scheduled mid-run.
func runBulkOnce(t *testing.T, hybrid bool, disturb func(eng *sim.Engine, fab *Fabric)) ([]BulkCompletion, uint64, *Fabric) {
	t.Helper()
	eng, fab := smallFabric(t)
	bulk := NewBulkService(fab)
	if hybrid {
		fab.EnableFluid(DefaultFluidConfig())
	}
	src := fab.Host(0, 0, 0, 0)
	dst := fab.Host(0, 1, 0, 0)
	bulk.Transfer(src, dst, 512<<10, 4096, 5e9, sim.Time(time.Millisecond))
	if disturb != nil {
		disturb(eng, fab)
	}
	eng.Run()
	return bulk.Completions(), eng.Processed(), fab
}

// TestFluidMatchesPacketExactly: on an uncongested path the fluid model
// uses the same pacing grid and the same resolved path as packet mode, so
// the completion must agree to the nanosecond while materializing no
// packets.
func TestFluidMatchesPacketExactly(t *testing.T) {
	pc, pEvents, pFab := runBulkOnce(t, false, nil)
	hc, hEvents, hFab := runBulkOnce(t, true, nil)
	if len(pc) != 1 || len(hc) != 1 {
		t.Fatalf("completions: packet %d, hybrid %d, want 1 each", len(pc), len(hc))
	}
	if pc[0].Fluid {
		t.Fatal("packet-mode completion marked fluid")
	}
	if !hc[0].Fluid {
		t.Fatal("hybrid completion not fluid: the idle-path transfer was not admitted")
	}
	if hc[0].ID != pc[0].ID || hc[0].Bytes != pc[0].Bytes || hc[0].Lat != pc[0].Lat {
		t.Fatalf("completion differs: hybrid %+v, packet %+v", hc[0], pc[0])
	}
	if hEvents >= pEvents {
		t.Fatalf("hybrid processed %d events, packet %d; fast-forward saved nothing", hEvents, pEvents)
	}
	if n := pFab.Pool().Outstanding(); n != 0 {
		t.Fatalf("packet run leaked %d pooled packets", n)
	}
	if n := hFab.Pool().Outstanding(); n != 0 {
		t.Fatalf("hybrid run leaked %d pooled packets", n)
	}
	if s := hFab.Fluid().Stats(); s.Admitted != 1 || s.Demotions != 0 {
		t.Fatalf("hybrid stats = %+v, want 1 admitted, 0 demotions", s)
	}
}

// flapOffPath schedules a link flap at 1.3 ms — mid-flight for the
// runBulkOnce transfer — on a host port off that transfer's path: two
// TriggerFailover, the first of which demotes the fluid flow.
func flapOffPath(eng *sim.Engine, fab *Fabric) {
	p := fab.Host(0, 0, 1, 1).ports[0]
	eng.At(sim.Time(1300*time.Microsecond), func() {
		p.SetUp(false)
		p.SetUp(true)
	})
}

// TestFluidDemotionConservesBytes: a mid-flight disturbance (a link flap
// off the path) must flush the fluid flow back to packets with the sent
// prefix conserved — the transfer still completes with the same bytes and
// the same latency as packet mode (the path is idle; the resumed sender
// continues on the original grid), and the completion is no longer
// analytic.
func TestFluidDemotionConservesBytes(t *testing.T) {
	pc, _, _ := runBulkOnce(t, false, nil)
	hc, _, hFab := runBulkOnce(t, true, flapOffPath)
	if len(hc) != 1 {
		t.Fatalf("hybrid completions = %d, want 1", len(hc))
	}
	if hc[0].Fluid {
		t.Fatal("completion still marked fluid after mid-flight demotion")
	}
	if hc[0].Bytes != pc[0].Bytes {
		t.Fatalf("bytes not conserved across demotion: %d, want %d", hc[0].Bytes, pc[0].Bytes)
	}
	if hc[0].Lat != pc[0].Lat {
		t.Fatalf("latency across demotion = %v, want packet-mode %v", hc[0].Lat, pc[0].Lat)
	}
	s := hFab.Fluid().Stats()
	if s.Admitted != 1 || s.Demotions != 1 {
		t.Fatalf("stats = %+v, want 1 admitted, 1 demotion", s)
	}
	if s.Triggers[TriggerFailover] != 2 {
		t.Fatalf("failover triggers = %d, want 2 (link down, link up): %+v", s.Triggers[TriggerFailover], s.Triggers)
	}
	if n := hFab.Pool().Outstanding(); n != 0 {
		t.Fatalf("hybrid run leaked %d pooled packets", n)
	}
}

// TestFluidEligibleLowWaterBoundary pins the quiescence predicate's edge
// cases: a queue at exactly LowWaterBytes is eligible, one byte over is
// not; a down port, a hung switch, and a queue high-water growth each make
// the fabric ineligible (growth also re-arms the hold-off).
func TestFluidEligibleLowWaterBoundary(t *testing.T) {
	eng, fab := smallFabric(t)
	ft := fab.EnableFluid(DefaultFluidConfig())
	now := sim.Time(time.Millisecond)
	if !ft.eligible(now) {
		t.Fatal("fresh idle fabric not eligible")
	}
	p := fab.Switches()[0].ports[0]

	// Bytes departing at now are queued before it; once the engine has
	// run to now they are gone.
	p.q.Add(now, ft.cfg.LowWaterBytes)
	if !ft.eligible(now) {
		t.Fatalf("queue at exactly LowWaterBytes (%d) must stay eligible", ft.cfg.LowWaterBytes)
	}
	p.q.Add(now, 1)
	if ft.eligible(now) {
		t.Fatal("queue one byte over LowWaterBytes still eligible")
	}
	eng.RunUntil(now)
	if q := p.q.Queued(); q != 0 {
		t.Fatalf("%d bytes still queued past their departure", q)
	}

	p.up = false
	if ft.eligible(now) {
		t.Fatal("down port still eligible")
	}
	p.up = true

	sw := fab.Switches()[0]
	sw.alive = false
	if ft.eligible(now) {
		t.Fatal("hung switch still eligible")
	}
	sw.alive = true
	if !ft.eligible(now) {
		t.Fatal("fabric not eligible again after impairments cleared")
	}

	// Queue high-water growth is the incast-onset signal: ineligible now,
	// and the hold-off re-arms so the next check inside the window fails
	// too; at now+HoldOff the fabric is eligible again.
	p.maxQueued = 100
	if ft.eligible(now) {
		t.Fatal("queue high-water growth did not suspend eligibility")
	}
	if ft.eligible(now.Add(ft.cfg.HoldOff - 1)) {
		t.Fatal("eligible inside the hold-off window after high-water growth")
	}
	if !ft.eligible(now.Add(ft.cfg.HoldOff)) {
		t.Fatal("not eligible after the hold-off expired with a stable high-water mark")
	}
}

// TestMaxQueuedBytesMonotoneAndResets is the high-water property test: the
// fabric-wide mark never decreases within a run, and a fresh fabric (a new
// run) starts back at zero.
func TestMaxQueuedBytesMonotoneAndResets(t *testing.T) {
	eng, fab := smallFabric(t)
	r := sim.NewRand(11)
	hosts := fab.Hosts()
	last := fab.MaxQueuedBytes()
	if last != 0 {
		t.Fatalf("fresh fabric MaxQueuedBytes = %d, want 0", last)
	}
	for round := 0; round < 8; round++ {
		dst := hosts[r.Intn(len(hosts))]
		burst := 1 + r.Intn(12)
		for i := 0; i < burst; i++ {
			src := hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			pkt := mkPkt(src, dst, uint16(1000+r.Intn(500)), 4096)
			if !src.Send(pkt) {
				t.Fatal("send failed")
			}
		}
		eng.Run()
		q := fab.MaxQueuedBytes()
		if q < last {
			t.Fatalf("round %d: MaxQueuedBytes fell %d -> %d; high-water mark must be monotone", round, last, q)
		}
		last = q
	}
	if last == 0 {
		t.Fatal("bursty traffic never queued a byte; the property test exercised nothing")
	}
	_, fresh := smallFabric(t)
	if q := fresh.MaxQueuedBytes(); q != 0 {
		t.Fatalf("new fabric MaxQueuedBytes = %d, want 0 (mark must reset across runs)", q)
	}
}

// TestFluidIncastDemotion: three 13 Gbit/s flows converge on one
// dual-homed (2×25G) host, so by pigeonhole some host link is offered
// 26G — max-min infeasible. Admission must refuse the flow that breaks the
// allocation, flush the rest (TriggerIncast), and run the contention at
// packet fidelity; every transfer still completes with conserved bytes and
// no drops.
func TestFluidIncastDemotion(t *testing.T) {
	eng, fab := smallFabric(t)
	bulk := NewBulkService(fab)
	fab.EnableFluid(DefaultFluidConfig())
	dst := fab.Host(0, 1, 0, 0)
	for i := 0; i < 3; i++ {
		src := fab.Host(0, 0, i/2, i%2)
		at := sim.Time(time.Millisecond).Add(time.Duration(i) * 10 * time.Microsecond)
		bulk.Transfer(src, dst, 256<<10, 4096, 13e9, at)
	}
	eng.Run()

	s := fab.Fluid().Stats()
	if s.Triggers[TriggerIncast] == 0 {
		t.Fatalf("incast trigger never fired: %+v", s)
	}
	if s.Demotions == 0 {
		t.Fatalf("no demotion despite an infeasible max-min allocation: %+v", s)
	}
	compl := bulk.Completions()
	if len(compl) != 3 {
		t.Fatalf("completions = %d, want 3", len(compl))
	}
	for _, c := range compl {
		if c.Bytes != 256<<10 {
			t.Fatalf("transfer %d delivered %d bytes, want %d", c.ID, c.Bytes, 256<<10)
		}
	}
	if d := fab.TotalDrops(); d != 0 {
		t.Fatalf("incast wave dropped %d packets; it is sized to queue, not drop", d)
	}
	if n := fab.Pool().Outstanding(); n != 0 {
		t.Fatalf("leaked %d pooled packets", n)
	}
}

// TestFluidRunUntilMatchesRun: a trigger demotes fluid flows where it
// fires, so driving the engine in bounded steps (RunFor) must end exactly
// like one Run, whatever the step — also when a step ends right after the
// trigger and the next event is the fluid completion far beyond it.
func TestFluidRunUntilMatchesRun(t *testing.T) {
	run := func(step time.Duration) ([]BulkCompletion, FluidStats, uint64) {
		eng, fab := smallFabric(t)
		bulk := NewBulkService(fab)
		ft := fab.EnableFluid(DefaultFluidConfig())
		bulk.Transfer(fab.Host(0, 0, 0, 0), fab.Host(0, 1, 0, 0), 512<<10, 4096, 5e9, sim.Time(time.Millisecond))
		flapOffPath(eng, fab)
		if step == 0 {
			eng.Run()
		} else {
			for eng.Pending() > 0 {
				eng.RunFor(step)
			}
		}
		if n := fab.Pool().Outstanding(); n != 0 {
			t.Fatalf("step %v: leaked %d pooled packets", step, n)
		}
		return bulk.Completions(), ft.Stats(), eng.Processed()
	}
	wantC, wantS, wantN := run(0)
	if len(wantC) != 1 || wantC[0].Fluid || wantS.Demotions != 1 {
		t.Fatalf("Run: completions %+v, stats %+v; want one demoted transfer", wantC, wantS)
	}
	for _, step := range []time.Duration{time.Microsecond, 37 * time.Microsecond, time.Millisecond} {
		c, s, n := run(step)
		if len(c) != len(wantC) || c[0] != wantC[0] {
			t.Fatalf("step %v: completions %+v, Run %+v", step, c, wantC)
		}
		if s != wantS {
			t.Fatalf("step %v: stats %+v, Run %+v", step, s, wantS)
		}
		if n != wantN {
			t.Fatalf("step %v: %d events processed, Run %d", step, n, wantN)
		}
	}
}

// TestEnableFluidRejectsPartitionedFabric: hybrid fidelity is serial only,
// so arming it on a partitioned fabric panics up front.
func TestEnableFluidRejectsPartitionedFabric(t *testing.T) {
	fab := NewPartitioned([]*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("EnableFluid on a two-partition fabric did not panic")
		}
	}()
	fab.EnableFluid(DefaultFluidConfig())
}
