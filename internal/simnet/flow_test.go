package simnet

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/sim/runtime"
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

// TestFluidDemotionConservesBytes: a mid-flight stack disturbance (an RDMA
// NAK note) must flush the fluid flow back to packets with the sent prefix
// conserved — the transfer still completes with the same bytes and the
// same latency as packet mode (the path is idle; the resumed sender
// continues on the original grid), and the completion is no longer
// analytic.
func TestFluidDemotionConservesBytes(t *testing.T) {
	pc, _, _ := runBulkOnce(t, false, nil)
	disturb := func(eng *sim.Engine, fab *Fabric) {
		eng.At(sim.Time(1300*time.Microsecond), func() {
			fab.Host(0, 0, 1, 1).FluidDisturb(TriggerNAK)
		})
	}
	hc, _, hFab := runBulkOnce(t, true, disturb)
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
	if s.Triggers[TriggerNAK] == 0 {
		t.Fatalf("NAK trigger not recorded: %+v", s.Triggers)
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

// coupledBulkRun drives the diurnal-style bulk schedule over a partitioned
// fabric with the coupled runner, hybrid or not, and returns the
// completion list (deterministic order) plus the fabric.
func coupledBulkRun(t *testing.T, parts, workers int, hybrid bool) ([]BulkCompletion, *Fabric) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	engs := make([]*sim.Engine, parts)
	for i := range engs {
		engs[i] = sim.NewEngine(int64(i + 1))
	}
	fab := NewPartitioned(engs, cfg)
	bulk := NewBulkService(fab)
	var ft *FlowTable
	if hybrid {
		ft = fab.EnableFluid(DefaultFluidConfig())
	}

	r := sim.NewRand(17)
	hosts := fab.Hosts()
	for i := 0; i < 12; i++ {
		src := hosts[r.Intn(len(hosts))]
		dst := hosts[r.Intn(len(hosts))]
		if src == dst {
			dst = hosts[(r.Intn(len(hosts))+1)%len(hosts)]
			if src == dst {
				continue
			}
		}
		at := sim.Time(time.Millisecond).Add(time.Duration(r.Int63n(int64(2 * time.Millisecond))))
		bulk.Transfer(src, dst, int64(64+r.Intn(192))<<10, 4096, 5e9, at)
	}

	c := &runtime.Coupled{
		Engines:   engs,
		Lookahead: fab.Lookahead(),
		Workers:   workers,
		AtBarrier: func() {
			fab.PublishCutState()
			fab.DrainInboxes()
		},
	}
	if ft != nil {
		c.FastForward = ft.BarrierAdvance
	}
	c.Run()
	if n := fab.OutstandingAll(); n != 0 {
		t.Fatalf("parts=%d workers=%d hybrid=%v: leaked %d pooled packets", parts, workers, hybrid, n)
	}
	return bulk.Completions(), fab
}

// TestCoupledFluidAgreesWithPacket: on a partitioned fabric the fluid
// plane advances only at barriers (BarrierAdvance as the runner's
// FastForward), and must agree with the packet-fidelity coupled run on
// every completion while being byte-identical across worker counts.
func TestCoupledFluidAgreesWithPacket(t *testing.T) {
	const parts = 2
	want, _ := coupledBulkRun(t, parts, 1, false)
	if len(want) == 0 {
		t.Fatal("packet-mode coupled run completed nothing")
	}
	for _, workers := range []int{1, 2} {
		got, fab := coupledBulkRun(t, parts, workers, true)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: hybrid completed %d transfers, packet %d", workers, len(got), len(want))
		}
		fluid := 0
		for i, c := range got {
			w := want[i]
			if c.ID != w.ID || c.Bytes != w.Bytes || c.Lat != w.Lat {
				t.Fatalf("workers=%d: completion %d differs: hybrid %+v, packet %+v", workers, i, c, w)
			}
			if c.Fluid {
				fluid++
			}
		}
		if fluid == 0 {
			t.Fatal("coupled hybrid run fast-forwarded nothing")
		}
		if s := fab.Fluid().Stats(); s.Admitted == 0 {
			t.Fatalf("coupled hybrid admitted nothing: %+v", s)
		}
	}
}
