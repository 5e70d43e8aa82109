package simnet

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
)

// runBulkOnce drives one 512 KiB transfer (128 chunks of 4 KiB, paced at
// 5 Gbit/s) over an idle cross-pod path starting at 1 ms, with an optional
// disturbance scheduled before the run, and steps the engine by step (0
// means one Run). It returns the completions, the events processed and the
// fabric's configuration.
func runBulkOnce(t *testing.T, step time.Duration, disturb func(eng *sim.Engine, fab *Fabric)) ([]BulkCompletion, uint64, Config) {
	t.Helper()
	eng, fab := smallFabric(t)
	bulk := NewBulkService(fab)
	bulk.Transfer(fab.Host(0, 0, 0, 0), fab.Host(0, 1, 0, 0), 512<<10, 4096, 5e9, sim.Time(time.Millisecond))
	if disturb != nil {
		disturb(eng, fab)
	}
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
	return bulk.Completions(), eng.Processed(), fab.Config()
}

// TestBulkCompletesOnClosedForm: on an idle path nothing queues, so the
// fin leaves on its pacing grid slot (n−1)·iv after t0 and arrives one
// idle-path flight time later. The cross-pod path is host → ToR → spine →
// core → spine → ToR → host: two host links and four fabric links, each
// costing serialization plus propagation, and five switch pipelines.
func TestBulkCompletesOnClosedForm(t *testing.T) {
	c, _, cfg := runBulkOnce(t, 0, nil)
	if len(c) != 1 {
		t.Fatalf("completions = %d, want 1", len(c))
	}
	if want := closedFormLat(cfg, 128, 4096, 5e9); c[0] != (BulkCompletion{ID: 0, Lat: want, Bytes: 512 << 10}) {
		t.Fatalf("completion %+v, want latency %v", c[0], want)
	}
}

// closedFormLat is the latency of an n-chunk cross-pod transfer on an idle
// path: the fin's grid slot (n−1)·iv plus its flight time.
func closedFormLat(cfg Config, n, chunk int, pace float64) time.Duration {
	wire := DefaultOverheadUDP + chunk + bulkHdrSize
	ser := func(bps float64) time.Duration { return time.Duration(float64(wire*8) / bps * float64(time.Second)) }
	flight := 2*(ser(cfg.HostLinkBps)+propDelay) + 4*(ser(FabricLinkBps)+propDelay) + 5*switchLatency
	return time.Duration(n-1)*ser(pace) + flight
}

// flapOffPath schedules a link flap at 1.3 ms — mid-flight for the
// runBulkOnce transfer — on a host port off that transfer's path.
func flapOffPath(eng *sim.Engine, fab *Fabric) {
	p := fab.Host(0, 0, 1, 1).ports[0]
	eng.At(sim.Time(1300*time.Microsecond), func() {
		p.SetUp(false)
		p.SetUp(true)
	})
}

// TestBulkRunForMatchesRun: driving the engine in bounded steps (RunFor)
// through a mid-flight link flap must end exactly like one Run, whatever
// the step.
func TestBulkRunForMatchesRun(t *testing.T) {
	wantC, wantN, _ := runBulkOnce(t, 0, flapOffPath)
	if len(wantC) != 1 {
		t.Fatalf("Run: completions %+v, want one", wantC)
	}
	for _, step := range []time.Duration{time.Microsecond, 37 * time.Microsecond, time.Millisecond} {
		c, n, _ := runBulkOnce(t, step, flapOffPath)
		if len(c) != len(wantC) || c[0] != wantC[0] {
			t.Fatalf("step %v: completions %+v, Run %+v", step, c, wantC)
		}
		if n != wantN {
			t.Fatalf("step %v: %d events processed, Run %d", step, n, wantN)
		}
	}
}

// TestBulkCompletionsSpanBlocks: completions are stored in fixed blocks;
// more than one block's worth must come back whole and in arrival order,
// and as a copy the caller may modify without touching the record.
func TestBulkCompletionsSpanBlocks(t *testing.T) {
	eng, fab := smallFabric(t)
	bulk := NewBulkService(fab)
	const n = complBlock + 3
	src, dst := fab.Host(0, 0, 0, 0), fab.Host(0, 1, 0, 0)
	for i := 0; i < n; i++ {
		bulk.Transfer(src, dst, 4096, 4096, 5e9, sim.Time(time.Duration(i)*10*time.Microsecond))
	}
	eng.Run()
	c := bulk.Completions()
	if len(c) != n {
		t.Fatalf("completions = %d, want %d", len(c), n)
	}
	for i, r := range c {
		if r.ID != uint64(i) || r.Bytes != 4096 {
			t.Fatalf("completion %d = %+v, want ID %d of 4096 bytes", i, r, i)
		}
	}
	c[0].ID = 99
	if again := bulk.Completions(); again[0].ID != 0 {
		t.Fatalf("modifying a returned slice changed the record: ID %d", again[0].ID)
	}
}
