package experiments

import (
	"fmt"
	"math"
	"testing"
)

// withinPct fails unless got is within tol percent of want (both zero is
// equal).
func withinPct(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got == want {
		return
	}
	base := math.Abs(want)
	if base == 0 {
		t.Fatalf("%s: got %v, want 0", name, got)
	}
	if pct := math.Abs(got-want) / base * 100; pct > tol {
		t.Fatalf("%s: hybrid %v vs packet %v (%.3f%% apart, tolerance %.1f%%)", name, got, want, pct, tol)
	}
}

// TestHybridDifferential is the tentpole gate: the diurnal campaign run in
// hybrid fidelity must agree with the packet-fidelity baseline — exactly
// on start, completion and drop counts, and within 1% on completion-time
// quantiles and goodput — while actually fast-forwarding (analytic
// completions, fewer events) and actually demoting (the incast wave is
// engineered to be max-min infeasible in every shard). minEventRatio is
// the deterministic event-count reduction floor (39.8x measured at full
// scale); the wall-clock payoff is the ratio of the BenchmarkDiurnal* lines.
func TestHybridDifferential(t *testing.T) {
	t.Run("quick", func(t *testing.T) { hybridDifferential(t, true, 3) })
	t.Run("full", func(t *testing.T) { hybridDifferential(t, false, 30) })
}

func hybridDifferential(t *testing.T, quick bool, minEventRatio uint64) {
	opts := Options{Seed: 1, Quick: quick, Workers: 1}
	pkt := diurnalCampaign(opts, FidelityPacket)
	hyb := diurnalCampaign(opts, FidelityHybrid)

	if l := pkt.Perf.Leaked(); l != 0 {
		t.Fatalf("packet run leaked %d pooled packets", l)
	}
	if l := hyb.Perf.Leaked(); l != 0 {
		t.Fatalf("hybrid run leaked %d pooled packets", l)
	}

	// Exact agreement: counts are integers and both modes must deliver (and
	// lose) the same transfers.
	if hyb.Started != pkt.Started || hyb.Completed != pkt.Completed {
		t.Fatalf("counts differ: hybrid %d/%d started/completed, packet %d/%d",
			hyb.Started, hyb.Completed, pkt.Started, pkt.Completed)
	}
	if hyb.Drops != pkt.Drops {
		t.Fatalf("drops differ: hybrid %d, packet %d", hyb.Drops, pkt.Drops)
	}
	if hyb.SimTime != pkt.SimTime {
		t.Fatalf("simulated spans differ: hybrid %v, packet %v", hyb.SimTime, pkt.SimTime)
	}
	if len(hyb.Phases) != len(pkt.Phases) {
		t.Fatalf("phase count differs: %d vs %d", len(hyb.Phases), len(pkt.Phases))
	}
	for i, hp := range hyb.Phases {
		pp := pkt.Phases[i]
		if hp.Name != pp.Name || hp.Started != pp.Started || hp.Completed != pp.Completed {
			t.Fatalf("phase %q: hybrid %d/%d started/completed, packet %d/%d",
				hp.Name, hp.Started, hp.Completed, pp.Started, pp.Completed)
		}
		withinPct(t, fmt.Sprintf("phase %q p50", hp.Name), hp.P50us, pp.P50us, 1)
		withinPct(t, fmt.Sprintf("phase %q p90", hp.Name), hp.P90us, pp.P90us, 1)
		withinPct(t, fmt.Sprintf("phase %q p99", hp.Name), hp.P99us, pp.P99us, 1)
	}
	withinPct(t, "overall p50", hyb.Overall.P50us, pkt.Overall.P50us, 1)
	withinPct(t, "overall p90", hyb.Overall.P90us, pkt.Overall.P90us, 1)
	withinPct(t, "overall p99", hyb.Overall.P99us, pkt.Overall.P99us, 1)
	withinPct(t, "MB/s", hyb.MBps, pkt.MBps, 1)

	// The hybrid run must have genuinely fast-forwarded, not silently fallen
	// back to packet mode.
	if pkt.Fluid != 0 || pkt.Admitted != 0 || pkt.Demotions != 0 {
		t.Fatalf("packet run reports fluid activity: fluid=%d admitted=%d demotions=%d",
			pkt.Fluid, pkt.Admitted, pkt.Demotions)
	}
	if hyb.Fluid == 0 || hyb.Admitted == 0 {
		t.Fatalf("hybrid run fast-forwarded nothing: fluid=%d admitted=%d", hyb.Fluid, hyb.Admitted)
	}
	// The engineered incast wave demotes once per shard (two shards).
	if hyb.Demotions < 2 {
		t.Fatalf("hybrid demotions = %d, want >= 2 (one incast flush per shard)", hyb.Demotions)
	}
	if hyb.Events*minEventRatio >= pkt.Events {
		t.Fatalf("hybrid processed %d events vs packet %d; want more than a %dx reduction", hyb.Events, pkt.Events, minEventRatio)
	}
}

// TestHybridWorkerDeterminism checks that the hybrid campaign is
// byte-identical at any shard-worker count: shards are independent and
// merged in shard order, so Workers must not leak into the output.
func TestHybridWorkerDeterminism(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2} {
		opts := Options{Seed: 1, Quick: true, Workers: workers, Fidelity: FidelityHybrid}
		tab := Diurnal(opts)
		if leaked := tab.Perf.Leaked(); leaked != 0 {
			t.Fatalf("workers=%d: %d pooled packets leaked", workers, leaked)
		}
		got := renderAll(t, tab, "diurnal", opts.Seed)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d output differs from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestHybridFidelitySensitivity guards against a degenerate differential
// "fix" that would pin the campaign's output regardless of scenario:
// different seeds must still produce different campaigns in hybrid mode.
func TestHybridFidelitySensitivity(t *testing.T) {
	a := diurnalCampaign(Options{Seed: 1, Quick: true, Workers: 1}, FidelityHybrid)
	b := diurnalCampaign(Options{Seed: 2, Quick: true, Workers: 1}, FidelityHybrid)
	if a.Overall.P50us == b.Overall.P50us && a.Overall.P99us == b.Overall.P99us && a.MBps == b.MBps {
		t.Fatal("seeds 1 and 2 produced identical campaigns; the schedule is not seeded")
	}
}
