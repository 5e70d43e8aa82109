package cc

import (
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/wire"
)

const mss = 4096

func TestDCTCPSlowStart(t *testing.T) {
	d := NewDCTCP(mss, 2*mss, 1<<20)
	start := d.Window()
	d.OnAck(Feedback{AckedBytes: mss})
	if d.Window() <= start {
		t.Fatal("no slow-start growth")
	}
}

func TestDCTCPReducesProportionally(t *testing.T) {
	d := NewDCTCP(mss, 64*mss, 1<<20)
	d.ssthresh = 64 * mss // out of slow start
	// Ack a full window, all marked → alpha rises, window cut.
	before := d.Window()
	for i := 0; i < 64; i++ {
		d.OnAck(Feedback{AckedBytes: mss, ECNMarked: true})
	}
	if d.Window() >= before {
		t.Fatalf("window %d not reduced from %d on full marking", d.Window(), before)
	}
	if d.alpha == 0 {
		t.Fatal("alpha not updated")
	}
	// Light marking cuts less than heavy marking.
	dLight := NewDCTCP(mss, 64*mss, 1<<20)
	dLight.ssthresh = 64 * mss
	for i := 0; i < 64; i++ {
		dLight.OnAck(Feedback{AckedBytes: mss, ECNMarked: i == 0})
	}
	if dLight.Window() <= d.Window() {
		t.Fatalf("light marking (%d) should beat heavy marking (%d)", dLight.Window(), d.Window())
	}
}

func TestDCTCPGrowsWithoutMarks(t *testing.T) {
	d := NewDCTCP(mss, 8*mss, 1<<20)
	d.ssthresh = 8 * mss
	before := d.Window()
	for i := 0; i < 8; i++ {
		d.OnAck(Feedback{AckedBytes: mss})
	}
	if d.Window() != before+mss {
		t.Fatalf("window = %d, want +1 MSS (%d)", d.Window(), before+mss)
	}
}

func TestDCTCPFloorAndTimeout(t *testing.T) {
	d := NewDCTCP(mss, 2*mss, 1<<20)
	for i := 0; i < 10; i++ {
		d.OnLoss()
	}
	if d.Window() != mss {
		t.Fatalf("window %d below 1 MSS floor", d.Window())
	}
	d.OnTimeout()
	if d.Window() != mss {
		t.Fatalf("timeout window = %d", d.Window())
	}
}

func hop(id uint16, qlen uint32, txBytes uint64, ts uint64) wire.INTHop {
	return wire.INTHop{HopID: id, QLenB: qlen, TxBytes: txBytes, RateMbs: 25000, TSNanos: ts}
}

func TestHPCCShrinksOnCongestion(t *testing.T) {
	h := NewHPCC(mss, 64*mss, 256*mss, 10*time.Microsecond)
	// First ack establishes hop history.
	h.OnAck(Feedback{AckedBytes: mss, INT: []wire.INTHop{hop(1, 0, 0, 1000)}})
	before := h.Window()
	// Deep queue + line-rate delivery → U >> eta → multiplicative decrease.
	// 25 Gbit/s over 10 µs base RTT → BDP ≈ 31 KB; qlen 300 KB → U ≈ 10.
	h.OnAck(Feedback{AckedBytes: mss, INT: []wire.INTHop{hop(1, 300_000, 31250, 11000)}})
	if h.Window() >= before {
		t.Fatalf("window %d did not shrink from %d under congestion", h.Window(), before)
	}
}

func TestHPCCGrowsWhenIdle(t *testing.T) {
	h := NewHPCC(mss, 8*mss, 256*mss, 10*time.Microsecond)
	before := h.Window()
	ts := uint64(1000)
	for i := 0; i < 50; i++ {
		// Empty queues, negligible delivery rate → U < eta → W = wc + wai.
		h.OnAck(Feedback{AckedBytes: mss, INT: []wire.INTHop{hop(1, 0, uint64(i)*100, ts)}})
		ts += 10000
	}
	if h.Window() <= before {
		t.Fatalf("window %d did not grow from %d when uncongested", h.Window(), before)
	}
}

func TestHPCCBounds(t *testing.T) {
	h := NewHPCC(mss, 8*mss, 16*mss, 10*time.Microsecond)
	ts := uint64(0)
	for i := 0; i < 500; i++ {
		h.OnAck(Feedback{AckedBytes: mss, INT: []wire.INTHop{hop(1, 0, 0, ts)}})
		ts += 10000
		if w := h.Window(); w < mss || w > 16*mss {
			t.Fatalf("window %d out of [mss, max]", w)
		}
	}
	h.OnTimeout()
	if h.Window() != mss {
		t.Fatalf("timeout window = %d", h.Window())
	}
}

func TestHPCCMostCongestedHopDominates(t *testing.T) {
	a := NewHPCC(mss, 64*mss, 256*mss, 10*time.Microsecond)
	b := NewHPCC(mss, 64*mss, 256*mss, 10*time.Microsecond)
	// a sees one congested hop among idle ones; b sees only idle hops.
	a.OnAck(Feedback{AckedBytes: mss, INT: []wire.INTHop{hop(1, 0, 0, 1000), hop(2, 400_000, 0, 1000)}})
	b.OnAck(Feedback{AckedBytes: mss, INT: []wire.INTHop{hop(1, 0, 0, 1000), hop(2, 0, 0, 1000)}})
	if a.Window() >= b.Window() {
		t.Fatalf("congested-path window %d >= clean-path window %d", a.Window(), b.Window())
	}
}

func TestHPCCEmptyINTAdditiveIncrease(t *testing.T) {
	// A probe or handshake ack carries no telemetry; HPCC must not stall
	// or cut — exactly one gentle additive step.
	h := NewHPCC(mss, 8*mss, 256*mss, 10*time.Microsecond)
	before := h.Window()
	h.OnAck(Feedback{AckedBytes: mss})
	if h.Window() != before+mss/4 {
		t.Fatalf("window = %d after empty-INT ack, want %d", h.Window(), before+mss/4)
	}
}

// controller is the surface DCTCP and HPCC share, so the property test and
// the fuzzer can drive both through one loop.
type controller interface {
	OnAck(Feedback)
	OnLoss()
	OnTimeout()
	Window() int
}

// randomFeedback builds an arbitrary but deterministic Feedback from the
// shared random stream, covering every signal the controllers consume.
func randomFeedback(rng *sim.Rand) Feedback {
	fb := Feedback{
		AckedBytes: rng.Intn(16 * mss),
		ECNMarked:  rng.Bernoulli(0.3),
	}
	if rng.Bernoulli(0.5) {
		n := 1 + rng.Intn(int(wire.MaxINTHops))
		for i := 0; i < n; i++ {
			fb.INT = append(fb.INT, wire.INTHop{
				HopID: uint16(rng.Intn(4)), QLenB: uint32(rng.Intn(500_000)),
				TxBytes: uint64(rng.Intn(1 << 30)), RateMbs: 25000,
				TSNanos: uint64(rng.Intn(1 << 30)),
			})
		}
	}
	return fb
}

// checkWindow asserts the bound every controller must hold no matter what
// feedback it has seen.
func checkWindow(t *testing.T, name string, c controller, maxCwnd int) {
	t.Helper()
	if w := c.Window(); w < mss || w > maxCwnd {
		t.Fatalf("%s: window %d out of [%d, %d]", name, w, mss, maxCwnd)
	}
}

// TestControllerInvariants drives both controllers with arbitrary feedback
// interleaved with losses and timeouts: windows stay within [MSS, max].
func TestControllerInvariants(t *testing.T) {
	const maxCwnd = 64 * mss
	make := map[string]func() controller{
		"dctcp": func() controller { return NewDCTCP(mss, 8*mss, maxCwnd) },
		"hpcc":  func() controller { return NewHPCC(mss, 8*mss, maxCwnd, 10*time.Microsecond) },
	}
	for name, mk := range make {
		rng := sim.NewRand(42)
		c := mk()
		for i := 0; i < 20_000; i++ {
			switch {
			case rng.Bernoulli(0.01):
				c.OnLoss()
			case rng.Bernoulli(0.005):
				c.OnTimeout()
			default:
				c.OnAck(randomFeedback(rng))
			}
			checkWindow(t, name, c, maxCwnd)
		}
	}
}

// FuzzFeedback feeds fuzzer-chosen feedback sequences to both controllers
// and checks the same bound the property test enforces.
func FuzzFeedback(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, mix uint8) {
		const maxCwnd = 64 * mss
		ctrls := []struct {
			name string
			c    controller
		}{
			{"dctcp", NewDCTCP(mss, 8*mss, maxCwnd)},
			{"hpcc", NewHPCC(mss, 8*mss, maxCwnd, 10*time.Microsecond)},
		}
		rng := sim.NewRand(seed)
		for i := 0; i < 500; i++ {
			fb := randomFeedback(rng)
			for _, ct := range ctrls {
				switch {
				case mix&1 != 0 && i%97 == 0:
					ct.c.OnLoss()
				case mix&2 != 0 && i%193 == 0:
					ct.c.OnTimeout()
				default:
					ct.c.OnAck(fb)
				}
				checkWindow(t, ct.name, ct.c, maxCwnd)
			}
		}
	})
}
