// Package cc implements the two congestion controllers the paper's stacks
// run: a DCTCP-style ECN-proportional controller for the kernel and Luna
// stacks, and the INT-driven HPCC controller Solar runs per path ("we use
// a per-packet ACK to perform a fine-grained congestion control algorithm
// (e.g., HPCC)", §4.8). Both bound bytes in flight through Window(). The
// RDMA backend network keeps the RC hardware's fixed window and runs no
// controller.
package cc

import (
	"time"

	"lunasolar/internal/wire"
)

// Feedback is what an arriving acknowledgment tells the controller. Fields
// a stack cannot measure stay zero; each controller reads only the signals
// its algorithm is defined on.
type Feedback struct {
	AckedBytes int
	ECNMarked  bool          // DCTCP only
	INT        []wire.INTHop // per-hop telemetry, HPCC only
}

// DCTCP is the ECN-fraction-proportional controller. Alpha is updated once
// per window of acknowledged bytes; the window is reduced by alpha/2 when
// any marks were seen, and grows by one MSS per window otherwise (plus
// slow-start doubling below ssthresh).
type DCTCP struct {
	mss      int
	cwnd     int
	ssthresh int
	maxCwnd  int

	alpha       float64
	g           float64
	ackedBytes  int
	markedBytes int
}

// NewDCTCP creates a controller with the given MSS and window bounds.
func NewDCTCP(mss, initCwnd, maxCwnd int) *DCTCP {
	return &DCTCP{mss: mss, cwnd: initCwnd, ssthresh: maxCwnd, maxCwnd: maxCwnd, g: 1.0 / 16}
}

// Window returns the congestion window in bytes.
func (d *DCTCP) Window() int { return d.cwnd }

// Alpha returns the smoothed marked fraction (for tests and telemetry).
func (d *DCTCP) Alpha() float64 { return d.alpha }

// OnAck processes one acknowledgment.
//
//lint:hotpath
func (d *DCTCP) OnAck(fb Feedback) {
	d.ackedBytes += fb.AckedBytes
	if fb.ECNMarked {
		d.markedBytes += fb.AckedBytes
	}
	if d.ackedBytes < d.cwnd {
		// Still inside the current window: grow in slow start only.
		if d.cwnd < d.ssthresh {
			d.cwnd += fb.AckedBytes
			if d.cwnd > d.maxCwnd {
				d.cwnd = d.maxCwnd
			}
		}
		return
	}
	// One window acknowledged: fold the marked fraction into alpha.
	f := float64(d.markedBytes) / float64(d.ackedBytes)
	d.alpha = (1-d.g)*d.alpha + d.g*f
	if d.markedBytes > 0 {
		d.cwnd = int(float64(d.cwnd) * (1 - d.alpha/2))
		if d.cwnd < d.mss {
			d.cwnd = d.mss
		}
		d.ssthresh = d.cwnd
	} else if d.cwnd >= d.ssthresh {
		d.cwnd += d.mss // congestion avoidance
		if d.cwnd > d.maxCwnd {
			d.cwnd = d.maxCwnd
		}
	}
	d.ackedBytes, d.markedBytes = 0, 0
}

// OnLoss halves the window.
func (d *DCTCP) OnLoss() {
	d.cwnd /= 2
	if d.cwnd < d.mss {
		d.cwnd = d.mss
	}
	d.ssthresh = d.cwnd
}

// OnTimeout collapses to one MSS.
func (d *DCTCP) OnTimeout() {
	d.ssthresh = d.cwnd / 2
	if d.ssthresh < 2*d.mss {
		d.ssthresh = 2 * d.mss
	}
	d.cwnd = d.mss
}

// HPCC is the High Precision Congestion Control window computation driven
// by per-hop INT: each link's utilization estimate combines queue depth and
// delivery rate; the window is scaled toward eta (the target utilization)
// of the most utilized hop. This implementation follows the SIGCOMM'19
// paper's per-ack update with additive increase W_ai.
type HPCC struct {
	mss     int
	maxCwnd int
	baseRTT time.Duration
	eta     float64
	wai     int

	cwnd int
	wc   int // reference window, updated once per RTT
	// Per-hop history for rate computation, stored positionally: slot i
	// holds hop i of the flow's current route, validated by HopID and
	// reset on a reroute. A fixed array (INT stacks carry at most
	// wire.MaxINTHops entries) keeps OnAck allocation-free.
	hist    [wire.MaxINTHops]hopHist
	sinceWc int // bytes acked since wc update
}

// hopHist is one INT hop's last-seen telemetry counters.
type hopHist struct {
	id      uint16
	valid   bool
	txBytes uint64
	ts      uint64
}

// NewHPCC creates a controller. baseRTT is the uncongested fabric RTT; eta
// is the target utilization (the paper uses 0.95).
func NewHPCC(mss, initCwnd, maxCwnd int, baseRTT time.Duration) *HPCC {
	return &HPCC{
		mss: mss, maxCwnd: maxCwnd, baseRTT: baseRTT,
		eta: 0.95, wai: mss / 4,
		cwnd: initCwnd, wc: initCwnd,
	}
}

// Window returns the congestion window in bytes.
func (h *HPCC) Window() int { return h.cwnd }

// maxUtilization computes max over hops of the normalized inflight estimate
// U_j = qlen/(B·T) + txRate/B.
//
//lint:hotpath
func (h *HPCC) maxUtilization(hops []wire.INTHop) float64 {
	maxU := 0.0
	for i, hop := range hops {
		if i >= len(h.hist) {
			break // INT stacks never exceed MaxINTHops; defensive
		}
		bps := float64(hop.RateMbs) * 1e6
		if bps <= 0 {
			continue
		}
		bdp := bps * h.baseRTT.Seconds() / 8 // bytes
		u := float64(hop.QLenB) / bdp

		// Delivery rate from consecutive telemetry of the same hop. A slot
		// whose stored HopID disagrees (the path was rerouted mid-life)
		// contributes no rate sample and is reseeded below.
		sl := &h.hist[i]
		if sl.valid && sl.id == hop.HopID && hop.TSNanos > sl.ts && hop.TxBytes >= sl.txBytes {
			dt := float64(hop.TSNanos-sl.ts) / 1e9
			rate := float64(hop.TxBytes-sl.txBytes) / dt // bytes/s
			u += rate * 8 / bps
		}
		sl.id, sl.valid = hop.HopID, true
		sl.txBytes, sl.ts = hop.TxBytes, hop.TSNanos

		if u > maxU {
			maxU = u
		}
	}
	return maxU
}

// OnAck processes one acknowledgment carrying INT.
//
//lint:hotpath
func (h *HPCC) OnAck(fb Feedback) {
	h.sinceWc += fb.AckedBytes
	u := h.maxUtilization(fb.INT)
	if u <= 0 {
		// No telemetry (probe or first ack): gentle additive increase.
		h.cwnd += h.wai
	} else if u >= h.eta {
		h.cwnd = int(float64(h.wc)/(u/h.eta)) + h.wai
	} else {
		h.cwnd = h.wc + h.wai
	}
	if h.cwnd < h.mss {
		h.cwnd = h.mss
	}
	if h.cwnd > h.maxCwnd {
		h.cwnd = h.maxCwnd
	}
	// Update the reference window once per RTT's worth of acks.
	if h.sinceWc >= h.wc {
		h.wc = h.cwnd
		h.sinceWc = 0
	}
}

// OnLoss multiplicatively backs off (losses are rare under HPCC; this
// covers failure transients).
func (h *HPCC) OnLoss() {
	h.cwnd /= 2
	if h.cwnd < h.mss {
		h.cwnd = h.mss
	}
	h.wc = h.cwnd
}

// OnTimeout collapses to one MSS.
func (h *HPCC) OnTimeout() {
	h.cwnd = h.mss
	h.wc = h.cwnd
}
