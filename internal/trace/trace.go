// Package trace implements the distributed tracing EBS uses to attribute
// end-to-end I/O latency to its four components (Fig. 6): SA (storage-agent
// processing on the compute side), FN (the frontend-network RPC, including
// stack processing), BN (backend replication RPC), and SSD (chunk-server
// processing plus media time).
package trace

import (
	"fmt"
	"time"

	"lunasolar/internal/stats"
)

// Component is one segment of the I/O data path.
type Component int

// The four latency components of Fig. 6.
const (
	SA Component = iota
	FN
	BN
	SSD
	numComponents
)

func (c Component) String() string {
	switch c {
	case SA:
		return "SA"
	case FN:
		return "FN"
	case BN:
		return "BN"
	case SSD:
		return "SSD"
	}
	return "?"
}

// Components lists all components in display order.
var Components = []Component{SA, FN, BN, SSD}

// Span accumulates the component times of a single I/O.
type Span struct {
	Op    string // "read" or "write"
	Size  int
	parts [numComponents]time.Duration
}

// Add attributes d to component c. Negative increments clamp to zero: a
// span accumulates deltas between event timestamps, and a negative delta
// means the caller's clocks crossed, not that the component gave time back.
// This is deliberately consistent with the stats.Histogram 1ns domain floor
// — the floor applies once to the *recorded total* in Collector.Record,
// while Add keeps each individual increment non-negative so one bad delta
// cannot cancel out real attributed time.
func (s *Span) Add(c Component, d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.parts[c] += d
}

// Get returns the accumulated time of component c.
func (s *Span) Get(c Component) time.Duration { return s.parts[c] }

// Total returns the sum over all components.
func (s *Span) Total() time.Duration {
	var t time.Duration
	for _, p := range s.parts {
		t += p
	}
	return t
}

// Collector aggregates spans into per-component and end-to-end histograms,
// separately for reads and writes.
type Collector struct {
	read  [numComponents]*stats.Histogram
	write [numComponents]*stats.Histogram
	e2eR  *stats.Histogram
	e2eW  *stats.Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{e2eR: stats.NewHistogram(), e2eW: stats.NewHistogram()}
	for i := range c.read {
		c.read[i] = stats.NewHistogram()
		c.write[i] = stats.NewHistogram()
	}
	return c
}

// Record folds a finished span into the collector.
func (c *Collector) Record(s *Span) {
	comps := &c.read
	e2e := c.e2eR
	if s.Op == "write" {
		comps = &c.write
		e2e = c.e2eW
	}
	for i := range s.parts {
		comps[i].Record(s.parts[i])
	}
	e2e.Record(s.Total())
}

// Component returns the histogram for one component of one op ("read" or
// "write").
func (c *Collector) Component(op string, comp Component) *stats.Histogram {
	if op == "write" {
		return c.write[comp]
	}
	return c.read[comp]
}

// E2E returns the end-to-end histogram for op.
func (c *Collector) E2E(op string) *stats.Histogram {
	if op == "write" {
		return c.e2eW
	}
	return c.e2eR
}

// Breakdown returns each component's quantile-q latency for op, in
// component order, plus the end-to-end quantile. Note the component
// quantiles need not sum to the end-to-end quantile (quantiles do not add);
// the harness reports both, as the paper's Fig. 6 does.
func (c *Collector) Breakdown(op string, q float64) (parts []time.Duration, e2e time.Duration) {
	for _, comp := range Components {
		parts = append(parts, c.Component(op, comp).Quantile(q))
	}
	return parts, c.E2E(op).Quantile(q)
}

// RegisterInto exports every histogram into reg under
// "<prefix><op>/<component>" and "<prefix><op>/e2e" (components lowercased:
// sa, fn, bn, ssd). Ops and components are walked in fixed display order so
// the export is deterministic.
func (c *Collector) RegisterInto(reg *stats.Registry, prefix string) {
	for _, op := range []string{"read", "write"} {
		if c.E2E(op).Count() == 0 {
			continue
		}
		for _, comp := range Components {
			reg.ObserveHistogram(prefix+op+"/"+lowerComponent(comp), c.Component(op, comp))
		}
		reg.ObserveHistogram(prefix+op+"/e2e", c.E2E(op))
	}
}

func lowerComponent(c Component) string {
	switch c {
	case SA:
		return "sa"
	case FN:
		return "fn"
	case BN:
		return "bn"
	case SSD:
		return "ssd"
	}
	return "unknown"
}

// String renders a compact summary for logs.
func (c *Collector) String() string {
	out := ""
	for _, op := range []string{"read", "write"} {
		if c.E2E(op).Count() == 0 {
			continue
		}
		parts, e2e := c.Breakdown(op, 0.5)
		out += fmt.Sprintf("%s p50: e2e=%v", op, e2e.Round(100*time.Nanosecond))
		for i, comp := range Components {
			out += fmt.Sprintf(" %s=%v", comp, parts[i].Round(100*time.Nanosecond))
		}
		out += "\n"
	}
	return out
}
