package main

import (
	"time"

	"lunasolar/ebs"
)

// failover_storm: Table 2 in miniature. Six cells, {Luna, Solar} x three
// faults, each on its own 8-compute cluster: 200 ms of healthy traffic
// (set-up), then the fault and a 1.5 s window in which every I/O issued
// is one op. A faulted cluster cannot drain (Luna retries a blackholed
// flow forever), so ops still open at the end count with their age.
const (
	failoverComputes = 8
	failoverDepth    = 4
	failoverWarm     = 200 * time.Millisecond
	failoverWindow   = 1500 * time.Millisecond
	failoverDisk     = 128 << 20
	// failoverLat is the healthy I/O latency assumed when turning an op
	// target into a think time.
	failoverLat = 150 * time.Microsecond
)

type fault struct {
	name   string
	inject func(c *ebs.Cluster)
	// unmaskable: no retransmission helps a flow hashed onto the fault,
	// so Luna must show hung I/Os (Table 2's shape); under the other
	// faults it may.
	unmaskable bool
}

var faults = []fault{
	{"tor_blackhole25", func(c *ebs.Cluster) {
		c.Fabric.ToR(0, 0, 0, 0).SetBlackhole(0.25, 4242)
		c.Fabric.ToR(0, 0, 0, 1).SetBlackhole(0.25, 4242)
	}, true},
	{"spine_drop75", func(c *ebs.Cluster) {
		c.Fabric.Spine(0, 0, 0).SetDropRate(0.75)
	}, false},
	{"tor_reboot10s", func(c *ebs.Cluster) {
		c.Fabric.RebootSwitch(c.Fabric.ToR(0, 0, 0, 0), 10*time.Second)
	}, false},
}

// failoverDeck is one stratum of Table 2's traffic: 4-32 KiB, R:W 1:4.
func failoverDeck() []opKind {
	var deck []opKind
	for _, size := range []int{4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		deck = append(deck, opKind{read: true, size: size})
		for i := 0; i < 4; i++ {
			deck = append(deck, opKind{size: size})
		}
	}
	return deck
}

// failoverThink turns the workload's op target into the think time that
// yields about that many ops over six cells: slots x window / (think +
// latency) ops per cell. At the reference op count it is about 4.6 ms.
func failoverThink(ops int) time.Duration {
	perCell := ops / (2 * len(faults))
	if perCell < 1 {
		perCell = 1
	}
	slots := failoverComputes * failoverDepth
	think := time.Duration(slots)*failoverWindow/time.Duration(perCell) - failoverLat
	if think < 500*time.Microsecond {
		think = 500 * time.Microsecond
	}
	return think
}

func failoverCells() []cellSpec {
	var cells []cellSpec
	for _, f := range faults {
		for _, fn := range []ebs.StackKind{ebs.Luna, ebs.Solar} {
			f, fn := f, fn
			cells = append(cells, cellSpec{
				name:     fn.String() + "/" + f.name,
				mayFail:  fn == ebs.Luna,
				mustFail: fn == ebs.Luna && f.unmaskable,
				build: func(seed int64, ops int, traced bool) (instance, error) {
					return buildFailoverCell(fn, f, seed, ops, traced)
				},
			})
		}
	}
	return cells
}

func buildFailoverCell(fn ebs.StackKind, f fault, seed int64, ops int, traced bool) (instance, error) {
	c := ebs.New(storageConfig(fn, failoverComputes))
	vds, err := provision(c, failoverComputes, failoverDisk)
	if err != nil {
		return nil, err
	}
	l := newLoad(c, vds, loadConfig{
		seed: seed, depth: failoverDepth, think: failoverThink(ops),
		span: failoverDisk, spans: traced, deck: failoverDeck(),
	})
	if err := l.prime(vds); err != nil {
		return nil, err
	}
	perCell := ops / (2 * len(faults))
	l.reserve(2*perCell + len(l.slots))
	l.allow(1 << 40) // bounded by the window, not by a count
	c.RunFor(failoverWarm)
	return &faultedInst{
		storageInst: storageInst{c: c, l: l, window: failoverWindow},
		inject:      f.inject,
	}, nil
}

// faultedInst is a storage instance whose measured phase opens with a
// fault injection.
type faultedInst struct {
	storageInst
	inject func(c *ebs.Cluster)
}

func (s *faultedInst) step(k int) {
	if k == 1 {
		s.inject(s.c)
	}
	s.storageInst.step(k)
}
