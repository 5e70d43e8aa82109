package main

import (
	"fmt"
	"math/rand"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/core"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
)

// numSlices is how many equal parts the measured phase is cut into; host
// timings are reported as the median slice.
const numSlices = 20

// stepQuantum is the virtual time a closed-loop instance advances between
// checks of its completion count: long enough that the check costs
// nothing, short enough that slices hold equal op counts to within a few
// dozen ops.
const stepQuantum = 100 * time.Microsecond

// warmShare is the share of the measured op count run in set-up to fill
// pools, open connections and queue pairs, and grow maps.
const warmShare = 0.02

// instance is one set-up cluster or fabric, ready to run its measured
// phase.
type instance interface {
	// step advances the measured phase to k/numSlices of its work; the last
	// step also drains whatever the workload drains.
	step(k int)
	// done returns how many measured ops have finished so far.
	done() int
	// finish classifies what is still open and runs the correctness
	// checks; it returns their failures.
	finish() (outcome, []string)
	engines() []*sim.Engine
	counters() layerCounts
}

// outcome is the simulated result of one instance's measured phase.
type outcome struct {
	ops       int // ops issued
	completed int
	failed    int
	open      int // outstanding at the end, younger than the hang threshold
	lat       []uint32
	comp      [4][]uint32
	opSpans   []opSpan
	virt      time.Duration // virtual time the measured phase covered
}

// cellSpec builds one instance; a workload is one or more cells run one
// after another.
type cellSpec struct {
	name  string
	build func(seed int64, ops int, traced bool) (instance, error)
	// mayFail: the stack under test has no answer to the cell's fault, so
	// hung I/Os are the simulator's correct output (Table 2's Luna
	// column). mustFail: the fault is one no single-path stack can mask,
	// so at least one I/O must hang. Everywhere else none may.
	mayFail  bool
	mustFail bool
}

func cellsFor(w *workloadSpec) []cellSpec {
	switch w.name {
	case "solar_write4k":
		return []cellSpec{{name: w.name, build: buildSolarWrite4K}}
	case "luna_mixed_rw":
		return []cellSpec{{name: w.name, build: buildLunaMixedRW}}
	case "fabric_bulk":
		return []cellSpec{{name: w.name, build: buildFabricBulk}}
	case "failover_storm":
		return failoverCells()
	}
	return nil
}

// --- storage workloads -------------------------------------------------------

// modelSeed seeds the simulated system itself: ECMP salts, path IDs, SSD
// latency draws. It is part of the system under test, not of its input,
// so it is the same for every run; --seed varies only what the generators
// feed the system (addresses, order, arrival times). Were it to follow
// --seed, each seed would be a differently wired fabric, and the
// seed-to-seed spread of the simulated metrics would be that of a fleet
// of clusters rather than of one.
const modelSeed = 1

// storageConfig is the cluster every storage workload shares: the
// experiments' testbed (2 racks x 4 hosts per pod) with 3 block and 5
// chunk servers. Everything else is ebs.DefaultConfig: packet fidelity,
// default congestion control, serial engine.
func storageConfig(fn ebs.StackKind, computes int) ebs.Config {
	cfg := ebs.DefaultConfig(fn)
	cfg.Fabric.RacksPerPod = 2
	cfg.Fabric.HostsPerRack = 4
	cfg.Fabric.SpinesPerPod = 2
	cfg.Fabric.CoresPerDC = 2
	cfg.ComputeServers = computes
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	cfg.Seed = modelSeed
	return cfg
}

// storageInst is a cluster with a closed-loop load on it.
type storageInst struct {
	c   *ebs.Cluster
	l   *load
	ops int
	// window, when set, bounds the measured phase in virtual time instead
	// of in ops (failover cells): a faulted cluster cannot drain, a
	// healthy one runs its ops and drains.
	window time.Duration
	start  sim.Time
	base   layerCounts
}

func provision(c *ebs.Cluster, disks int, size uint64) ([]*ebs.VDisk, error) {
	var vds []*ebs.VDisk
	for i := 0; i < disks; i++ {
		vd, err := c.Provision(i%c.Computes(), size, ebs.DefaultQoS())
		if err != nil {
			return nil, fmt.Errorf("provision vdisk %d: %w", i, err)
		}
		vds = append(vds, vd)
	}
	return vds, nil
}

// buildSolarWrite4K: Solar FN + RDMA BN, 4 compute / 3 block / 5 chunk
// servers, 4 vdisks x QD 8, 4 KiB random writes over 8 MiB per vdisk.
func buildSolarWrite4K(seed int64, ops int, traced bool) (instance, error) {
	c := ebs.New(storageConfig(ebs.Solar, 4))
	const span = 8 << 20
	vds, err := provision(c, 4, span)
	if err != nil {
		return nil, err
	}
	l := newLoad(c, vds, loadConfig{
		seed: seed, depth: 8, span: span, spans: traced,
		deck: []opKind{{size: 4 << 10}},
	})
	if err := l.prime(vds); err != nil {
		return nil, err
	}
	return warmStorage(c, l, ops), nil
}

// buildLunaMixedRW: Luna FN + RDMA BN, same cluster, 2 vdisks x QD 8,
// 70 % reads, Fig. 5 sizes, over a pre-filled 32 MiB per vdisk.
func buildLunaMixedRW(seed int64, ops int, traced bool) (instance, error) {
	c := ebs.New(storageConfig(ebs.Luna, 4))
	const span = 32 << 20
	vds, err := provision(c, 2, span)
	if err != nil {
		return nil, err
	}
	l := newLoad(c, vds, loadConfig{
		seed: seed, depth: 8, span: span, spans: traced, verify: true,
		deck: buildDeck(fig5Reads, fig5Writes),
	})
	if err := l.prime(vds); err != nil {
		return nil, err
	}
	if err := l.fill(vds); err != nil {
		return nil, err
	}
	return warmStorage(c, l, ops), nil
}

// warmStorage runs the warm-up share of the load to completion and
// returns the instance ready to measure.
func warmStorage(c *ebs.Cluster, l *load, ops int) *storageInst {
	l.allow(int(float64(ops)*warmShare) + 1)
	c.Run()
	l.reserve(ops + len(l.slots))
	return &storageInst{c: c, l: l, ops: ops}
}

func (s *storageInst) begin() {
	s.start = s.c.Eng.Now()
	s.base = storageCounts(s.c)
	s.l.beginCounting()
	if s.window == 0 {
		s.l.allow(s.ops)
	}
}

func (s *storageInst) step(k int) {
	if k == 1 {
		s.begin()
	}
	if s.window > 0 {
		s.c.Eng.RunUntil(s.start.Add(s.window * time.Duration(k) / numSlices))
		return
	}
	target := s.ops * k / numSlices
	// A healthy cluster finishes long before the deadline; it only stops
	// a broken one from spinning through retry timers forever.
	deadline := s.start.Add(10 * time.Minute)
	for s.done() < target && s.c.Eng.Pending() > 0 && s.c.Eng.Now() < deadline {
		s.c.RunFor(stepQuantum)
	}
	if k == numSlices && s.c.Eng.Now() < deadline {
		s.c.Run()
	}
}

func (s *storageInst) done() int { return s.l.res.completed + s.l.res.failed }

func (s *storageInst) engines() []*sim.Engine { return s.c.Engines() }

func (s *storageInst) counters() layerCounts { return storageCounts(s.c).sub(s.base) }

func (s *storageInst) finish() (outcome, []string) {
	var bad []string
	young, hung := s.l.closeOpen()
	r := &s.l.res
	o := outcome{
		ops: r.ops, completed: r.completed, failed: r.failed, open: young,
		lat: r.lat, comp: r.comp, opSpans: r.opSpans,
	}
	if s.window > 0 {
		o.virt = s.window
	} else {
		o.virt = r.last.Sub(r.first)
		if r.ops != s.ops {
			bad = append(bad, fmt.Sprintf("issued %d ops, want %d", r.ops, s.ops))
		}
		if young+hung != 0 {
			bad = append(bad, fmt.Sprintf("%d ops never completed", young+hung))
		}
		if n := s.c.Leaked(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d pooled packets leaked", n))
		}
		if n := s.c.Fabric.Pool().Outstanding(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d packets or slab references outstanding after drain", n))
		}
	}
	if r.mismatch != 0 {
		bad = append(bad, fmt.Sprintf("%d reads returned other bytes than last written", r.mismatch))
	}
	if n := s.counters().n[cCRCErrors]; n != 0 {
		bad = append(bad, fmt.Sprintf("%d chunk-server CRC errors", n))
	}
	return o, bad
}

// storageCounts reads every public per-layer counter of a cluster.
func storageCounts(c *ebs.Cluster) layerCounts {
	lc := fabricCounts(c.Fabric)
	stack := func(st any) {
		switch s := st.(type) {
		case *tcpstack.Stack:
			lc.n[cTCPRetx] += s.Retransmits
		case *core.Stack:
			lc.n[cCoreRetx] += s.Retransmits
		}
	}
	for i := 0; i < c.Computes(); i++ {
		stack(c.Compute(i).Stack)
	}
	for _, b := range c.Blocks() {
		stack(b.FN)
		w, r := b.Block.Stats()
		lc.n[cBlockWrites] += w
		lc.n[cBlockReads] += r
	}
	for _, ch := range c.Chunks() {
		w, r, crcErrs, _ := ch.Chunk.Stats()
		lc.n[cChunkWrites] += w
		lc.n[cChunkReads] += r
		lc.n[cCRCErrors] += crcErrs
		// Utilization is mean busy units; over the SSD's parallelism it is
		// the share of the device in use.
		lc.ssdUtil += ch.Chunk.Utilization() / float64(c.Config().SSD.Parallelism) / float64(len(c.Chunks()))
	}
	return lc
}

// --- fabric_bulk ---------------------------------------------------------------

const (
	bulkBytes = 64 << 10
	bulkChunk = 4 << 10
	bulkPairs = 16
	// bulkLoad is the offered load per sending host as a share of one NIC
	// port's line rate.
	bulkLoad = 0.6
	// bulkAdmit is how far ahead the benchmark's own engine timer admits
	// transfers, so the event heap holds thousands of events, not every
	// transfer of the run.
	bulkAdmit = 100 * time.Microsecond
)

// fabricInst drives open-loop bulk transfers across the default Clos.
type fabricInst struct {
	eng  *sim.Engine
	fab  *simnet.Fabric
	bulk *simnet.BulkService
	rng  *rand.Rand
	src  []*simnet.Host
	dst  []*simnet.Host
	next []sim.Time // next due arrival per pair
	mean time.Duration
	rate float64 // NIC port line rate, bits/s
	// paceLo is the slowest pace a sender uses, as a share of line rate:
	// 0.90 to 0.92, drawn once per seed. Each transfer paces at a rate
	// drawn from [paceLo, 1], so unqueued transfers do not all take the
	// same time, and the median latency moves a little with the seed
	// instead of sitting on one step of the 15 ns lattice that whole-ns
	// pacing intervals put it on.
	paceLo float64

	limit   int // transfers that may be admitted in total
	started int
	warm    int // transfers admitted in set-up
	ops     int
	traced  bool
	t0      []int64 // due time per measured transfer (traced runs)
	start   sim.Time
	end     sim.Time // due time of the last measured transfer
	base    layerCounts
	tick    func()
}

// buildFabricBulk: default Clos, 16 cross-pod host pairs (alternating
// direction), 64 KiB transfers at 60 % of line rate per sender with
// uniformly jittered inter-arrivals, each paced at line rate.
func buildFabricBulk(seed int64, ops int, traced bool) (instance, error) {
	eng := sim.NewEngine(modelSeed)
	cfg := simnet.DefaultConfig()
	fab := simnet.New(eng, cfg)
	f := &fabricInst{
		eng: eng, fab: fab, bulk: simnet.NewBulkService(fab),
		rng: rand.New(rand.NewSource(seed*0x9e3779b1 + 29)),
		ops: ops, traced: traced, rate: cfg.HostLinkBps,
	}
	f.paceLo = 0.90 + 0.02*f.rng.Float64()
	hostsPerPod := cfg.RacksPerPod * cfg.HostsPerRack
	if hostsPerPod < bulkPairs || cfg.PodsPerDC < 2 {
		return nil, fmt.Errorf("default fabric has %d hosts per pod in %d pods; need %d in 2", hostsPerPod, cfg.PodsPerDC, bulkPairs)
	}
	for i := 0; i < bulkPairs; i++ {
		a := fab.Host(0, 0, i/cfg.HostsPerRack, i%cfg.HostsPerRack)
		b := fab.Host(0, 1, i/cfg.HostsPerRack, i%cfg.HostsPerRack)
		if i%2 == 1 {
			a, b = b, a
		}
		f.src = append(f.src, a)
		f.dst = append(f.dst, b)
	}
	// One transfer is 16 frames of chunk + headers on the wire; at load
	// L of the line rate a sender starts one every wire/(L*rate).
	wire := float64(bulkBytes/bulkChunk) * float64(bulkChunk+simnet.DefaultOverheadUDP+28) * 8
	f.mean = time.Duration(wire / (bulkLoad * cfg.HostLinkBps) * float64(time.Second))
	f.next = make([]sim.Time, bulkPairs)
	for i := range f.next {
		f.next[i] = eng.Now().Add(f.gap())
	}
	f.tick = f.admit
	if traced {
		f.t0 = make([]int64, 0, ops)
	}

	f.warm = int(float64(ops)*warmShare) + 1
	f.limit = f.warm
	f.admit()
	eng.Run()
	if got := len(f.bulk.Completions()); got != f.warm {
		return nil, fmt.Errorf("warm-up: %d of %d transfers completed", got, f.warm)
	}
	return f, nil
}

// gap draws one inter-arrival time: the mean, jittered uniformly by half
// of it either way. A sender therefore overlaps at most two of its own
// line-rate transfers, which a NIC port's buffer always absorbs: the
// fabric stays loss-free, as a workload on which no op may fail needs.
// (Exponential gaps at this load overflow the 400 KiB port buffers a few
// times per million transfers.)
func (f *fabricInst) gap() time.Duration {
	return time.Duration((0.5 + f.rng.Float64()) * float64(f.mean))
}

// admit starts every transfer due within the next admission window, in
// due-time order across pairs, and re-arms itself while the limit allows.
func (f *fabricInst) admit() {
	horizon := f.eng.Now().Add(bulkAdmit)
	for f.started < f.limit {
		p := 0
		for i := 1; i < bulkPairs; i++ {
			if f.next[i] < f.next[p] {
				p = i
			}
		}
		at := f.next[p]
		if at > horizon {
			break
		}
		if at < f.eng.Now() {
			at = f.eng.Now()
		}
		pace := f.rate * (f.paceLo + (1-f.paceLo)*f.rng.Float64())
		f.bulk.Transfer(f.src[p], f.dst[p], bulkBytes, bulkChunk, pace, at)
		f.started++
		if f.started > f.warm {
			f.end = at
			if f.traced {
				f.t0 = append(f.t0, int64(at))
			}
		}
		f.next[p] = at.Add(f.gap())
	}
	if f.started < f.limit {
		f.eng.Schedule(bulkAdmit, f.tick)
	}
}

func (f *fabricInst) step(k int) {
	if k == 1 {
		f.start = f.eng.Now()
		f.base = fabricCounts(f.fab)
		for i := range f.next {
			f.next[i] = f.start.Add(f.gap())
		}
		f.limit += f.ops
		f.admit()
	}
	// Open loop: the schedule, not the fabric, sets the pace, so equal
	// shares of the expected span hold equal op counts.
	span := time.Duration(f.ops/bulkPairs) * f.mean
	f.eng.RunUntil(f.start.Add(span * time.Duration(k) / numSlices))
	if k == numSlices {
		f.eng.Run()
	}
}

func (f *fabricInst) done() int {
	// Completions are only read at the end (BulkService copies them out);
	// between slices the schedule is the progress measure.
	n := f.started - f.warm
	if n < 0 {
		n = 0
	}
	return n
}

func (f *fabricInst) engines() []*sim.Engine { return []*sim.Engine{f.eng} }

func (f *fabricInst) counters() layerCounts { return fabricCounts(f.fab).sub(f.base) }

func (f *fabricInst) finish() (outcome, []string) {
	var bad []string
	compl := f.bulk.Completions()
	o := outcome{ops: f.started - f.warm, virt: f.end.Sub(f.start)}
	o.lat = make([]uint32, 0, o.ops)
	var bytes int64
	for _, c := range compl {
		if c.ID < uint64(f.warm) {
			continue
		}
		o.completed++
		bytes += c.Bytes
		o.lat = append(o.lat, clampNs(c.Lat))
		if f.traced {
			t0 := f.t0[c.ID-uint64(f.warm)]
			o.opSpans = append(o.opSpans, opSpan{t0, t0 + int64(c.Lat)})
		}
	}
	// A transfer whose last frame was lost never completes.
	o.failed = o.ops - o.completed
	if o.ops != f.ops {
		bad = append(bad, fmt.Sprintf("admitted %d transfers, want %d", o.ops, f.ops))
	}
	if bytes != int64(o.completed)*bulkBytes {
		bad = append(bad, fmt.Sprintf("completed transfers carried %d bytes, want %d", bytes, int64(o.completed)*bulkBytes))
	}
	if n := f.fab.Pool().Outstanding(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d packets outstanding after drain", n))
	}
	if n := f.counters().n[cDrops]; n != 0 {
		bad = append(bad, fmt.Sprintf("%d frames dropped on a healthy fabric", n))
	}
	return o, bad
}

// --- per-layer counters ----------------------------------------------------------

// counter indexes one public counter the layers keep.
type counter int

const (
	cPkts counter = iota
	cHops
	cDrops
	cCopies
	cPoolMiss
	cTCPRetx
	cCoreRetx
	cBlockWrites
	cBlockReads
	cChunkWrites
	cChunkReads
	cCRCErrors
	numCounters
)

// counterMetric names the per-op metric each counter is reported as
// (cCRCErrors is reported as an absolute count instead).
var counterMetric = [numCounters]string{
	cPkts:        "simnet.pkts_per_op",
	cHops:        "simnet.hops_per_op",
	cDrops:       "simnet.drops_per_op",
	cCopies:      "simnet.copies_per_op",
	cPoolMiss:    "simnet.pool_miss_per_op",
	cTCPRetx:     "tcpstack.retx_per_op",
	cCoreRetx:    "core.retx_per_op",
	cBlockWrites: "blockserver.writes_per_op",
	cBlockReads:  "blockserver.reads_per_op",
	cChunkWrites: "chunkserver.writes_per_op",
	cChunkReads:  "chunkserver.reads_per_op",
}

// layerCounts is a snapshot of the public counters the layers keep.
type layerCounts struct {
	n       [numCounters]uint64
	ssdUtil float64 // mean busy share over chunk servers, since construction
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	for i := range a.n {
		a.n[i] -= b.n[i]
	}
	return a
}

func (a *layerCounts) add(b layerCounts) {
	for i := range a.n {
		a.n[i] += b.n[i]
	}
	a.ssdUtil += b.ssdUtil
}

func fabricCounts(f *simnet.Fabric) layerCounts {
	var lc layerCounts
	for _, h := range f.Hosts() {
		lc.n[cPkts] += h.TxPackets()
	}
	for _, s := range f.Switches() {
		lc.n[cHops] += s.Forwarded()
	}
	lc.n[cDrops] = f.TotalDrops()
	lc.n[cCopies] = f.Pool().Copies()
	lc.n[cPoolMiss] = f.Pool().News()
	return lc
}
