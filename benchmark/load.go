package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/sim"
	"lunasolar/internal/trace"
)

const (
	blockSize = 4096
	// hangThreshold is the paper's Table 2 criterion: an I/O with no
	// response for one second (virtual) or longer has failed its user.
	hangThreshold = time.Second
)

// opKind is one entry of a stratified op deck.
type opKind struct {
	read bool
	size int
}

// sizeShare is one point of an I/O size mixture, as a count per stratum.
type sizeShare struct {
	size  int
	count int
}

// The Fig. 5 size mixture, per 1000 ops at 70 % reads: the read and write
// weights of internal/workload (0.38/0.13/0.24/0.09/0.12/0.04 and
// 0.42/0.16/0.22/0.08/0.09/0.03 over 4/8/16/32/64/128 KiB) multiplied out
// to whole counts. Copied here so an edit to internal/workload cannot
// change the benchmark's load.
var (
	fig5Reads = []sizeShare{
		{4 << 10, 266}, {8 << 10, 91}, {16 << 10, 168},
		{32 << 10, 63}, {64 << 10, 84}, {128 << 10, 28},
	}
	fig5Writes = []sizeShare{
		{4 << 10, 126}, {8 << 10, 48}, {16 << 10, 66},
		{32 << 10, 24}, {64 << 10, 27}, {128 << 10, 9},
	}
)

// buildDeck expands a mixture into one stratum of ops.
func buildDeck(reads, writes []sizeShare) []opKind {
	var deck []opKind
	for _, s := range reads {
		for i := 0; i < s.count; i++ {
			deck = append(deck, opKind{read: true, size: s.size})
		}
	}
	for _, s := range writes {
		for i := 0; i < s.count; i++ {
			deck = append(deck, opKind{size: s.size})
		}
	}
	return deck
}

// dealer deals ops from a deck that is reshuffled whenever it runs out.
// Every stratum therefore holds the exact mixture, and only the order
// (and the addresses) depend on the seed: bytes and blocks per op are
// the same for every seed, which keeps seed-to-seed spread of the
// per-op metrics far below their bounds.
type dealer struct {
	rng  *rand.Rand
	deck []opKind
	pos  int
}

func newDealer(rng *rand.Rand, deck []opKind) *dealer {
	return &dealer{rng: rng, deck: deck, pos: len(deck)}
}

func (d *dealer) next() opKind {
	if d.pos == len(d.deck) {
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
		d.pos = 0
	}
	k := d.deck[d.pos]
	d.pos++
	return k
}

// tmplBytes sizes the immutable random buffer every write payload is a
// window of. Payloads are never copied or mutated by the driver, so a
// frame still in flight after its op completed can never observe changed
// bytes.
const tmplBytes = 1 << 20

// loadConfig describes one closed-loop storage load.
type loadConfig struct {
	seed   int64
	depth  int           // outstanding ops per vdisk
	think  time.Duration // virtual think time between completion and next issue
	span   uint64        // bytes of each vdisk the load touches
	deck   []opKind
	verify bool // reads must return the bytes last written
	spans  bool // keep the per-op latency breakdown (traced runs)
}

// load is a closed-loop generator in virtual time: depth slots per vdisk,
// each issuing its next op when the previous one completes.
type load struct {
	c    *ebs.Cluster
	cfg  loadConfig
	rng  *rand.Rand
	deal *dealer
	tmpl []byte

	slots []*slot
	// Per vdisk, per 4 KiB block: whether an in-flight op covers it, and
	// the template offset of the bytes last written (-1: never written).
	busy   [][]bool
	expect [][]int32

	limit    int // total ops that may be issued
	issued   int
	counting bool // ops issued now belong to the measured phase

	res loadResult
}

// loadResult accumulates the measured phase's per-op outcomes.
type loadResult struct {
	ops       int // ops issued in the measured phase
	completed int // of those, completed without error under the hang threshold
	failed    int // errored, or took >= hangThreshold
	mismatch  int // reads that returned other bytes than last written
	lat       []uint32
	comp      [4][]uint32 // SA, FN, BN, SSD per op (traced runs only)
	opSpans   []opSpan    // issue -> completion per op (traced runs only)
	first     sim.Time    // when counting began
	last      sim.Time    // last counted completion
}

// opSpan is one op's issue-to-completion interval in virtual time.
type opSpan struct {
	start, end int64
}

type slot struct {
	l  *load
	vd int

	start   sim.Time
	blk     int // first block
	nblk    int
	off     int32 // template offset of a write's payload
	read    bool
	counted bool
	// parked: stopped at the issue limit, waiting for allow. inflight: an
	// op is outstanding (as opposed to a pending think timer).
	parked   bool
	inflight bool

	issueFn func()
	doneFn  func(ebs.IOResult)
}

func newLoad(c *ebs.Cluster, vds []*ebs.VDisk, cfg loadConfig) *load {
	rng := rand.New(rand.NewSource(cfg.seed*0x9e3779b1 + 17))
	l := &load{c: c, cfg: cfg, rng: rng, deal: newDealer(rng, cfg.deck)}
	l.tmpl = make([]byte, tmplBytes+128<<10)
	rng.Read(l.tmpl)
	blocks := int(cfg.span / blockSize)
	for vi := range vds {
		l.busy = append(l.busy, make([]bool, blocks))
		exp := make([]int32, blocks)
		for i := range exp {
			exp[i] = -1
		}
		l.expect = append(l.expect, exp)
		for d := 0; d < cfg.depth; d++ {
			s := &slot{l: l, vd: vi, parked: true}
			vd := vds[vi]
			s.issueFn = func() { s.issue(vd) }
			s.doneFn = func(r ebs.IOResult) { s.done(vd, r) }
			l.slots = append(l.slots, s)
		}
	}
	return l
}

// reserve sizes the result arrays for n measured ops, so the measured
// phase does not pay for their growth.
func (l *load) reserve(n int) {
	l.res.lat = make([]uint32, 0, n)
	if l.cfg.spans {
		for i := range l.res.comp {
			l.res.comp[i] = make([]uint32, 0, n)
		}
		l.res.opSpans = make([]opSpan, 0, n)
	}
}

// allow raises the issue limit by n ops and restarts every parked slot.
func (l *load) allow(n int) {
	l.limit += n
	for _, s := range l.slots {
		if s.parked {
			s.issueFn()
		}
	}
}

// beginCounting marks the start of the measured phase.
func (l *load) beginCounting() {
	l.counting = true
	l.res.first = l.c.Eng.Now()
	l.res.last = l.res.first
}

func (s *slot) issue(vd *ebs.VDisk) {
	l := s.l
	if l.issued >= l.limit {
		s.parked = true
		return
	}
	s.parked = false
	l.issued++
	k := l.deal.next()
	s.read = k.read
	s.nblk = k.size / blockSize
	blocks := len(l.busy[s.vd])
	for {
		s.blk = l.rng.Intn(blocks - s.nblk + 1)
		if !l.anyBusy(s.vd, s.blk, s.nblk) {
			break
		}
	}
	for i := 0; i < s.nblk; i++ {
		l.busy[s.vd][s.blk+i] = true
	}
	s.inflight = true
	s.counted = l.counting
	if s.counted {
		l.res.ops++
	}
	s.start = l.c.Eng.Now()
	lba := uint64(s.blk) * blockSize
	if k.read {
		vd.Read(lba, k.size, s.doneFn)
		return
	}
	s.off = int32(l.rng.Intn(tmplBytes/64)) * 64
	vd.Write(lba, l.tmpl[s.off:int(s.off)+k.size], s.doneFn)
}

func (l *load) anyBusy(vd, blk, n int) bool {
	for i := 0; i < n; i++ {
		if l.busy[vd][blk+i] {
			return true
		}
	}
	return false
}

func (s *slot) done(vd *ebs.VDisk, r ebs.IOResult) {
	l := s.l
	now := l.c.Eng.Now()
	s.inflight = false
	for i := 0; i < s.nblk; i++ {
		l.busy[s.vd][s.blk+i] = false
	}
	ok := r.Err == nil
	if s.read {
		if ok && l.cfg.verify && !l.verifyRead(s, r.Data) {
			l.res.mismatch++
			ok = false
		}
	} else {
		for i := 0; i < s.nblk; i++ {
			exp := int32(-1)
			if ok {
				exp = s.off + int32(i*blockSize)
			}
			l.expect[s.vd][s.blk+i] = exp
		}
	}
	if s.counted {
		if now.Sub(s.start) >= hangThreshold {
			ok = false
		}
		if ok {
			l.res.completed++
		} else {
			l.res.failed++
		}
		l.res.lat = append(l.res.lat, clampNs(r.Latency))
		l.res.last = now
		if l.cfg.spans {
			for ci, comp := range trace.Components {
				l.res.comp[ci] = append(l.res.comp[ci], clampNs(r.Span.Get(comp)))
			}
			l.res.opSpans = append(l.res.opSpans, opSpan{int64(s.start), int64(now)})
		}
	}
	if l.cfg.think > 0 {
		l.c.Eng.Schedule(l.cfg.think, s.issueFn)
		return
	}
	s.issueFn()
}

// verifyRead checks every block of a read against the bytes last written
// to it.
func (l *load) verifyRead(s *slot, data []byte) bool {
	if len(data) != s.nblk*blockSize {
		return false
	}
	for i := 0; i < s.nblk; i++ {
		exp := l.expect[s.vd][s.blk+i]
		if exp < 0 {
			continue // block in an unknown state after a failed write
		}
		if !bytes.Equal(data[i*blockSize:(i+1)*blockSize], l.tmpl[exp:int(exp)+blockSize]) {
			return false
		}
	}
	return true
}

// closeOpen classifies measured ops still outstanding: each counts with
// its age as latency, and as failed once it is older than the hang
// threshold. It returns how many were open, younger and older than that.
func (l *load) closeOpen() (young, hung int) {
	now := l.c.Eng.Now()
	for _, s := range l.slots {
		if !s.inflight || !s.counted {
			continue
		}
		age := now.Sub(s.start)
		l.res.lat = append(l.res.lat, clampNs(age))
		if age >= hangThreshold {
			l.res.failed++
			hung++
		} else {
			young++
		}
	}
	return young, hung
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// segmentBytes is the stripe unit of a vdisk across block servers
// (sa.SegmentBytes).
const segmentBytes = 2 << 20

// prime writes the first block of every segment of every vdisk, one at a
// time in address order. Connections, queue pairs and Solar paths are
// created on first use and take their port numbers in creation order;
// priming fixes that order, so which flows an ECMP hash or a blackhole
// picks does not depend on where the seeded load happens to go first.
func (l *load) prime(vds []*ebs.VDisk) error {
	return l.writeAll(vds, segmentBytes, blockSize, true)
}

// fill writes every block of every vdisk's span once, in 128 KiB writes,
// so that every later read hits written data.
func (l *load) fill(vds []*ebs.VDisk) error {
	const chunk = 128 << 10
	return l.writeAll(vds, chunk, chunk, false)
}

// writeAll writes size bytes at every stride of every vdisk's span,
// either one write at a time or a vdisk's writes at once, and records
// what it wrote for read verification.
func (l *load) writeAll(vds []*ebs.VDisk, stride uint64, size int, oneByOne bool) error {
	var firstErr error
	for vi, vd := range vds {
		for lba := uint64(0); lba < l.cfg.span; lba += stride {
			vi, blk := vi, int(lba/blockSize)
			off := int32(l.rng.Intn(tmplBytes/64)) * 64
			vd.Write(lba, l.tmpl[off:int(off)+size], func(r ebs.IOResult) {
				if r.Err != nil && firstErr == nil {
					firstErr = fmt.Errorf("set-up write at block %d: %w", blk, r.Err)
				}
				for i := 0; i < size/blockSize; i++ {
					l.expect[vi][blk+i] = off + int32(i*blockSize)
				}
			})
			if oneByOne {
				l.c.Run()
			}
		}
		l.c.Run()
	}
	return firstErr
}
