package workload

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"lunasolar/internal/sa"
	"lunasolar/internal/sim"
)

var errFake = errors.New("fake: I/O failed")

// fakeOp is how one I/O on a fakeDev behaves.
type fakeOp struct {
	lat   time.Duration // issue to completion
	fail  bool          // complete with an error
	hang  bool          // never complete
	apply bool          // a failed or hung write lands anyway
}

// version is one whole-block write as the fake saw it, for the stale fault.
type version struct {
	data          []byte
	issued, ended uint64 // fake clocks; ended is 0 while in flight
	acked         bool
}

// fakeDev is an in-memory device on an engine. Every I/O completes op.lat
// after issue; a write lands atomically at its completion, a read returns
// memory as it is at its completion. That is honest under the driver's
// rule: the write that landed last was never superseded. Its clock ticks
// where the driver's does, at every issue and every completion, so the
// stale fault can judge "superseded" exactly as the shadow must.
type fakeDev struct {
	eng     *sim.Engine
	op      fakeOp // the next I/O's behaviour; pickers set it
	clock   uint64
	mem     map[uint64][]byte // block number → its bytes
	vers    map[uint64][]*version
	partial map[uint64]bool // blocks a write only partly covered

	misdirect bool // writes land one block past their LBA
	stale     bool // a read returns a superseded version of one block
	staled    int  // reads the stale fault changed
}

func newFake(eng *sim.Engine) *fakeDev {
	return &fakeDev{eng: eng, op: fakeOp{lat: 10 * time.Microsecond},
		mem: map[uint64][]byte{}, vers: map[uint64][]*version{}, partial: map[uint64]bool{}}
}

func (f *fakeDev) at(addr uint64) *byte {
	b := f.mem[addr/BlockSize]
	if b == nil {
		b = make([]byte, BlockSize)
		f.mem[addr/BlockSize] = b
	}
	return &b[addr%BlockSize]
}

func (f *fakeDev) Write(lba uint64, data []byte, done func(sa.Result)) {
	f.clock++
	op, buf := f.op, bytes.Clone(data)
	var vs []*version
	first, end := blocks(lba, len(buf))
	for b := first; b < end; b++ {
		v := &version{data: buf[b*BlockSize-lba:][:BlockSize], issued: f.clock}
		f.vers[b] = append(f.vers[b], v)
		vs = append(vs, v)
	}
	if lba%BlockSize != 0 {
		f.partial[lba/BlockSize] = true
	}
	if end := lba + uint64(len(buf)); end%BlockSize != 0 {
		f.partial[end/BlockSize] = true
	}
	land := func() {
		to := lba
		if f.misdirect {
			to += BlockSize
		}
		for i, c := range buf {
			*f.at(to + uint64(i)) = c
		}
	}
	if op.hang {
		if op.apply {
			f.eng.Schedule(op.lat, land)
		}
		return
	}
	f.eng.Schedule(op.lat, func() {
		f.clock++
		if !op.fail || op.apply {
			land()
		}
		var res sa.Result
		if op.fail {
			res.Err = errFake
		}
		for _, v := range vs {
			v.ended, v.acked = f.clock, !op.fail
		}
		done(res)
	})
}

func (f *fakeDev) Read(lba uint64, size int, done func(sa.Result)) {
	f.clock++
	op := f.op
	staleBlk, staleData := f.superseded(lba, size, f.clock)
	if op.hang {
		return
	}
	f.eng.Schedule(op.lat, func() {
		f.clock++
		if op.fail {
			done(sa.Result{Err: errFake})
			return
		}
		out := make([]byte, size)
		for i := range out {
			out[i] = *f.at(lba + uint64(i))
		}
		if staleData != nil && !f.partial[staleBlk] {
			copy(out[staleBlk*BlockSize-lba:], staleData)
			f.staled++
		}
		done(sa.Result{Data: out})
	})
}

// superseded finds, with the stale fault on, the first whole block of a
// read issued at clock issued that has a version superseded by then, and
// that version (a written one before the zeros).
func (f *fakeDev) superseded(lba uint64, size int, issued uint64) (uint64, []byte) {
	if !f.stale {
		return 0, nil
	}
	first, end := blocks(lba, size)
	for b := first; b < end; b++ {
		if f.partial[b] {
			continue
		}
		acked := func(after uint64) bool { // a write issued after `after` acked before the read
			for _, w := range f.vers[b] {
				if w.acked && w.ended < issued && w.issued > after {
					return true
				}
			}
			return false
		}
		for _, v := range f.vers[b] {
			if v.ended != 0 && acked(v.ended) {
				return b, v.data
			}
		}
		if acked(0) {
			return b, make([]byte, BlockSize)
		}
	}
	return 0, nil
}

// step is one scripted I/O: gap after the previous issue, then the I/O.
type step struct {
	gap   time.Duration
	write bool
	lba   uint64
	size  int
	op    fakeOp
}

// runScript issues steps on an open loop against f as vdisk 7 and runs the
// engine dry.
func runScript(f *fakeDev, steps []step) *Driver {
	drv := NewDriver(f.eng)
	next := 1
	gap := func() time.Duration {
		if next == len(steps) {
			return 0
		}
		next++
		return steps[next-1].gap
	}
	if len(steps) > 0 {
		drv.Open(7, f, gap, func(_, n int) (bool, uint64, int, bool) {
			if n == len(steps) {
				return false, 0, 0, false
			}
			f.op = steps[n].op
			return steps[n].write, steps[n].lba, steps[n].size, true
		}, nil)
	}
	f.eng.Run()
	return drv
}

func failures(t *testing.T, eng *sim.Engine) (int, string) {
	t.Helper()
	n, err := eng.Failed()
	if err == nil {
		return n, ""
	}
	return n, err.Error()
}

// A closed loop keeps its depth; with zero think a slot reissues inside
// the completion, so each I/O costs the one completion event, and with a
// think time the slot's next I/O goes out think after the last completes.
func TestClosedLoopDepthAndThink(t *testing.T) {
	eng := sim.NewEngine(1)
	f := newFake(eng)
	inflight, most := 0, 0
	pick := func(slot, n int) (bool, uint64, int, bool) {
		inflight++
		most = max(most, inflight)
		return n%2 == 0, uint64(slot) * BlockSize, BlockSize, n < 30
	}
	NewDriver(eng).Closed(1, f, 3, 0, pick, func(*IO) { inflight-- })
	eng.Run()
	if most != 3 || eng.Processed() != 30 {
		t.Fatalf("zero think: depth %d, %d events for 30 I/Os; want 3 and 30", most, eng.Processed())
	}

	eng = sim.NewEngine(1)
	f = newFake(eng)
	var issued []time.Duration
	s := NewDriver(eng).Closed(1, f, 1, 5*time.Microsecond, func(_, n int) (bool, uint64, int, bool) {
		issued = append(issued, eng.Now().Duration())
		return true, 0, BlockSize, n < 3
	}, nil)
	eng.Run()
	// Issued at 0, 15 and 30 µs; the fourth ask, at 45 µs, ends the slot.
	want := []time.Duration{0, 15 * time.Microsecond, 30 * time.Microsecond, 45 * time.Microsecond}
	if s.Issued != 3 || s.Completed != 3 || len(issued) != 4 || issued[1] != want[1] || issued[3] != want[3] {
		t.Fatalf("think 5µs: issued %d, completed %d, asked at %v; want 3, 3, %v", s.Issued, s.Completed, issued, want)
	}
	if eng.Processed() != 6 {
		t.Fatalf("think 5µs: %d events, want 3 completions and 3 think waits", eng.Processed())
	}
}

// An open loop issues at once and then gap() after each issue, and the
// picker ends it.
func TestOpenLoopGapsAndEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	f := newFake(eng)
	gaps := []time.Duration{time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond, 4 * time.Microsecond}
	var issued []time.Duration
	g := 0
	s := NewDriver(eng).Open(1, f, func() time.Duration { g++; return gaps[g-1] },
		func(_, n int) (bool, uint64, int, bool) {
			if n == 4 {
				return false, 0, 0, false
			}
			issued = append(issued, eng.Now().Duration())
			return false, uint64(n) * BlockSize, BlockSize, true
		}, nil)
	eng.Run()
	want := []time.Duration{0, time.Microsecond, 3 * time.Microsecond, 6 * time.Microsecond}
	if s.Issued != 4 || s.Completed != 4 || g != 4 || len(issued) != 4 || issued[3] != want[3] || issued[2] != want[2] {
		t.Fatalf("issued %d at %v after %d gaps; want 4 at %v", s.Issued, issued, g, want)
	}
}

// The hang tally counts an I/O issued at t = 0 that never answers, and one
// that answers HangThreshold late.
func TestHangTallyCountsIOIssuedAtZero(t *testing.T) {
	eng := sim.NewEngine(1)
	f := newFake(eng)
	f.op.hang = true
	drv := NewDriver(eng)
	drv.Closed(1, f, 1, 0, func(_, n int) (bool, uint64, int, bool) { return true, 0, BlockSize, n == 0 }, nil)
	eng.RunFor(HangThreshold - time.Microsecond)
	if n := drv.Hangs(); n != 0 {
		t.Fatalf("hangs before the threshold = %d", n)
	}
	eng.RunFor(time.Microsecond)
	if n := drv.Hangs(); n != 1 {
		t.Fatalf("hangs at the threshold = %d, want the I/O issued at t=0", n)
	}
	f.op = fakeOp{lat: HangThreshold}
	drv.Closed(1, f, 1, 0, func(_, n int) (bool, uint64, int, bool) { return false, 0, BlockSize, n == 0 }, nil)
	eng.Run()
	if n := drv.Hangs(); n != 2 {
		t.Fatalf("hangs = %d, want the stuck write and the late read", n)
	}
}

// A block that lands at the wrong LBA, and a block a later acked write
// superseded, each fail the read check, naming the vdisk and the LBA.
func TestReadCheckFlagsWrongBlocks(t *testing.T) {
	const us = time.Microsecond
	ok := fakeOp{lat: 10 * us}
	for _, tc := range []struct {
		name      string
		misdirect bool
		stale     bool
		steps     []step
		want      string
	}{
		{"misdirected", true, false, []step{
			{0, true, 0, BlockSize, ok},
			{20 * us, false, BlockSize, BlockSize, ok},
		}, "read check: vdisk 7 lba 0x1000: read write 1 of vdisk 7 lba 0x0"},
		{"superseded", false, true, []step{
			{0, true, 0, 2 * BlockSize, ok},
			{20 * us, true, BlockSize, BlockSize, ok},
			{20 * us, false, BlockSize, BlockSize, ok},
		}, "read check: vdisk 7 lba 0x1000: read write 1, superseded before the read was issued"},
		{"zeros after an ack", false, true, []step{
			{0, true, 0, BlockSize, ok},
			{20 * us, false, 0, BlockSize, ok},
		}, "read check: vdisk 7 lba 0x0: read zeros, but a write had acked before the read was issued"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake(sim.NewEngine(1))
			f.misdirect, f.stale = tc.misdirect, tc.stale
			runScript(f, tc.steps)
			if n, err := failures(t, f.eng); n != 1 || err != tc.want {
				t.Fatalf("%d failures, first %q; want 1, %q", n, err, tc.want)
			}
		})
	}
}

// Overlapping writes, failed writes and hung writes stay valid: a read may
// return any of them until a write issued after they ended acks.
func TestOverlappingAndFailedWritesStayValid(t *testing.T) {
	const us = time.Microsecond
	read := step{gap: 50 * us, lba: 0, size: BlockSize, op: fakeOp{lat: us}}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		// w1 acks after w2, so w1 lands last; w2 was issued while w1 was
		// in flight and does not supersede it.
		{"overlap", []step{
			{0, true, 0, BlockSize, fakeOp{lat: 20 * us}},
			{us, true, 0, BlockSize, fakeOp{lat: 5 * us}},
			read,
		}},
		{"failed write landed", []step{
			{0, true, 0, BlockSize, fakeOp{lat: us}},
			{10 * us, true, 0, BlockSize, fakeOp{lat: us, fail: true, apply: true}},
			read,
		}},
		{"failed write lost", []step{
			{0, true, 0, BlockSize, fakeOp{lat: us}},
			{10 * us, true, 0, BlockSize, fakeOp{lat: us, fail: true}},
			read,
		}},
		{"hung write landed", []step{
			{0, true, 0, BlockSize, fakeOp{lat: us, hang: true, apply: true}},
			{10 * us, true, 0, BlockSize, fakeOp{lat: 20 * us}},
			read,
		}},
		{"unaligned writes", []step{
			{0, true, 0, 2 * BlockSize, fakeOp{lat: us}},
			{10 * us, true, 100, BlockSize, fakeOp{lat: us}},
			{50 * us, false, 0, 2 * BlockSize, fakeOp{lat: us}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake(sim.NewEngine(1))
			runScript(f, tc.steps)
			if n, err := failures(t, f.eng); n != 0 {
				t.Fatalf("%d failures, first %q", n, err)
			}
		})
	}
}

// countDev completes every I/O 1 µs after issue and allocates nothing: the
// done callbacks wait on a stack that stops growing at the stream's depth.
type countDev struct {
	eng   *sim.Engine
	dones []func(sa.Result)
	fire  func()
}

func (c *countDev) Write(_ uint64, _ []byte, done func(sa.Result)) {
	c.dones = append(c.dones, done)
	c.eng.Schedule(time.Microsecond, c.fire)
}

func (c *countDev) Read(uint64, int, func(sa.Result)) { panic("countDev: read") }

func (c *countDev) complete() {
	done := c.dones[len(c.dones)-1]
	c.dones = c.dones[:len(c.dones)-1]
	done(sa.Result{})
}

// A write I/O costs the driver no allocation in steady state: slot
// buffers, records and shadow entries are reused, and the per-write
// end-clock table grows by doubling, far less than once per I/O.
func TestDriverWriteAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := &countDev{eng: eng}
	dev.fire = dev.complete
	NewDriver(eng).Closed(1, dev, 4, 0, func(slot, _ int) (bool, uint64, int, bool) {
		return true, uint64(slot) * 2 * BlockSize, 2 * BlockSize, true
	}, nil)
	eng.RunFor(time.Millisecond) // warm every pool and map
	if a := testing.AllocsPerRun(1000, func() { eng.Step() }); a != 0 {
		t.Fatalf("%.2f allocations per write I/O, want 0", a)
	}
}

// decodeSteps turns fuzz bytes into a schedule, four bytes a step, over
// eight blocks so that I/Os overlap: op and fault, LBA (maybe unaligned),
// size in blocks (maybe short of a block), and gap and latency.
func decodeSteps(data []byte) []step {
	var steps []step
	for ; len(data) >= 4 && len(steps) < 64; data = data[4:] {
		s := step{
			gap:   time.Duration(data[3]&0x0f) * time.Microsecond,
			write: data[0]&1 == 1,
			lba:   uint64(data[1]&7) * BlockSize,
			size:  int(1+data[2]%4) * BlockSize,
			op: fakeOp{
				lat:   time.Duration(1+3*int(data[3]>>4)) * time.Microsecond,
				fail:  data[0]>>1&3 == 1,
				hang:  data[0]>>1&3 == 2,
				apply: data[0]&8 != 0,
			},
		}
		if data[1]&0x80 != 0 {
			s.lba += uint64(data[1]>>3&0xf) * 256
		}
		if data[2]&0x80 != 0 {
			s.size -= 512
		}
		steps = append(steps, s)
	}
	return steps
}

// FuzzDriverShadow runs a decoded schedule of reads, writes, failures and
// hangs twice: on an honest fake the read check never trips, and on a fake
// that returns a superseded block where one exists it trips on exactly
// those reads.
func FuzzDriverShadow(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0x10, 1, 0, 0, 0x21, 0, 0, 1, 0x05, 0, 1, 0, 0x13})
	f.Add([]byte{1, 0, 0, 0x30, 3, 0, 0, 0x01, 0, 0, 0, 0x1f, 1, 0, 0, 0x02, 0, 0, 3, 0x15})
	f.Add([]byte{5, 2, 1, 0x40, 13, 2, 0, 0x01, 1, 2, 0, 0x08, 0, 2, 0, 0x0f, 1, 0x8a, 0x81, 0x02, 0, 0, 3, 0x0f})
	rnd := sim.NewRand(3)
	for n := 0; n < 8; n++ {
		data := make([]byte, 4*(8+rnd.Intn(40)))
		rnd.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := decodeSteps(data)
		honest := newFake(sim.NewEngine(1))
		runScript(honest, steps)
		if n, err := failures(t, honest.eng); n != 0 {
			t.Fatalf("honest fake: %d failures, first %q", n, err)
		}
		stale := newFake(sim.NewEngine(1))
		stale.stale = true
		runScript(stale, steps)
		n, err := failures(t, stale.eng)
		if n != stale.staled {
			t.Fatalf("stale fake: %d failures for %d superseded blocks returned; first %q", n, stale.staled, err)
		}
		if n > 0 && !strings.Contains(err, "read check: vdisk 7 lba ") {
			t.Fatalf("failure %q does not name the vdisk and LBA", err)
		}
	})
}
