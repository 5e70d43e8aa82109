package sa

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"weak"

	"lunasolar/internal/sim"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// fakeFN is an in-process transport that records calls and replies after a
// configurable delay with trace annotations.
type fakeFN struct {
	eng   *sim.Engine
	delay time.Duration
	calls []*transport.Message
	store map[uint64][]byte
}

func (f *fakeFN) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	cp := *req
	f.calls = append(f.calls, &cp)
	f.eng.Schedule(f.delay, func() {
		resp := &transport.Response{
			ServerWall: 30 * time.Microsecond,
			SSDTime:    12 * time.Microsecond,
		}
		if req.Op == wire.RPCReadReq {
			resp.Data = make([]byte, req.ReadLen)
			if b, ok := f.store[req.LBA]; ok {
				copy(resp.Data, b)
			}
		} else if f.store != nil {
			f.store[req.LBA] = append([]byte(nil), req.Data...)
		}
		done(resp)
	})
}

func newAgent(t *testing.T, params Params) (*sim.Engine, *Agent, *fakeFN, *SegmentTable) {
	t.Helper()
	eng := sim.NewEngine(3)
	fn := &fakeFN{eng: eng, delay: 50 * time.Microsecond, store: map[uint64][]byte{}}
	segs := NewSegmentTable()
	if err := segs.Provision(1, 64<<20, []uint32{0xA1, 0xA2, 0xA3}); err != nil {
		t.Fatal(err)
	}
	cores := sim.NewServer(eng, "cpu", 4)
	a := New(eng, cores, fn, segs, params)
	return eng, a, fn, segs
}

func TestSegmentTableProvisionLookup(t *testing.T) {
	st := NewSegmentTable()
	if err := st.Provision(7, 10<<20, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// 10 MiB → 5 segments striped round-robin.
	servers := map[uint32]bool{}
	var ids []uint64
	for lba := uint64(0); lba < 10<<20; lba += SegmentBytes {
		ref, ok := st.Lookup(7, lba)
		if !ok {
			t.Fatalf("lookup failed at %#x", lba)
		}
		servers[ref.Server] = true
		ids = append(ids, ref.SegmentID)
	}
	if len(servers) != 3 {
		t.Fatalf("striping used %d servers", len(servers))
	}
	seen := map[uint64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("segment IDs not unique")
		}
		seen[id] = true
	}
	if _, ok := st.Lookup(7, 10<<20); ok {
		t.Fatal("lookup past the end succeeded")
	}
	if _, ok := st.Lookup(99, 0); ok {
		t.Fatal("unknown disk lookup succeeded")
	}
	if err := st.Provision(7, 1<<20, []uint32{1}); err == nil {
		t.Fatal("double provision allowed")
	}
}

func TestWriteSingleSegment(t *testing.T) {
	eng, a, fn, _ := newAgent(t, SoftwareParams())
	var res Result
	a.Write(1, 0x1000, make([]byte, 8192), func(r Result) { res = r })
	eng.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(fn.calls) != 1 {
		t.Fatalf("calls = %d, want 1 (no split)", len(fn.calls))
	}
	if fn.calls[0].SegmentID == 0 {
		t.Fatal("segment not resolved")
	}
	// Trace components all populated.
	if res.Span.Get(trace.SA) <= 0 || res.Span.Get(trace.FN) <= 0 ||
		res.Span.Get(trace.BN) <= 0 || res.Span.Get(trace.SSD) <= 0 {
		t.Fatalf("span incomplete: %v %v %v %v",
			res.Span.Get(trace.SA), res.Span.Get(trace.FN), res.Span.Get(trace.BN), res.Span.Get(trace.SSD))
	}
	// FN = wall - ServerWall; BN = 30-12=18µs; SSD = 12µs.
	if res.Span.Get(trace.BN) != 18*time.Microsecond || res.Span.Get(trace.SSD) != 12*time.Microsecond {
		t.Fatalf("BN/SSD attribution wrong: %v/%v", res.Span.Get(trace.BN), res.Span.Get(trace.SSD))
	}
}

func TestCrossSegmentSplit(t *testing.T) {
	eng, a, fn, _ := newAgent(t, SoftwareParams())
	lba := uint64(SegmentBytes) - 4096
	done := false
	a.Write(1, lba, make([]byte, 12288), func(r Result) { done = r.Err == nil })
	eng.Run()
	if !done {
		t.Fatal("split write failed")
	}
	if len(fn.calls) != 2 {
		t.Fatalf("calls = %d, want 2", len(fn.calls))
	}
	if fn.calls[0].SegmentID == fn.calls[1].SegmentID {
		t.Fatal("split pieces share a segment")
	}
	if len(fn.calls[0].Data)+len(fn.calls[1].Data) != 12288 {
		t.Fatal("split lost bytes")
	}
	if a.Splits != 1 {
		t.Fatalf("Splits = %d", a.Splits)
	}
}

func TestReadReassemblesSplit(t *testing.T) {
	eng, a, fn, _ := newAgent(t, SoftwareParams())
	lba := uint64(SegmentBytes) - 8192
	data := make([]byte, 16384)
	for i := range data {
		data[i] = byte(i * 7)
	}
	a.Write(1, lba, data, nil)
	eng.Run()
	var got []byte
	a.Read(1, lba, len(data), func(r Result) { got = r.Data })
	eng.Run()
	if len(got) != len(data) {
		t.Fatalf("read %d bytes", len(got))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	_ = fn
}

func TestUnprovisionedErrors(t *testing.T) {
	eng, a, _, _ := newAgent(t, SoftwareParams())
	var res Result
	a.Read(1, 1<<30, 4096, func(r Result) { res = r })
	eng.Run()
	if res.Err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	a.Write(42, 0, make([]byte, 4096), func(r Result) { res = r })
	eng.Run()
	if res.Err == nil {
		t.Fatal("unknown-disk write succeeded")
	}
}

// TestEmptyOrNegativeIOFailsAtOnce: guest I/Os with no bytes used to reach
// issue with zero pieces and never complete (a nil write was even sent as
// a read), and a negative read size panicked in make.
func TestEmptyOrNegativeIOFailsAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   string
		io   func(a *Agent, done func(Result))
	}{
		{"write-empty", "write", func(a *Agent, done func(Result)) { a.Write(1, 0x1000, []byte{}, done) }},
		{"write-nil", "write", func(a *Agent, done func(Result)) { a.Write(1, 0x1000, nil, done) }},
		{"read-zero", "read", func(a *Agent, done func(Result)) { a.Read(1, 0x1000, 0, done) }},
		{"read-negative", "read", func(a *Agent, done func(Result)) { a.Read(1, 0x1000, -4096, done) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, params := range []Params{SoftwareParams(), OffloadedParams()} {
				eng, a, fn, _ := newAgent(t, params)
				fired := 0
				var res Result
				tc.io(a, func(r Result) { fired++; res = r })
				eng.Run()
				if fired != 1 || res.Err == nil {
					t.Fatalf("offloaded=%v: done fired %d times, err = %v", params.Offloaded, fired, res.Err)
				}
				if res.Span.Op != tc.op {
					t.Fatalf("offloaded=%v: span = %+v, want op %q", params.Offloaded, res.Span, tc.op)
				}
				if a.IOs != 0 || len(fn.calls) != 0 || a.QoSDelay != 0 {
					t.Fatalf("offloaded=%v: rejected I/O was admitted: IOs=%d calls=%d QoSDelay=%v",
						params.Offloaded, a.IOs, len(fn.calls), a.QoSDelay)
				}
			}
		})
	}
}

func TestQoSPacing(t *testing.T) {
	eng, a, _, _ := newAgent(t, OffloadedParams())
	a.SetQoS(1, QoSSpec{IOPS: 1000, BandwidthBps: 1e9, BurstWindow: time.Millisecond})
	done := 0
	for i := 0; i < 50; i++ {
		a.Write(1, uint64(i)<<12, make([]byte, 4096), func(Result) { done++ })
	}
	eng.Run()
	if done != 50 {
		t.Fatalf("done %d/50", done)
	}
	// 50 I/Os at 1000 IOPS with 1ms burst → ≥ ~45ms.
	if eng.Now().Duration() < 40*time.Millisecond {
		t.Fatalf("finished in %v; pacing absent", eng.Now().Duration())
	}
	if a.QoSDelay == 0 {
		t.Fatal("no QoS delay accounted")
	}
}

func TestOffloadedSATiny(t *testing.T) {
	eng, a, _, _ := newAgent(t, OffloadedParams())
	var soft Result
	a.Write(1, 0, make([]byte, 4096), func(r Result) { soft = r })
	eng.Run()
	if sa := soft.Span.Get(trace.SA); sa > 5*time.Microsecond {
		t.Fatalf("offloaded SA = %v, want ~1.2µs", sa)
	}

	eng2, a2, _, _ := newAgent(t, SoftwareParams())
	var sw Result
	a2.Write(1, 0, make([]byte, 4096), func(r Result) { sw = r })
	eng2.Run()
	if sw.Span.Get(trace.SA) < 4*soft.Span.Get(trace.SA) {
		t.Fatalf("software SA %v not ≫ offloaded %v", sw.Span.Get(trace.SA), soft.Span.Get(trace.SA))
	}
}

func TestSegmentTableProvisionZeroSize(t *testing.T) {
	st := NewSegmentTable()
	if err := st.Provision(5, 0, []uint32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup(5, 0); ok {
		t.Fatal("segmentless disk lookup succeeded")
	}
	if st.Size(5) != 0 {
		t.Fatalf("Size = %d, want 0", st.Size(5))
	}
}

func TestSegmentTableRemap(t *testing.T) {
	st := NewSegmentTable()
	if err := st.Provision(3, 4<<20, []uint32{10, 11}); err != nil {
		t.Fatal(err)
	}
	if err := st.Remap(3, 1, 99); err != nil {
		t.Fatal(err)
	}
	ref, ok := st.Lookup(3, SegmentBytes)
	if !ok || ref.Server != 99 {
		t.Fatalf("remapped lookup = %+v ok=%v", ref, ok)
	}
	if err := st.Remap(3, 5, 99); err == nil {
		t.Fatal("out-of-range remap allowed")
	}
	if err := st.Remap(77, 0, 99); err == nil {
		t.Fatal("unknown-disk remap allowed")
	}
}

// Tenant buckets pace the aggregate of all disks bound to the tenant,
// above any per-disk pacing.
func TestTenantPacingAggregate(t *testing.T) {
	eng, a, _, segs := newAgent(t, OffloadedParams())
	if err := segs.Provision(2, 64<<20, []uint32{0xA1, 0xA2, 0xA3}); err != nil {
		t.Fatal(err)
	}
	a.SetTenant(1, "acme")
	a.SetTenant(2, "acme")
	a.SetTenantQoS("acme", QoSSpec{IOPS: 1000, BurstWindow: time.Millisecond})
	done := 0
	for i := 0; i < 50; i++ {
		a.Write(uint32(1+i%2), uint64(i)<<12, make([]byte, 4096), func(Result) { done++ })
	}
	eng.Run()
	if done != 50 {
		t.Fatalf("done %d/50", done)
	}
	// 50 I/Os across two disks sharing a 1000 IOPS tenant cap → ≥ ~45ms.
	if eng.Now().Duration() < 40*time.Millisecond {
		t.Fatalf("finished in %v; tenant pacing absent", eng.Now().Duration())
	}
	if a.TenantDelay == 0 {
		t.Fatal("no tenant delay accounted")
	}
}

// TestPacerEdgeRates: a rate so small that one I/O's step overflows a
// Duration holds the I/O instead of wrapping to a slot in the past that
// admits it at once, and a rate <= 0 leaves its dimension uncapped, for a
// disk and a tenant alike. A tenant row installs a cap that would hold the
// I/Os first and then the row's spec: an update to rate <= 0 uncaps.
func TestPacerEdgeRates(t *testing.T) {
	hold := QoSSpec{IOPS: 1e-3, BandwidthBps: 1e-3}
	for _, tc := range []struct {
		name         string
		disk, tenant *QoSSpec
		size         int
		uncapped     bool
	}{
		{"disk IOPS 1e-18 holds", &QoSSpec{IOPS: 1e-18}, nil, 4096, false},
		{"disk bandwidth 1e-9 holds", &QoSSpec{BandwidthBps: 1e-9}, nil, 4096, false},
		{"tenant IOPS 1e-18 holds", nil, &QoSSpec{IOPS: 1e-18}, 4096, false},
		{"tenant bandwidth 1e-9 holds an I/O above its burst", nil, &QoSSpec{BandwidthBps: 1e-9}, 5 << 20, false},
		{"disk rates 0 uncapped", &QoSSpec{}, nil, 4096, true},
		{"disk rates < 0 uncapped", &QoSSpec{IOPS: -1, BandwidthBps: -1}, nil, 4096, true},
		{"tenant rates 0 uncapped", nil, &QoSSpec{}, 4096, true},
		{"tenant rates < 0 uncapped", nil, &QoSSpec{IOPS: -1, BandwidthBps: -1}, 4096, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, a, _, _ := newAgent(t, OffloadedParams())
			if tc.disk != nil {
				a.SetQoS(1, *tc.disk)
			}
			if tc.tenant != nil {
				a.SetTenant(1, "acme")
				a.SetTenantQoS("acme", hold)
				a.SetTenantQoS("acme", *tc.tenant)
			}
			const ios = 4
			done := 0
			for i := 0; i < ios; i++ {
				a.Write(1, uint64(i)*(8<<20), make([]byte, tc.size), func(Result) { done++ })
			}
			eng.RunUntil(sim.Time(time.Second))
			switch {
			case tc.uncapped && done != ios:
				t.Fatalf("%d of %d I/Os done within 1 s, want all", done, ios)
			case !tc.uncapped && done > 1:
				t.Fatalf("%d of %d I/Os done within 1 s, want at most one", done, ios)
			}
		})
	}
}

// migratingFN rejects one server's requests with ErrNotOwner, modelling a
// block server that released the segment mid-flight.
type migratingFN struct {
	eng    *sim.Engine
	reject uint32
	calls  []uint32
}

func (f *migratingFN) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	f.calls = append(f.calls, dst)
	f.eng.Schedule(50*time.Microsecond, func() {
		if dst == f.reject {
			done(&transport.Response{Err: fmt.Errorf("released: %w", transport.ErrNotOwner)})
			return
		}
		done(&transport.Response{ServerWall: 30 * time.Microsecond, SSDTime: 12 * time.Microsecond})
	})
}

// A not-owner rejection that races a cutover retries against the fresh
// segment-table entry and succeeds.
func TestNotOwnerRetryAfterRemap(t *testing.T) {
	eng := sim.NewEngine(3)
	fn := &migratingFN{eng: eng, reject: 0xA1}
	segs := NewSegmentTable()
	if err := segs.Provision(1, 4<<20, []uint32{0xA1}); err != nil {
		t.Fatal(err)
	}
	a := New(eng, sim.NewServer(eng, "cpu", 4), fn, segs, OffloadedParams())
	var res Result
	a.Write(1, 0, make([]byte, 4096), func(r Result) { res = r })
	// Cut the segment over while the first RPC is in flight.
	eng.Schedule(10*time.Microsecond, func() {
		if err := segs.Remap(1, 0, 0xB1); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if a.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", a.Retries)
	}
	if len(fn.calls) != 2 || fn.calls[0] != 0xA1 || fn.calls[1] != 0xB1 {
		t.Fatalf("calls = %x, want [a1 b1]", fn.calls)
	}
}

// Without a table change the rejection surfaces instead of looping.
func TestNotOwnerWithoutRemapSurfaces(t *testing.T) {
	eng := sim.NewEngine(3)
	fn := &migratingFN{eng: eng, reject: 0xA1}
	segs := NewSegmentTable()
	if err := segs.Provision(1, 4<<20, []uint32{0xA1}); err != nil {
		t.Fatal(err)
	}
	a := New(eng, sim.NewServer(eng, "cpu", 4), fn, segs, OffloadedParams())
	var res Result
	a.Write(1, 0, make([]byte, 4096), func(r Result) { res = r })
	eng.Run()
	if !errors.Is(res.Err, transport.ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", res.Err)
	}
	if a.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", a.Retries)
	}
}

// Property: splitting covers the range exactly, never crosses a segment
// boundary, and pieces are contiguous.
func TestSplitProperty(t *testing.T) {
	eng := sim.NewEngine(4)
	segs := NewSegmentTable()
	if err := segs.Provision(1, 64<<20, []uint32{1, 2}); err != nil {
		t.Fatal(err)
	}
	a := New(eng, sim.NewServer(eng, "cpu", 1), &fakeFN{eng: eng}, segs, OffloadedParams())
	f := func(lbaRaw uint32, sizeRaw uint16) bool {
		lba := uint64(lbaRaw) % (63 << 20)
		lba &^= 4095
		size := int(sizeRaw)%(256<<10) + 1
		if lba+uint64(size) > 64<<20 {
			return true
		}
		r := &ioReq{a: a, vdisk: 1, size: size}
		r.split(segs.disks[1], lba)
		if r.remaining != 1+len(r.more) {
			return false
		}
		covered := 0
		next := lba
		for _, p := range append([]*piece{&r.first}, r.more...) {
			if p.msg.LBA != next || p.off != covered {
				return false
			}
			if p.msg.LBA/SegmentBytes != (p.msg.LBA+uint64(p.n)-1)/SegmentBytes {
				return false // piece crosses a segment boundary
			}
			covered += p.n
			next += uint64(p.n)
		}
		return covered == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// syncFN answers every call at once from one preallocated response, so an
// I/O's only allocations are the agent's own.
type syncFN struct {
	resp  transport.Response
	calls int
}

func (f *syncFN) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	f.calls++
	done(&f.resp)
}

func newSyncAgent(t *testing.T, params Params) (*sim.Engine, *Agent, *syncFN) {
	t.Helper()
	eng := sim.NewEngine(3)
	fn := &syncFN{resp: transport.Response{ServerWall: 30 * time.Microsecond, SSDTime: 12 * time.Microsecond}}
	segs := NewSegmentTable()
	if err := segs.Provision(1, 64<<20, []uint32{0xA1}); err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, sim.NewServer(eng, "cpu", 4), fn, segs, params), fn
}

// TestIOAllocs gates the request path's allocations: none. The record and
// its pieces are pooled, their callbacks bound once per record, and a
// piece's CRC list keeps its array. A one-piece read allocates no buffer:
// the guest gets the response's.
func TestIOAllocs(t *testing.T) {
	done := func(Result) {}
	for _, tc := range []struct {
		name   string
		params Params
		size   int
		read   bool
		max    float64
	}{
		{"write-4k-offloaded", OffloadedParams(), 4 << 10, false, 0},
		{"write-64k-software", SoftwareParams(), 64 << 10, false, 0},
		{"read-4k-software", SoftwareParams(), 4 << 10, true, 0},
		{"write-32k-offloaded", OffloadedParams(), 32 << 10, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, a, fn := newSyncAgent(t, tc.params)
			payload := make([]byte, tc.size)
			fn.resp.Data = nil
			if tc.read {
				fn.resp.Data = payload
			}
			n := 0
			got := testing.AllocsPerRun(200, func() {
				n++
				lba := uint64(n%64) * uint64(tc.size)
				if tc.read {
					a.Read(1, lba, tc.size, done)
				} else {
					a.Write(1, lba, payload, done)
				}
				eng.Run()
			})
			if got > tc.max {
				t.Fatalf("%.1f allocs per I/O, want <= %.0f", got, tc.max)
			}
			if fn.calls != n {
				t.Fatalf("FN saw %d calls for %d I/Os", fn.calls, n)
			}
		})
	}
}

// TestRecycledRecordStartsClean: an I/O on a recycled record attributes
// only its own response's times; the larger server wall and SSD times of
// the I/O that used the record before must not carry over.
func TestRecycledRecordStartsClean(t *testing.T) {
	eng, a, fn := newSyncAgent(t, OffloadedParams())
	var res Result
	a.Write(1, 0, make([]byte, 4096), func(r Result) { res = r })
	eng.Run()
	fn.resp.ServerWall, fn.resp.SSDTime = 10*time.Microsecond, 4*time.Microsecond
	a.Write(1, 0, make([]byte, 4096), func(r Result) { res = r })
	eng.Run()
	if a.reqs.Misses() != 1 {
		t.Fatalf("%d record misses for two sequential I/Os, want 1", a.reqs.Misses())
	}
	if bn, ssd := res.Span.Get(trace.BN), res.Span.Get(trace.SSD); bn != 6*time.Microsecond || ssd != 4*time.Microsecond {
		t.Fatalf("second I/O's BN/SSD = %v/%v, want 6µs/4µs", bn, ssd)
	}
}

// TestFinishedIOPinsNothing: once a segment-crossing write has completed,
// the agent's pooled record and pieces no longer reach the guest's payload
// or callback, so both can be collected.
func TestFinishedIOPinsNothing(t *testing.T) {
	eng, a, _ := newSyncAgent(t, OffloadedParams())
	payload, captured := writeWatched(a)
	eng.Run()
	runtime.GC()
	if payload.Value() != nil || captured.Value() != nil {
		t.Fatalf("a finished I/O is still reachable: payload %v, callback %v",
			payload.Value() != nil, captured.Value() != nil)
	}
	runtime.KeepAlive(a) // and with it, its pools
}

// writeWatched issues a segment-crossing write and returns weak pointers to
// its payload and to a value only its callback holds (64 bytes: the tiny
// allocator would share a smaller one's block with unrelated values).
func writeWatched(a *Agent) (weak.Pointer[byte], weak.Pointer[[64]byte]) {
	data, seen := make([]byte, 8192), new([64]byte)
	a.Write(1, SegmentBytes-4096, data, func(Result) { seen[0]++ })
	return weak.Make(&data[0]), weak.Make(seen)
}

// TestResultOutlivesLaterIO: a Result may be kept after done returns — its
// Span, Latency and read Data must not be touched by later I/Os, which
// reuse the recycled per-I/O record. This is why Result carries its Span
// by value.
func TestResultOutlivesLaterIO(t *testing.T) {
	eng, a, _, _ := newAgent(t, SoftwareParams())
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i * 13)
	}
	var wres, rres Result
	a.Write(1, 0x2000, data, func(r Result) { wres = r })
	eng.Run()
	a.Read(1, 0x2000, len(data), func(r Result) { rres = r })
	eng.Run()
	if wres.Err != nil || rres.Err != nil {
		t.Fatalf("errs: %v %v", wres.Err, rres.Err)
	}
	wspan, rspan := wres.Span, rres.Span
	for i := 0; i < 1000; i++ {
		lba := uint64(0x100000 + i<<12)
		a.Write(1, lba, make([]byte, 4096), nil)
		a.Read(1, lba, 4096, nil)
		eng.Run()
	}
	if wres.Span != wspan || rres.Span != rspan {
		t.Fatal("a kept Span changed under later I/Os")
	}
	if wres.Latency != wspan.Total() || rres.Latency != rspan.Total() || wres.Latency <= 0 || rres.Latency <= 0 {
		t.Fatalf("Latency %v/%v, Span totals %v/%v", wres.Latency, rres.Latency, wspan.Total(), rspan.Total())
	}
	if !bytes.Equal(rres.Data, data) {
		t.Fatal("kept read Data changed under later I/Os")
	}
}

// flippingFN rejects every request as not-owner and moves the segment to
// the other of two servers each time, so the table always has somewhere
// new to chase.
type flippingFN struct {
	segs  *SegmentTable
	calls []uint32
}

func (f *flippingFN) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	f.calls = append(f.calls, dst)
	if err := f.segs.Remap(req.VDisk, int(req.LBA/SegmentBytes), dst^1); err != nil {
		panic(err)
	}
	done(&transport.Response{Err: fmt.Errorf("released: %w", transport.ErrNotOwner)})
}

// TestNotOwnerChaseIsBounded: under endless churn a piece is sent once plus
// notOwnerRetries times, then the rejection surfaces, once.
func TestNotOwnerChaseIsBounded(t *testing.T) {
	eng := sim.NewEngine(3)
	segs := NewSegmentTable()
	if err := segs.Provision(1, 4<<20, []uint32{0xA0}); err != nil {
		t.Fatal(err)
	}
	fn := &flippingFN{segs: segs}
	a := New(eng, sim.NewServer(eng, "cpu", 4), fn, segs, OffloadedParams())
	fired := 0
	var res Result
	a.Write(1, 0, make([]byte, 4096), func(r Result) { fired++; res = r })
	eng.Run()
	if len(fn.calls) != 1+notOwnerRetries {
		t.Fatalf("FN saw %d calls %x, want %d", len(fn.calls), fn.calls, 1+notOwnerRetries)
	}
	for i, dst := range fn.calls {
		if want := uint32(0xA0 + i%2); dst != want {
			t.Fatalf("call %d went to %#x, want %#x", i, dst, want)
		}
	}
	if fired != 1 || !errors.Is(res.Err, transport.ErrNotOwner) {
		t.Fatalf("done fired %d times, err = %v", fired, res.Err)
	}
	if a.Retries != notOwnerRetries {
		t.Fatalf("Retries = %d, want %d", a.Retries, notOwnerRetries)
	}
}

// A nil done is legal on every way out of io: both failure paths and
// success.
func TestNilDoneDoesNotPanic(t *testing.T) {
	eng, a, fn, _ := newAgent(t, SoftwareParams())
	a.Write(1, 0, nil, nil)                     // invalid size
	a.Read(1, 64<<20, 4096, nil)                // past the end
	a.Write(42, 0, make([]byte, 4096), nil)     // unknown disk
	a.Write(1, 0x3000, make([]byte, 4096), nil) // success
	eng.Run()
	if len(fn.calls) != 1 || a.IOs != 1 {
		t.Fatalf("calls = %d, IOs = %d, want 1 and 1", len(fn.calls), a.IOs)
	}
}

// TestTenantBytesAboveBurst: an I/O larger than its tenant's byte burst (a
// legal multi-segment write) is admitted, and the tenant's long-run
// bandwidth cap still holds over it and the I/O behind it.
func TestTenantBytesAboveBurst(t *testing.T) {
	eng, a, fn, _ := newAgent(t, OffloadedParams())
	a.SetTenant(1, "t")
	a.SetTenantQoS("t", QoSSpec{IOPS: 1000, BandwidthBps: 800e6}) // 100 MB/s, 4 MiB burst floor
	done := 0
	for i := 0; i < 2; i++ {
		a.Write(1, uint64(i)*(8<<20), make([]byte, 5<<20), func(r Result) {
			if r.Err != nil {
				t.Error(r.Err)
			}
			done++
		})
	}
	eng.Run()
	if done != 2 || len(fn.calls) != 6 {
		t.Fatalf("done = %d, FN calls = %d; want 2 writes of 3 pieces", done, len(fn.calls))
	}
	// 10 MiB against a full 4 MiB bucket refilled at 100 MB/s: the last
	// byte is admitted no sooner than (10-4) MiB / 100 MB/s = 62.9 ms.
	if got, floor := eng.Now().Duration(), 62*time.Millisecond; got < floor {
		t.Fatalf("finished at %v, before the cap allows (%v)", got, floor)
	}
	if a.TenantDelay == 0 {
		t.Fatal("no tenant delay accounted")
	}
}

// lengthFN answers every read after a microsecond with bytes of value 7:
// delta[LBA] more than the request asked for (fewer when negative).
type lengthFN struct {
	eng   *sim.Engine
	delta map[uint64]int
}

func (f *lengthFN) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	n := req.ReadLen + f.delta[req.LBA]
	f.eng.Schedule(time.Microsecond, func() { done(&transport.Response{Data: bytes.Repeat([]byte{7}, n)}) })
}

// TestReadResponseOfWrongLengthFails: a response must fill its piece
// exactly. A short one would leave the guest a hole it never wrote; a long
// one on the first piece of a segment-crossing read would spill into the
// second's range. Both fail the I/O, on one-piece and two-piece reads; a
// read answered exactly gets the bytes.
func TestReadResponseOfWrongLengthFails(t *testing.T) {
	const first, second = SegmentBytes - 4096, SegmentBytes // the two pieces of an 8 KiB crossing read
	for _, tc := range []struct {
		name  string
		lba   uint64
		size  int
		delta map[uint64]int
	}{
		{"one piece exact", 0, 8192, nil},
		{"one piece short", 0, 8192, map[uint64]int{0: -512}},
		{"one piece long", 0, 8192, map[uint64]int{0: 4096}},
		{"two pieces exact", first, 8192, nil},
		{"two pieces, first long", first, 8192, map[uint64]int{first: 4096}},
		{"two pieces, first short", first, 8192, map[uint64]int{first: -1}},
		{"two pieces, second short", first, 8192, map[uint64]int{second: -4096}},
		{"two pieces, second long", first, 8192, map[uint64]int{second: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			segs := NewSegmentTable()
			if err := segs.Provision(1, 4*SegmentBytes, []uint32{0xA1, 0xA2}); err != nil {
				t.Fatal(err)
			}
			a := New(eng, sim.NewServer(eng, "cpu", 1), &lengthFN{eng: eng, delta: tc.delta}, segs, SoftwareParams())
			var res *Result
			a.Read(1, tc.lba, tc.size, func(r Result) { res = &r })
			eng.Run()
			switch {
			case res == nil:
				t.Fatal("the read never completed")
			case tc.delta == nil && (res.Err != nil || !bytes.Equal(res.Data, bytes.Repeat([]byte{7}, tc.size))):
				t.Fatalf("exact responses: Err %v, %d bytes of data", res.Err, len(res.Data))
			case tc.delta != nil && res.Err == nil:
				t.Fatalf("a wrong-length response completed the read without an error (%d bytes of data)", len(res.Data))
			}
		})
	}
}
