package sa

import (
	"bytes"
	"cmp"
	"slices"
	"testing"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/transport"
)

// admitFN answers every call a microsecond later and records when each
// (vdisk, LBA) was first called. Under Params{Offloaded: true} with no
// OffloadLatency an I/O's pieces are sent at the instant the pacers admit
// it, so the first piece's call time is the I/O's admission.
type admitFN struct {
	eng *sim.Engine
	at  map[[2]uint64]sim.Time
}

func (f *admitFN) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	key := [2]uint64{uint64(req.VDisk), req.LBA}
	if _, ok := f.at[key]; !ok {
		f.at[key] = f.eng.Now()
	}
	f.eng.Schedule(time.Microsecond, func() { done(&transport.Response{}) })
}

// capOp is one step of a FuzzTenantCap schedule: at instant at, either a
// write of size bytes to disk (0 and 1 are the tenant's, 2 is unbound) or,
// when retune is set, a SetTenantQoS to it.
type capOp struct {
	at     sim.Time
	disk   int
	size   int
	retune *QoSSpec
}

var (
	capSizes   = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 5 << 20}
	capIOPS    = []float64{0, 500, 2000, 10000}
	capBps     = []float64{0, 200e6, 1e9, 8e9}
	capWindows = []time.Duration{0, time.Millisecond, 5 * time.Millisecond}
	capPayload = make([]byte, capSizes[len(capSizes)-1]) // read-only: every write's bytes
)

// capSpec decodes a service level from one byte.
func capSpec(b byte) QoSSpec {
	return QoSSpec{
		IOPS:         capIOPS[int(b)%len(capIOPS)],
		BandwidthBps: capBps[int(b>>2)%len(capBps)],
		BurstWindow:  capWindows[int(b>>4)%len(capWindows)],
	}
}

// decodeCap turns fuzz input into the disks' service level, the tenant's
// first one and a schedule. Each op byte is a write (low two bits 0-2: disk
// from the next two bits, size from the top four) or a retune (3: spec from
// the next byte); a following byte advances the clock by 0-775 µs.
func decodeCap(data []byte) (disk, tenant QoSSpec, ops []capOp) {
	if len(data) < 2 {
		return
	}
	disk, tenant = capSpec(data[0]), capSpec(data[1])
	var now sim.Time
	for i := 2; i+1 < len(data) && len(ops) < 64; i += 2 {
		b := data[i]
		op := capOp{at: now}
		if b&3 == 3 {
			spec := capSpec(data[i+1])
			op.retune = &spec
		} else {
			op.disk, op.size = int(b>>2&3)%3, capSizes[int(b>>4)%len(capSizes)]
			now = now.Add(time.Duration(data[i+1]%32) * 25 * time.Microsecond)
		}
		ops = append(ops, op)
	}
	return
}

// capRun is one run of a schedule: each write's admission, and the tenant
// service level in force when it arrived.
type capRun struct {
	admitted []sim.Time
	spec     []QoSSpec
}

// runCap runs ops on an agent whose three 512 MiB disks all carry the disk
// service level; with tenant set, disks 0 and 1 are bound to it and the
// retunes apply. Write k goes to LBA k·6 MiB of its disk, so a 5 MiB write
// crosses segments and every write's first piece has a key of its own.
func runCap(t *testing.T, disk, tenant QoSSpec, ops []capOp, withTenant bool) capRun {
	t.Helper()
	eng := sim.NewEngine(1)
	fn := &admitFN{eng: eng, at: map[[2]uint64]sim.Time{}}
	segs := NewSegmentTable()
	a := New(eng, sim.NewServer(eng, "cpu", 1), fn, segs, Params{Offloaded: true})
	for d := uint32(1); d <= 3; d++ {
		if err := segs.Provision(d, 512<<20, []uint32{0xA1, 0xA2}); err != nil {
			t.Fatal(err)
		}
		a.SetQoS(d, disk)
	}
	if withTenant {
		a.SetTenant(1, "t")
		a.SetTenant(2, "t")
		a.SetTenantQoS("t", tenant)
	}
	run := capRun{admitted: make([]sim.Time, len(ops)), spec: make([]QoSSpec, len(ops))}
	cur := tenant
	for k, op := range ops {
		eng.At(op.at, func() {
			if op.retune != nil {
				cur = *op.retune
				if withTenant {
					a.SetTenantQoS("t", cur)
				}
				return
			}
			run.spec[k] = cur
			a.Write(uint32(op.disk+1), uint64(k)*(6<<20), capPayload[:op.size], func(r Result) {
				if r.Err != nil {
					t.Errorf("write %d: %v", k, r.Err)
				}
			})
		})
	}
	eng.Run()
	for k, op := range ops {
		if op.retune == nil {
			run.admitted[k] = fn.at[[2]uint64{uint64(op.disk + 1), uint64(k) * (6 << 20)}]
		}
	}
	return run
}

// paced is one admitted I/O as one pacer dimension saw it: its admission
// and the time it books, in nanoseconds (1/IOPS, or bytes over the byte
// rate).
type paced struct {
	at   sim.Time
	step float64
}

// checkPaced fails unless the I/Os hold a pacer's bound: over any window
// [s, s+W] of admission instants, the steps of the I/Os admitted in it, all
// but the largest, sum to at most W plus the widest credit window, with 1 ns
// per I/O for the slots' truncation. At a fixed rate that is ≤ IOPS·W +
// credit admissions, and ≤ Bps·W + credit + one I/O's bytes.
func checkPaced(t *testing.T, what string, ios []paced, window time.Duration) {
	t.Helper()
	slices.SortStableFunc(ios, func(x, y paced) int { return cmp.Compare(x.at, y.at) })
	for i := range ios {
		var sum, largest float64
		for j := i; j < len(ios); j++ {
			sum += ios[j].step
			largest = max(largest, ios[j].step)
			w := ios[j].at.Sub(ios[i].at)
			if limit := float64(w+window) + float64(j-i+1); sum-largest > limit {
				t.Fatalf("%s: %d I/Os admitted in [%v, %v] book %.0f ns beyond the largest, over the %.0f ns the cap allows",
					what, j-i+1, ios[i].at, ios[j].at, sum-largest, limit)
			}
		}
	}
}

// checkSpec checks both dimensions of the I/Os ops[k] for which pick
// returns a spec it was paced by and that spec's credit windows.
func checkSpec(t *testing.T, what string, ops []capOp, run capRun, pick func(k int) (QoSSpec, time.Duration, time.Duration, bool)) {
	t.Helper()
	var ioSteps, byteSteps []paced
	var iopsWindow, byteWindow time.Duration
	for k, op := range ops {
		spec, iw, bw, ok := pick(k)
		if op.retune != nil || !ok {
			continue
		}
		if spec.IOPS > 0 {
			ioSteps = append(ioSteps, paced{run.admitted[k], float64(time.Second) / spec.IOPS})
			iopsWindow = max(iopsWindow, iw)
		}
		if spec.BandwidthBps > 0 {
			byteSteps = append(byteSteps, paced{run.admitted[k], float64(op.size*8) / spec.BandwidthBps * float64(time.Second)})
			byteWindow = max(byteWindow, bw)
		}
	}
	checkPaced(t, what+" IOPS", ioSteps, iopsWindow)
	checkPaced(t, what+" bytes", byteSteps, byteWindow)
}

// burst is a spec's BurstWindow with SetQoS's default.
func burst(spec QoSSpec) time.Duration {
	if spec.BurstWindow <= 0 {
		return 10 * time.Millisecond
	}
	return spec.BurstWindow
}

// FuzzTenantCap drives mixed-size writes on two disks of one tenant and one
// unbound disk, all three under a per-disk service level, with the tenant's
// service level retuned mid-run. It checks that the tenant's cap holds over
// its two disks' admissions, with credit windows of at least one I/O and
// 4 MiB, that each disk's own cap holds over its admissions, and that the
// unbound disk is admitted exactly as in a run with no tenant at all.
func FuzzTenantCap(f *testing.F) {
	// Loose disk caps under a tight tenant: only the tenant's pacer holds
	// the aggregate.
	f.Add([]byte{0x0b, 0x11, 0x00, 0, 0x04, 0, 0x00, 0, 0x04, 0, 0x00, 0, 0x04, 0, 0x00, 0, 0x04, 0,
		0x08, 0, 0x00, 1, 0x04, 1, 0x00, 0, 0x04, 0, 0x00, 0, 0x04, 0})
	// Large writes, a 5 MiB one above the tenant's byte burst, and a retune
	// to uncapped and back.
	f.Add([]byte{0x0b, 0x15, 0x40, 0, 0x44, 0, 0x50, 0, 0x54, 0, 0x03, 0x00, 0x40, 0, 0x44, 2,
		0x03, 0x15, 0x40, 0, 0x44, 0, 0x40, 0, 0x48, 0, 0x44, 0})
	// Many small writes fill the IOPS queue of the unbound disk, then
	// large ones follow: a byte slot left behind the queue would let them
	// through at the IOPS rate. Then the same on the tenant's disks, under
	// a tenant with that spec and loose disk caps.
	small, large := bytes.Repeat([]byte{0x08, 0}, 20), bytes.Repeat([]byte{0x58, 0}, 8)
	f.Add(slices.Concat([]byte{0x1d, 0x0f}, small, large))
	small, large = bytes.Repeat([]byte{0x00, 0}, 20), bytes.Repeat([]byte{0x54, 0}, 8)
	f.Add(slices.Concat([]byte{0x0f, 0x1d}, small, large))
	// Tight disk caps under a loose tenant, with a rate cut mid-burst.
	f.Add([]byte{0x25, 0x0f, 0x10, 1, 0x14, 1, 0x18, 1, 0x20, 3, 0x03, 0x21, 0x24, 0, 0x28, 0,
		0x30, 0, 0x34, 0, 0x38, 5, 0x10, 0, 0x14, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		disk, tenant, ops := decodeCap(data)
		run := runCap(t, disk, tenant, ops, true)
		alone := runCap(t, disk, tenant, ops, false)
		checkSpec(t, "tenant", ops, run, func(k int) (QoSSpec, time.Duration, time.Duration, bool) {
			spec := run.spec[k]
			iw, bw := burst(spec), burst(spec)
			if spec.IOPS > 0 {
				iw = max(iw, time.Duration(float64(time.Second)/spec.IOPS))
			}
			if spec.BandwidthBps > 0 {
				bw = max(bw, time.Duration(tenantBurstBytes*8/spec.BandwidthBps*float64(time.Second)))
			}
			return spec, iw, bw, ops[k].disk < 2
		})
		for d := range 3 {
			checkSpec(t, "disk", ops, run, func(k int) (QoSSpec, time.Duration, time.Duration, bool) {
				return disk, burst(disk), burst(disk), ops[k].disk == d
			})
		}
		for k, op := range ops {
			if op.retune == nil && op.disk == 2 && run.admitted[k] != alone.admitted[k] {
				t.Fatalf("unbound write %d admitted at %v, at %v with no tenant", k, run.admitted[k], alone.admitted[k])
			}
		}
	})
}
