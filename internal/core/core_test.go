package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/dpu"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

type rig struct {
	eng    *sim.Engine
	fab    *simnet.Fabric
	card   *dpu.DPU
	client *Stack
	server *Stack
	store  map[uint64][]byte // LBA → block, the server's backing store
}

func newRig(t *testing.T, faults dpu.FaultRates, mode Mode) *rig {
	t.Helper()
	return newRigSeed(t, 11, faults, mode)
}

// newRigSeed is newRig on an engine of the given seed, which also seeds
// the card's fault lottery.
func newRigSeed(t *testing.T, seed int64, faults dpu.FaultRates, mode Mode) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	fab := simnet.New(eng, cfg)

	dcfg := dpu.DefaultConfig()
	dcfg.Faults = faults
	card := dpu.New(eng, dcfg)

	cp := DefaultParams()
	cp.Mode = mode
	client := New(eng, fab.Host(0, 0, 0, 0), card.CPU, card, cp)
	server := New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "storage-cpu", 16), nil, ServerParams())

	r := &rig{eng: eng, fab: fab, card: card, client: client, server: server,
		store: map[uint64][]byte{}}
	server.SetHandler(r.blockService)
	return r
}

// blockService is a minimal per-block block server: stores write blocks by
// LBA, serves reads from the store.
func (r *rig) blockService(src uint32, req *transport.Message, reply func(*transport.Response)) {
	switch req.Op {
	case wire.RPCWriteReq:
		// One block per invocation — the one-block-one-packet contract.
		if len(req.Data) > wire.BlockSize {
			r.eng.Schedule(0, func() { panic("multi-block write delivered to solar handler") })
		}
		r.store[req.LBA] = append([]byte(nil), req.Data...)
		// Persist latency stand-in (BN+SSD).
		r.eng.Schedule(30*time.Microsecond, func() { reply(&transport.Response{}) })
	case wire.RPCReadReq:
		out := make([]byte, req.ReadLen)
		for off := 0; off < req.ReadLen; off += wire.BlockSize {
			if b, ok := r.store[req.LBA+uint64(off)]; ok {
				copy(out[off:], b)
			}
		}
		r.eng.Schedule(40*time.Microsecond, func() { reply(&transport.Response{Data: out}) })
	}
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*13)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	data := fill(4096, 1)
	var wdone, rdone bool
	var got []byte
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 2, LBA: 0x4000, Gen: 1, Data: data},
		func(resp *transport.Response) {
			wdone = true
			r.client.Call(r.server.LocalAddr(),
				&transport.Message{Op: wire.RPCReadReq, VDisk: 1, SegmentID: 2, LBA: 0x4000, Gen: 1, ReadLen: 4096},
				func(resp *transport.Response) { rdone = true; got = resp.Data })
		})
	r.eng.Run()
	if !wdone || !rdone {
		t.Fatalf("wdone=%v rdone=%v", wdone, rdone)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different data")
	}
}

func TestWriteLatencyIsMicroseconds(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	var at sim.Time
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: fill(4096, 3)},
		func(resp *transport.Response) { at = r.eng.Now() })
	r.eng.Run()
	d := at.Duration()
	// FPGA pipeline + fabric + 30µs persist stand-in: expect ~40–80µs.
	if d < 30*time.Microsecond || d > 120*time.Microsecond {
		t.Fatalf("write latency = %v", d)
	}
}

func TestMultiBlockWrite(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	data := fill(64<<10, 5) // 16 blocks
	done := false
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0x100000, Gen: 1, Data: data},
		func(resp *transport.Response) { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	for off := 0; off < len(data); off += wire.BlockSize {
		if !bytes.Equal(r.store[0x100000+uint64(off)], data[off:off+wire.BlockSize]) {
			t.Fatalf("block at %#x wrong", off)
		}
	}
}

func TestMultiBlockRead(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	data := fill(32<<10, 9)
	wdone := false
	var got []byte
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: data},
		func(*transport.Response) {
			wdone = true
			r.client.Call(r.server.LocalAddr(),
				&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: len(data)},
				func(resp *transport.Response) { got = resp.Data })
		})
	r.eng.Run()
	if !wdone || !bytes.Equal(got, data) {
		t.Fatal("32K read mismatch")
	}
	if r.client.addrInUse != 0 {
		t.Fatalf("addr table leaked: %d entries", r.client.addrInUse)
	}
}

func TestRecoversFromLoss(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	r.fab.Spine(0, 0, 0).SetDropRate(0.2)
	r.fab.Spine(0, 0, 1).SetDropRate(0.2)
	const n = 40
	done := 0
	for i := 0; i < n; i++ {
		lba := uint64(i) << 12
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCWriteReq, LBA: lba, Gen: 1, Data: fill(4096, byte(i))},
			func(*transport.Response) { done++ })
	}
	r.eng.RunFor(5 * time.Second)
	if done != n {
		t.Fatalf("done %d/%d under 20%% loss", done, n)
	}
	if r.client.Retransmits == 0 {
		t.Fatal("no retransmissions under loss")
	}
}

func TestSurvivesSevereLossFast(t *testing.T) {
	// 75% drop at every spine: Table 2's harshest loss row. Solar's
	// per-packet timers and selective retransmission must finish every I/O
	// well under a second.
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	r.fab.Spine(0, 0, 0).SetDropRate(0.75)
	r.fab.Spine(0, 0, 1).SetDropRate(0.75)
	const n = 20
	var worst time.Duration
	done := 0
	for i := 0; i < n; i++ {
		start := r.eng.Now()
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCWriteReq, LBA: uint64(i) << 12, Gen: 1, Data: fill(4096, byte(i))},
			func(*transport.Response) {
				done++
				if d := r.eng.Now().Sub(start); d > worst {
					worst = d
				}
			})
	}
	r.eng.RunFor(30 * time.Second)
	if done != n {
		t.Fatalf("done %d/%d under 75%% loss", done, n)
	}
	if worst >= time.Second {
		t.Fatalf("worst completion %v ≥ 1s — would count as a hang in Table 2", worst)
	}
}

func TestPathFailoverOnHungToR(t *testing.T) {
	// Hang one ToR of the client's pair (links stay up). Roughly half of
	// Solar's paths die; consecutive timeouts must fail them over and every
	// I/O completes in well under a second — the Table 2 result.
	r := newRig(t, dpu.FaultRates{}, Offloaded)

	// Warm up paths.
	warm := 0
	for i := 0; i < 8; i++ {
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCWriteReq, LBA: uint64(i) << 12, Gen: 1, Data: fill(4096, 1)},
			func(*transport.Response) { warm++ })
	}
	r.eng.Run()
	if warm != 8 {
		t.Fatal("warmup failed")
	}

	r.fab.ToR(0, 0, 0, 0).Fail()

	var worst time.Duration
	done := 0
	const n = 30
	for i := 0; i < n; i++ {
		start := r.eng.Now()
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCWriteReq, LBA: uint64(i+100) << 12, Gen: 2, Data: fill(4096, byte(i))},
			func(*transport.Response) {
				done++
				if d := r.eng.Now().Sub(start); d > worst {
					worst = d
				}
			})
		r.eng.RunFor(10 * time.Millisecond)
	}
	r.eng.RunFor(10 * time.Second)
	if done != n {
		t.Fatalf("done %d/%d with hung ToR", done, n)
	}
	if r.client.PathFailovers == 0 {
		t.Fatal("every I/O completed without a path failover")
	}
	if worst >= time.Second {
		t.Fatalf("worst completion %v ≥ 1s with hung ToR", worst)
	}
}

func TestPathFailoverOnBlackhole(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	// Blackhole 40% of flows at both client ToRs — silent, undetectable by
	// the fabric; only source-port failover escapes.
	r.fab.ToR(0, 0, 0, 0).SetBlackhole(0.4, 77)
	r.fab.ToR(0, 0, 0, 1).SetBlackhole(0.4, 77)
	var worst time.Duration
	done := 0
	const n = 30
	for i := 0; i < n; i++ {
		start := r.eng.Now()
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCWriteReq, LBA: uint64(i) << 12, Gen: 1, Data: fill(4096, byte(i))},
			func(*transport.Response) {
				done++
				if d := r.eng.Now().Sub(start); d > worst {
					worst = d
				}
			})
		r.eng.RunFor(5 * time.Millisecond)
	}
	r.eng.RunFor(10 * time.Second)
	if done != n {
		t.Fatalf("done %d/%d under blackhole", done, n)
	}
	if r.client.PathFailovers == 0 {
		t.Fatal("every I/O completed without a path failover")
	}
	if worst >= time.Second {
		t.Fatalf("worst completion %v ≥ 1s under blackhole", worst)
	}
}

func TestWriteIntegrityFPGACRCFlip(t *testing.T) {
	// Every FPGA CRC is flipped: the software aggregation must catch and
	// repair every write, and the data that lands in storage must be clean.
	r := newRig(t, dpu.FaultRates{CRCBitFlip: 1.0}, Offloaded)
	data := fill(16<<10, 21)
	done := false
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: data},
		func(*transport.Response) { done = true })
	r.eng.RunFor(10 * time.Second)
	if !done {
		t.Fatal("write never completed")
	}
	if r.client.IntegrityHits == 0 {
		t.Fatal("aggregation caught nothing despite universal CRC flips")
	}
	for off := 0; off < len(data); off += wire.BlockSize {
		if !bytes.Equal(r.store[uint64(off)], data[off:off+wire.BlockSize]) {
			t.Fatalf("corrupted block reached storage at %#x", off)
		}
	}
}

func TestWriteIntegrityFPGADataFlip(t *testing.T) {
	// The nastier case: the datapath corrupts the block and the CRC engine
	// checksums the corrupted bytes (self-consistent). Only the trusted
	// expected aggregate catches it.
	r := newRig(t, dpu.FaultRates{DataBitFlip: 0.5}, Offloaded)
	data := fill(32<<10, 33)
	done := false
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: data},
		func(*transport.Response) { done = true })
	r.eng.RunFor(10 * time.Second)
	if !done {
		t.Fatal("write never completed")
	}
	if r.client.IntegrityHits == 0 {
		t.Fatal("datapath corruption escaped the aggregation check")
	}
	for off := 0; off < len(data); off += wire.BlockSize {
		if !bytes.Equal(r.store[uint64(off)], data[off:off+wire.BlockSize]) {
			t.Fatalf("corrupted block reached storage at %#x", off)
		}
	}
}

// TestWriteRepairAfterServerCRCReject covers the damage the XOR aggregate
// cannot see: under seed 35 both blocks' CRC flips land on the same bit, so
// the pre-send check passes and two wrong CRCs reach a server that, like
// the chunk store, rejects a block whose bytes fail its carried CRC. Each
// rejection is repaired from the trusted buffer and resent once, and the
// write completes once, clean.
func TestWriteRepairAfterServerCRCReject(t *testing.T) {
	r := newRigSeed(t, 35, dpu.FaultRates{CRCBitFlip: 1}, Offloaded)
	rejects := 0
	r.server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		if crc.Raw(req.Data) != req.BlockCRCs[0] {
			rejects++
			reply(&transport.Response{Err: errors.New("block CRC mismatch")})
			return
		}
		r.blockService(src, req, reply)
	})
	data := fill(8<<10, 5)
	var errs []error
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: data},
		func(resp *transport.Response) { errs = append(errs, resp.Err) })
	r.eng.Run()
	if rejects != 2 {
		t.Fatalf("server rejected %d blocks, want both (the aggregate must miss the paired flips)", rejects)
	}
	if len(errs) != 1 || errs[0] != nil {
		t.Fatalf("write completed with %v, want once with a nil error", errs)
	}
	if r.client.IntegrityHits != 2 || r.client.Retransmits != 2 {
		t.Fatalf("integrity hits %d, retransmits %d; want one repair and one resend per block",
			r.client.IntegrityHits, r.client.Retransmits)
	}
	for off := 0; off < len(data); off += wire.BlockSize {
		if !bytes.Equal(r.store[uint64(off)], data[off:off+wire.BlockSize]) {
			t.Fatalf("corrupted block reached storage at %#x", off)
		}
	}
	if len(r.client.rpcs) != 0 || len(r.client.out) != 0 || len(r.server.serves) != 0 {
		t.Fatalf("residual state: client rpcs=%d out=%d, server serves=%d",
			len(r.client.rpcs), len(r.client.out), len(r.server.serves))
	}
	if n, m := r.eng.PoolOutstanding(), r.fab.Pool().Outstanding(); n != 0 || m != 0 {
		t.Fatalf("%d pooled records and %d packets outstanding once drained", n, m)
	}
}

func TestReadIntegrityRefetch(t *testing.T) {
	// Corrupt the read path: the client's aggregate check must refetch
	// until the guest buffer is clean. Use a modest rate so a retry can
	// succeed.
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	data := fill(8<<10, 41)
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: data},
		func(*transport.Response) {})
	r.eng.Run()

	// Now enable read-side faults.
	r.card.Cfg.Faults = dpu.FaultRates{DataBitFlip: 0.3}
	var got []byte
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: len(data)},
		func(resp *transport.Response) { got = resp.Data })
	r.eng.RunFor(30 * time.Second)
	if got == nil {
		t.Fatal("read never completed")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupted data delivered to guest")
	}
}

func TestSolarStarUsesPCIe(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, CPUPath)
	done := 0
	const n = 16
	for i := 0; i < n; i++ {
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCWriteReq, LBA: uint64(i) << 12, Gen: 1, Data: fill(4096, byte(i))},
			func(*transport.Response) { done++ })
	}
	r.eng.Run()
	if done != n {
		t.Fatalf("done %d/%d", done, n)
	}
	if r.card.PCIe.Transferred() == 0 {
		t.Fatal("Solar* did not cross the internal PCIe")
	}
}

func TestOffloadedBypassesPCIe(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	done := false
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: fill(16<<10, 2)},
		func(*transport.Response) { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("write incomplete")
	}
	if r.card.PCIe.Transferred() != 0 {
		t.Fatalf("offloaded Solar moved %d bytes over internal PCIe", r.card.PCIe.Transferred())
	}
}

func TestAddrTableBackpressure(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	// Shrink the Addr table so concurrent reads exceed it.
	r.client.addrCap = 8
	data := fill(16<<10, 7) // 4 blocks per read
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: data},
		func(*transport.Response) {})
	r.eng.Run()

	done := 0
	const n = 6 // 24 entries wanted, 8 available
	for i := 0; i < n; i++ {
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: len(data)},
			func(resp *transport.Response) { done++ })
	}
	r.eng.RunFor(10 * time.Second)
	if done != n {
		t.Fatalf("done %d/%d with tiny Addr table", done, n)
	}
	if r.client.AdmissionWait == 0 {
		t.Fatal("no admission queueing despite Addr-table pressure")
	}
	if r.client.addrInUse != 0 {
		t.Fatalf("addr table leaked: %d", r.client.addrInUse)
	}
}

// TestOversizedReadFailsAtOnce: a read needing more Addr-table entries than
// the table holds can never be admitted. It must fail with ErrAdmission
// instead of queueing forever, and must not wedge the reads behind it.
func TestOversizedReadFailsAtOnce(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	r.client.addrCap = 8
	var big, small []transport.Response
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: 64 << 10},
		func(resp *transport.Response) { big = append(big, *resp) })
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: 4096},
		func(resp *transport.Response) { small = append(small, *resp) })
	r.eng.RunFor(time.Second)
	if len(big) != 1 || big[0].Err != transport.ErrAdmission {
		t.Fatalf("16-block read with 8 entries: %d completions, want 1 with ErrAdmission", len(big))
	}
	if len(small) != 1 || small[0].Err != nil || len(small[0].Data) != 4096 {
		t.Fatalf("1-block read behind it: %d completions, want 1 with data", len(small))
	}
	if len(r.client.addrQueue) != 0 || r.client.addrInUse != 0 {
		t.Fatalf("addr table: %d queued, %d in use", len(r.client.addrQueue), r.client.addrInUse)
	}
}

// TestAdmissionWaitRecorded: every read that waited for Addr-table entries
// leaves one flight-recorder event naming its RPC and its wait, and the
// waits add up to the AdmissionWait counter.
func TestAdmissionWaitRecorded(t *testing.T) {
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	r.client.addrCap = 4
	const n = 4 // four blocks each: one fills the table, three wait
	ids := map[uint64]bool{}
	for i := 0; i < n; i++ {
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: 16 << 10},
			func(*transport.Response) {})
	}
	r.eng.Run()
	var waits time.Duration
	for _, ev := range r.client.Recorder().Events() {
		if ev.Kind != trace.EvAdmissionWait {
			continue
		}
		if ev.Arg1 == 0 || ids[ev.Arg1] || ev.Arg2 == 0 {
			t.Fatalf("bad admission-wait event %+v", ev)
		}
		ids[ev.Arg1] = true
		waits += time.Duration(ev.Arg2)
	}
	if len(ids) != n-1 {
		t.Fatalf("%d admission-wait events, want %d", len(ids), n-1)
	}
	if waits != r.client.AdmissionWait {
		t.Fatalf("recorded waits sum to %v, AdmissionWait is %v", waits, r.client.AdmissionWait)
	}
}

func TestNoConnectionStateAccumulates(t *testing.T) {
	// After traffic drains, the stack should hold no per-packet state —
	// the "few maintained states" property.
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	for i := 0; i < 50; i++ {
		lba := uint64(i) << 12
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCWriteReq, LBA: lba, Gen: 1, Data: fill(4096, byte(i))},
			func(*transport.Response) {
				r.client.Call(r.server.LocalAddr(),
					&transport.Message{Op: wire.RPCReadReq, LBA: lba, ReadLen: 4096},
					func(*transport.Response) {})
			})
	}
	r.eng.Run()
	if len(r.client.out) != 0 || len(r.client.rpcs) != 0 {
		t.Fatalf("residual state: out=%d rpcs=%d", len(r.client.out), len(r.client.rpcs))
	}
	if len(r.server.out) != 0 || len(r.server.serves) != 0 {
		t.Fatalf("server residual state: out=%d serves=%d",
			len(r.server.out), len(r.server.serves))
	}
}

// TestReadErrorsComplete: a handler that answers a read with an error, with
// or without data, fails the read with ErrRemote — one data-less terminal
// packet, acknowledged — and leaves no state or pooled record behind on
// either side.
func TestReadErrorsComplete(t *testing.T) {
	for _, data := range [][]byte{nil, fill(4096, 1)} {
		r := newRig(t, dpu.FaultRates{}, Offloaded)
		r.server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
			reply(&transport.Response{Err: errors.New("boom"), Data: data})
		})
		var errs []error
		r.client.Call(r.server.LocalAddr(),
			&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: 4096},
			func(resp *transport.Response) { errs = append(errs, resp.Err) })
		r.eng.RunFor(time.Second)
		if len(errs) != 1 || errs[0] != transport.ErrRemote {
			t.Fatalf("with %d bytes of data: read completed with %v, want once with ErrRemote", len(data), errs)
		}
		if len(r.client.rpcs) != 0 || len(r.client.out) != 0 || len(r.server.serves) != 0 || len(r.server.out) != 0 {
			t.Fatalf("residual state: client rpcs=%d out=%d, server serves=%d out=%d",
				len(r.client.rpcs), len(r.client.out), len(r.server.serves), len(r.server.out))
		}
		if n := r.eng.PoolOutstanding(); n != 0 {
			t.Fatalf("%d pooled records outstanding once drained", n)
		}
	}
}

func TestReorderingTolerated(t *testing.T) {
	// Blocks of one read arrive over different paths (different latencies):
	// completion must not require ordering. We approximate by injecting
	// asymmetric path latency via a congested spine and checking the read
	// still assembles correctly.
	r := newRig(t, dpu.FaultRates{}, Offloaded)
	data := fill(64<<10, 17)
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCWriteReq, LBA: 0, Gen: 1, Data: data},
		func(*transport.Response) {})
	r.eng.Run()
	// Add background congestion on one spine.
	r.fab.Spine(0, 0, 0).SetDropRate(0.05)
	var got []byte
	r.client.Call(r.server.LocalAddr(),
		&transport.Message{Op: wire.RPCReadReq, LBA: 0, ReadLen: len(data)},
		func(resp *transport.Response) { got = resp.Data })
	r.eng.RunFor(10 * time.Second)
	if !bytes.Equal(got, data) {
		t.Fatal("read under reordering mismatch")
	}
}
