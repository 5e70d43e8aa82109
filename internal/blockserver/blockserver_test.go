package blockserver

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"lunasolar/internal/chunkserver"
	"lunasolar/internal/crc"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// rig wires one block server to three chunk servers over a real RDMA BN on
// a real fabric, plus a raw FN client.
type rig struct {
	eng    *sim.Engine
	fab    *simnet.Fabric
	bs     *Server
	bsAddr uint32
	chunks []*chunkserver.Server
	client transport.Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(5)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 4
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	fab := simnet.New(eng, cfg)

	r := &rig{eng: eng, fab: fab}

	var chunkAddrs []uint32
	for i := 0; i < 3; i++ {
		host := fab.Host(0, 1, 1, i)
		cores := sim.NewServer(eng, "chunk-cpu", 8)
		cs := chunkserver.New(eng, "chunk", chunkserver.DefaultSSD())
		bn := rdma.New(eng, host, cores, nil, rdma.DefaultParams())
		chunkserver.NewService(eng, cs, bn)
		r.chunks = append(r.chunks, cs)
		chunkAddrs = append(chunkAddrs, host.Addr())
	}

	bsHost := fab.Host(0, 1, 0, 0)
	bsCores := sim.NewServer(eng, "bs-cpu", 8)
	mux := simnet.NewMux(bsHost)
	fn := rdma.New(eng, bsHost, bsCores, nil, rdma.DefaultParams())
	bn := rdma.New(eng, bsHost, bsCores, nil, rdma.DefaultParams())
	// FN and BN share the RDMA protocol here; a single stack handles both
	// roles (the mux keeps this test honest about packet delivery).
	mux.Handle(rdma.Proto, fn.ReceivePacket)
	_ = bn
	bs, err := New(eng, "bs0", fn, fn, chunkAddrs, bsCores, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r.bs = bs
	r.bsAddr = bsHost.Addr()

	r.client = rdma.New(eng, fab.Host(0, 0, 0, 0), sim.NewServer(eng, "client-cpu", 4), nil, rdma.DefaultParams())
	return r
}

func TestWriteReplicatesToAllChunks(t *testing.T) {
	r := newRig(t)
	data := bytes.Repeat([]byte{7}, 8192)
	var resp transport.Response
	answered := false
	r.client.Call(r.bsAddr, &transport.Message{
		Op: wire.RPCWriteReq, SegmentID: 3, LBA: 0x2000, Gen: 1, Data: data,
	}, func(rp *transport.Response) { resp, answered = *rp, true })
	r.eng.Run()
	if !answered || resp.Err != nil {
		t.Fatalf("write failed: %+v", resp)
	}
	for i, cs := range r.chunks {
		w, _, _, _ := cs.Stats()
		if w != 2 { // two blocks
			t.Fatalf("chunk %d wrote %d blocks, want 2", i, w)
		}
	}
	if resp.ServerWall <= 0 || resp.SSDTime <= 0 {
		t.Fatalf("trace annotations missing: %v/%v", resp.ServerWall, resp.SSDTime)
	}
	if resp.SSDTime >= resp.ServerWall {
		t.Fatal("SSD time should be a fraction of server wall (BN on top)")
	}
}

func TestReadBack(t *testing.T) {
	r := newRig(t)
	data := bytes.Repeat([]byte{9}, 16384)
	r.client.Call(r.bsAddr, &transport.Message{
		Op: wire.RPCWriteReq, SegmentID: 4, LBA: 0, Gen: 1, Data: data,
	}, func(*transport.Response) {})
	r.eng.Run()
	var got []byte
	r.client.Call(r.bsAddr, &transport.Message{
		Op: wire.RPCReadReq, SegmentID: 4, LBA: 0, ReadLen: len(data),
	}, func(rp *transport.Response) { got = rp.Data })
	r.eng.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch through BN replication")
	}
	writes, reads := r.bs.Stats()
	if writes != 1 || reads != 1 {
		t.Fatalf("stats: %d/%d", writes, reads)
	}
}

func TestReplicaSetDeterministic(t *testing.T) {
	r := newRig(t)
	a := r.bs.ReplicaSet(42)
	b := r.bs.ReplicaSet(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replica set not deterministic")
		}
	}
	if len(a) != Replicas {
		t.Fatalf("replicas = %d", len(a))
	}
	seen := map[uint32]bool{}
	for _, addr := range a {
		if seen[addr] {
			t.Fatal("duplicate replica")
		}
		seen[addr] = true
	}
}

func TestTooFewReplicasRejected(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = 1
	cfg.HostsPerRack = 2
	fab := simnet.New(eng, cfg)
	cores := sim.NewServer(eng, "cpu", 2)
	fn := rdma.New(eng, fab.Host(0, 0, 0, 0), cores, nil, rdma.DefaultParams())
	if _, err := New(eng, "bad", fn, fn, []uint32{1, 2}, cores, DefaultParams()); err == nil {
		t.Fatal("2 replicas accepted")
	}
}

func TestWriteLatencyDominatedByReplication(t *testing.T) {
	r := newRig(t)
	var lat time.Duration
	start := r.eng.Now()
	r.client.Call(r.bsAddr, &transport.Message{
		Op: wire.RPCWriteReq, SegmentID: 1, LBA: 0, Gen: 1, Data: make([]byte, 4096),
	}, func(rp *transport.Response) { lat = r.eng.Now().Sub(start) })
	r.eng.Run()
	// FN hop + BN to 3 replicas + SSD write cache: tens of µs.
	if lat < 20*time.Microsecond || lat > 200*time.Microsecond {
		t.Fatalf("write latency %v out of plausible range", lat)
	}
}

// TestSetReplicaSetNeedsExactlyReplicasDistinct: a write goes to every
// member of the set, so a set of the wrong size or with a repeated member
// would store the wrong number of copies.
func TestSetReplicaSetNeedsExactlyReplicasDistinct(t *testing.T) {
	r := newRig(t)
	a, b, c, d := uint32(101), uint32(102), uint32(103), uint32(104)
	for _, tc := range []struct {
		name string
		set  []uint32
		ok   bool
	}{
		{"three distinct", []uint32{a, b, c}, true},
		{"two members", []uint32{a, b}, false},
		{"four members", []uint32{a, b, c, d}, false},
		{"duplicated member", []uint32{a, a, b}, false},
		{"duplicated last member", []uint32{a, b, b}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := r.bs.ReplicaSet(9)
			err := r.bs.SetReplicaSet(9, tc.set)
			if (err == nil) != tc.ok {
				t.Fatalf("SetReplicaSet(%v) = %v, want ok=%v", tc.set, err, tc.ok)
			}
			if err := r.bs.AdoptSegment(9, tc.set); (err == nil) != tc.ok {
				t.Fatalf("AdoptSegment(%v) = %v, want ok=%v", tc.set, err, tc.ok)
			}
			if got := r.bs.ReplicaSet(9); !tc.ok && !slices.Equal(got, before) {
				t.Fatalf("rejected set %v installed: replica set is now %v", tc.set, got)
			}
		})
	}
}

// fakeBN is a BN client that commits every replica write a microsecond
// after the call, reporting the request's CRC fold: a wrong one from the
// chunk server at bad, and no answer at all from the one at silent.
type fakeBN struct {
	eng         *sim.Engine
	bad, silent uint32
	answered    []uint32
}

func (f *fakeBN) Call(dst uint32, req *transport.Message, done func(*transport.Response)) {
	if dst == f.silent {
		return
	}
	fold := crc.CombineBlocks(req.BlockCRCs, wire.BlockSize)
	if dst == f.bad {
		fold = ^fold
	}
	f.eng.Schedule(time.Microsecond, func() {
		f.answered = append(f.answered, dst)
		done(&transport.Response{BlockCRCs: []uint32{fold}})
	})
}

// writeThrough sends one 4 KiB write carrying its block CRC through a block
// server whose chunk servers are 11, 12 and 13 behind bn, runs the engine
// dry and returns a copy of every response the write got.
func writeThrough(t *testing.T, bn *fakeBN) []transport.Response {
	t.Helper()
	eng := bn.eng
	fn := transport.NewLoopback(func(d time.Duration, f func()) { eng.Schedule(d, f) }, time.Microsecond, 1)
	bs, err := New(eng, "bs", fn, bn, []uint32{11, 12, 13}, sim.NewServer(eng, "cpu", 2), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{3}, wire.BlockSize)
	var got []transport.Response
	bs.Handle(1, &transport.Message{Op: wire.RPCWriteReq, SegmentID: 0, Gen: 1, Data: data,
		BlockCRCs: []uint32{crc.Raw(data)}}, func(resp *transport.Response) { got = append(got, *resp) })
	eng.Run()
	return got
}

// TestReplicaFoldMismatchNamesTheReplica: a replica whose commit fold
// disagrees with the request's CRC list fails the write, by name, once
// every replica has answered.
func TestReplicaFoldMismatchNamesTheReplica(t *testing.T) {
	bn := &fakeBN{eng: sim.NewEngine(1), bad: 12}
	got := writeThrough(t, bn)
	if len(bn.answered) != Replicas {
		t.Fatalf("%d of %d replicas answered", len(bn.answered), Replicas)
	}
	if len(got) != 1 {
		t.Fatalf("write answered %d times, want 1", len(got))
	}
	if err := got[0].Err; err == nil || !strings.Contains(err.Error(), "replica 12 commit CRC fold mismatch") {
		t.Fatalf("write error = %v, want replica 12's fold mismatch", err)
	}
	if n := bn.eng.PoolOutstanding(); n != 0 {
		t.Fatalf("%d pooled records outstanding after the write, want 0", n)
	}
}

// TestUnansweredLegHoldsItsRecord: a write with a replica that never
// answers is never answered itself, and its record stays checked out — the
// leak gate's view of a request some server dropped.
func TestUnansweredLegHoldsItsRecord(t *testing.T) {
	bn := &fakeBN{eng: sim.NewEngine(1), silent: 13}
	got := writeThrough(t, bn)
	if len(got) != 0 {
		t.Fatalf("write with a silent replica answered: %+v", got[0])
	}
	if n := bn.eng.PoolOutstanding(); n != 1 {
		t.Fatalf("PoolOutstanding() = %d once drained, want 1: the unanswered request", n)
	}
}
