package blockserver

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/chunkserver"
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
	var resp *transport.Response
	r.client.Call(r.bsAddr, &transport.Message{
		Op: wire.RPCWriteReq, SegmentID: 3, LBA: 0x2000, Gen: 1, Data: data,
	}, func(rp *transport.Response) { resp = rp })
	r.eng.Run()
	if resp == nil || resp.Err != nil {
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
