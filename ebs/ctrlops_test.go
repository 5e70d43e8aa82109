package ebs

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// ctrlOpsConfig is a small Solar cluster whose three block servers span
// two racks, so placement has failure domains to spread over.
func ctrlOpsConfig() Config {
	cfg := smallConfig(Solar)
	cfg.Fabric.RacksPerPod = 4
	cfg.Fabric.HostsPerRack = 2
	cfg.BlockServers = 3
	return cfg
}

// opsRun drives one control plane through a decoded op sequence.
type opsRun struct {
	t    testing.TB
	c    *Cluster
	cp   *ControlPlane
	vols []uint32 // volume IDs ops pick from: managed, unmanaged, unknown
	reqs []request
}

// request is one issued op and its first outcome.
type request struct {
	run func() (uint32, error)
	id  uint32
	err error
}

// runCtrlOps decodes data two bytes per op (kind, argument) into the five
// lifecycle ops, request-ID replays, MigrateSegment and
// EvacuateBlockServer. After every op, each block server's placer load
// must equal the live managed segment refs on it, and a replayed request
// ID must return its original outcome.
func runCtrlOps(t testing.TB, data []byte) {
	c := New(ctrlOpsConfig())
	cp, err := c.ControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	// Volumes the control plane never created: one provisioned directly,
	// one that does not exist.
	direct := c.MustProvision(0, 4<<20, DefaultQoS())
	r := &opsRun{t: t, c: c, cp: cp, vols: []uint32{direct.ID, 999}}
	addrs := c.BlockServerAddrs()
	for i := 0; i+1 < len(data); i += 2 {
		kind, arg := data[i]%8, data[i+1]
		vol := r.vols[int(arg)%len(r.vols)]
		size := uint64(arg%8) << 20
		compute := int(arg % 3) // 2 is out of range
		var desc string
		switch kind {
		case 0:
			desc = fmt.Sprintf("create %d MiB on compute %d", size>>20, compute)
			r.issue(func(reqID string) (uint32, error) {
				return r.created(cp.CreateVolume(reqID, compute, fmt.Sprintf("t%d", arg%2), size, DefaultQoS()))
			})
		case 1:
			desc = fmt.Sprintf("resize %d to %d MiB", vol, size>>20)
			r.issue(func(reqID string) (uint32, error) { return 0, cp.ResizeVolume(reqID, vol, size) })
		case 2:
			desc = fmt.Sprintf("snapshot %d", vol)
			r.issue(func(reqID string) (uint32, error) { return cp.SnapshotVolume(reqID, vol) })
		case 3:
			snap := uint32(arg) % uint32(len(cp.snaps)+2) // 0 and len+1 are unknown
			desc = fmt.Sprintf("clone snapshot %d on compute %d", snap, compute)
			r.issue(func(reqID string) (uint32, error) {
				return r.created(cp.CloneVolume(reqID, snap, compute, "t0", DefaultQoS()))
			})
		case 4:
			desc = fmt.Sprintf("delete %d", vol)
			r.issue(func(reqID string) (uint32, error) { return 0, cp.DeleteVolume(reqID, vol) })
		case 5:
			if len(r.reqs) == 0 {
				continue
			}
			k := int(arg) % len(r.reqs)
			desc = fmt.Sprintf("replay request %d", k)
			q := r.reqs[k]
			if id, err := q.run(); id != q.id || err != q.err {
				t.Fatalf("op %d (%s) = (%d, %v), first outcome (%d, %v)", i/2, desc, id, err, q.id, q.err)
			}
		case 6:
			to := addrs[int(arg>>2)%len(addrs)]
			desc = fmt.Sprintf("migrate %d segment %d to %d", vol, arg%3, to)
			_ = cp.MigrateSegment(vol, int(arg%3), to)
		case 7:
			desc = fmt.Sprintf("evacuate block server %d", int(arg)%len(addrs))
			_ = cp.EvacuateBlockServer(int(arg) % len(addrs))
		}
		r.checkLoad(i/2, desc)
	}
}

// issue runs a new request under a fresh ID and records its first
// outcome for replays.
func (r *opsRun) issue(op func(reqID string) (uint32, error)) {
	reqID := fmt.Sprintf("req-%d", len(r.reqs))
	run := func() (uint32, error) { return op(reqID) }
	id, err := run()
	r.reqs = append(r.reqs, request{run: run, id: id, err: err})
}

// created reduces a create or clone outcome to (volume ID, error), adding
// a new volume to the pick list.
func (r *opsRun) created(vd *VDisk, err error) (uint32, error) {
	if err != nil {
		return 0, err
	}
	for _, id := range r.vols {
		if id == vd.ID {
			return vd.ID, nil
		}
	}
	r.vols = append(r.vols, vd.ID)
	return vd.ID, nil
}

// checkLoad asserts the placer's load on every block server equals the
// segment refs of live managed volumes there.
func (r *opsRun) checkLoad(op int, desc string) {
	want := map[uint32]int{}
	for _, id := range r.cp.order {
		if r.cp.vols[id].deleted {
			continue
		}
		for _, ref := range r.c.segs.Refs(id) {
			want[ref.Server]++
		}
	}
	for _, addr := range r.c.BlockServerAddrs() {
		if got := r.cp.placer.Load(addr); got != want[addr] {
			r.t.Fatalf("after op %d (%s): placer load on %d = %d, live managed segments there = %d",
				op, desc, addr, got, want[addr])
		}
	}
}

func TestPlacerLoadTracksManagedSegments(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0))
			data := make([]byte, 160)
			for i := range data {
				data[i] = byte(rng.UintN(256))
			}
			runCtrlOps(t, data)
		})
	}
}

func FuzzControlPlaneOps(f *testing.F) {
	// create, resize, snapshot, clone, replay, migrate, delete, evacuate.
	f.Add([]byte{0, 4, 1, 7, 2, 3, 3, 2, 5, 0, 6, 3, 4, 3, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runCtrlOps(t, data)
	})
}
