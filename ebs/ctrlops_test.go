package ebs

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"lunasolar/internal/sa"
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

// runCtrlOps decodes data two bytes per op (kind, argument) into
// CreateVolume, a direct Provision, MigrateSegment, EvacuateBlockServer
// and SetTenantQoS, and runs each op on two fresh clusters in lockstep.
// After every op no segment lives on an evacuated block server, every LBA
// below a volume's Size resolves, and the two clusters agree on the op's
// outcome and on every volume's segment refs.
func runCtrlOps(t testing.TB, data []byte) {
	pair := [2]*Cluster{New(ctrlOpsConfig()), New(ctrlOpsConfig())}
	addrs := pair[0].BlockServerAddrs()
	evacuated := map[uint32]bool{}
	for i := 0; i+1 < len(data); i += 2 {
		kind, arg := data[i]%5, data[i+1]
		size := uint64(arg%8) << 20
		compute := int(arg % 3)                   // 2 is out of range
		vol := uint32(arg) % (pair[0].nextVD + 2) // 0 and nextVD+1 are unknown
		block := int(arg>>2) % len(addrs)
		var desc string
		var op func(c *Cluster) error
		switch kind {
		case 0:
			desc = fmt.Sprintf("create %d MiB on compute %d", size>>20, compute)
			op = func(c *Cluster) error {
				_, err := c.ControlPlane().CreateVolume(compute, fmt.Sprintf("t%d", arg%2), size, DefaultQoS())
				return err
			}
		case 1:
			desc = fmt.Sprintf("provision %d MiB on compute %d", size>>20, compute)
			op = func(c *Cluster) error {
				_, err := c.Provision(compute, size, DefaultQoS())
				return err
			}
		case 2:
			desc = fmt.Sprintf("migrate %d segment %d to block server %d", vol, arg%3, block)
			op = func(c *Cluster) error { return c.ControlPlane().MigrateSegment(vol, int(arg%3), addrs[block]) }
		case 3:
			desc = fmt.Sprintf("evacuate block server %d", block)
			op = func(c *Cluster) error { return c.ControlPlane().EvacuateBlockServer(block) }
		case 4:
			desc = fmt.Sprintf("set tenant t%d to %d IOPS", arg%2, int(arg)*100)
			op = func(c *Cluster) error {
				c.ControlPlane().SetTenantQoS(fmt.Sprintf("t%d", arg%2), sa.QoSSpec{IOPS: float64(arg) * 100})
				return nil
			}
		}
		errA, errB := op(pair[0]), op(pair[1])
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("op %d (%s): outcomes differ: %v vs %v", i/2, desc, errA, errB)
		}
		if kind == 3 && errA == nil {
			evacuated[addrs[block]] = true
		}
		checkVolumes(t, pair, evacuated, fmt.Sprintf("op %d (%s)", i/2, desc))
	}
}

// checkVolumes asserts runCtrlOps' invariants on every volume of a pair
// of clusters driven in lockstep.
func checkVolumes(t testing.TB, pair [2]*Cluster, evacuated map[uint32]bool, after string) {
	a, b := pair[0], pair[1]
	if a.nextVD != b.nextVD {
		t.Fatalf("after %s: %d volumes vs %d", after, a.nextVD, b.nextVD)
	}
	for id := uint32(1); id <= a.nextVD; id++ {
		refs := a.segs.Refs(id)
		if got, want := fmt.Sprint(b.segs.Refs(id)), fmt.Sprint(refs); got != want {
			t.Fatalf("after %s: volume %d refs %s on the second cluster, %s on the first", after, id, got, want)
		}
		for k, ref := range refs {
			if evacuated[ref.Server] {
				t.Fatalf("after %s: volume %d segment %d lives on evacuated block server %d", after, id, k, ref.Server)
			}
		}
		size := a.segs.Size(id)
		for lba := uint64(0); lba < size; lba += sa.SegmentBytes {
			for _, l := range []uint64{lba, min(lba+sa.SegmentBytes, size) - 1} {
				if _, ok := a.segs.Lookup(id, l); !ok {
					t.Fatalf("after %s: volume %d of %d bytes: LBA %d does not resolve", after, id, size, l)
				}
			}
		}
	}
}

func TestControlPlaneOpsInvariants(t *testing.T) {
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
	// create, provision, migrate, evacuate, set tenant QoS, create.
	f.Add([]byte{0, 4, 1, 7, 2, 1, 3, 0, 4, 9, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runCtrlOps(t, data)
	})
}
