package ebs

import (
	"fmt"
	"time"

	"lunasolar/internal/blockserver"
	"lunasolar/internal/chunkserver"
	"lunasolar/internal/ctrl"
	"lunasolar/internal/sa"
	"lunasolar/internal/trace"
)

// ControlPlane is the cluster's management service: volume lifecycle
// (create / resize / snapshot / clone / delete) with idempotent request
// IDs, failure-domain-aware segment placement (internal/ctrl's Placer),
// live segment migration for unplanned degradations and planned drains,
// and per-tenant QoS layered above the per-disk pacing.
//
// Each volume fact has one owner: the segment table holds a volume's size
// and placement, its VDisk the compute binding, and the control plane only
// which volumes it manages. Every call is synchronous, so between calls a
// managed volume is live or deleted and nothing else.
//
// The control plane runs on the cluster's single engine and is therefore
// serial-only: management traffic interleaves deterministically with
// foreground I/O, and a parallel run shards whole clusters per worker instead.
type ControlPlane struct {
	c      *Cluster
	placer *ctrl.Placer // block-server placement, rack = failure domain
	rec    trace.Recorder

	replies map[string]reply // request-ID cache, see once
	vols    map[uint32]*volume
	order   []uint32 // creation order, which drains and evacuations walk
	snaps   []uint64 // snapshot i+1's size: a snapshot is metadata only
	tenants map[string]sa.QoSSpec

	blockByAddr map[uint32]*blockserver.Server
	chunkByAddr map[uint32]*chunkserver.Server
	chunkAddrs  []uint32 // construction order
	draining    map[uint32]bool
}

// volume is one managed virtual disk. A deleted volume stays as a
// tombstone so replayed or racing requests get a coherent answer.
type volume struct {
	vd      *VDisk
	deleted bool
}

// reply is a recorded request outcome: the volume or snapshot ID the
// request produced, and its error.
type reply struct {
	id  uint32
	err error
}

// ControlPlane returns the cluster's management service, creating it on
// first use.
func (c *Cluster) ControlPlane() (*ControlPlane, error) {
	if c.ctrlPlane != nil {
		return c.ctrlPlane, nil
	}
	cp := &ControlPlane{
		c:           c,
		replies:     map[string]reply{},
		vols:        map[uint32]*volume{},
		tenants:     map[string]sa.QoSSpec{},
		blockByAddr: map[uint32]*blockserver.Server{},
		chunkByAddr: map[uint32]*chunkserver.Server{},
		draining:    map[uint32]bool{},
	}
	nodes := make([]ctrl.Node, 0, len(c.blocks))
	for i, b := range c.blocks {
		addr := b.Host.Addr()
		cp.blockByAddr[addr] = b.Block
		nodes = append(nodes, ctrl.Node{
			Addr:   addr,
			Domain: fmt.Sprintf("rack%d", i/c.cfg.Fabric.HostsPerRack),
		})
	}
	placer, err := ctrl.NewPlacer(nodes)
	if err != nil {
		return nil, err
	}
	cp.placer = placer
	for _, s := range c.chunks {
		addr := s.Host.Addr()
		cp.chunkByAddr[addr] = s.Chunk
		cp.chunkAddrs = append(cp.chunkAddrs, addr)
	}
	c.ctrlPlane = cp
	return cp, nil
}

// once runs op under a caller-chosen request ID: the first call records
// op's outcome, success or error, and a replay returns it without running
// op again. The cache is keyed by the ID alone, one namespace across
// operation kinds; an empty reqID opts out of it.
func (cp *ControlPlane) once(reqID string, op func() (uint32, error)) (uint32, error) {
	if r, ok := cp.replies[reqID]; ok && reqID != "" {
		return r.id, r.err
	}
	id, err := op()
	if reqID != "" {
		cp.replies[reqID] = reply{id, err}
	}
	return id, err
}

// live fetches a managed volume that has not been deleted.
func (cp *ControlPlane) live(id uint32) (*volume, error) {
	v, ok := cp.vols[id]
	if !ok {
		return nil, fmt.Errorf("ebs: unknown volume %d", id)
	}
	if v.deleted {
		return nil, fmt.Errorf("ebs: volume %d is deleted", id)
	}
	return v, nil
}

// place charges n new segments to the placer and returns their servers.
// With n <= 0 nothing is charged and every block server comes back: the
// segment table wants a non-empty stripe set even when it maps nothing.
func (cp *ControlPlane) place(n int) ([]uint32, error) {
	if n <= 0 {
		return cp.c.BlockServerAddrs(), nil
	}
	return cp.placer.Place(n)
}

// segments is how many segments sizeBytes maps to.
func segments(sizeBytes uint64) int {
	return int((sizeBytes + sa.SegmentBytes - 1) / sa.SegmentBytes)
}

// create places a new volume's segments, provisions it on compute
// computeIdx, binds its tenant and records it. sizeBytes 0 is legal (a
// segmentless volume).
func (cp *ControlPlane) create(computeIdx int, tenant string, sizeBytes uint64, qos sa.QoSSpec) (uint32, error) {
	if computeIdx < 0 || computeIdx >= len(cp.c.computes) {
		return 0, fmt.Errorf("ebs: create volume on compute %d of %d", computeIdx, len(cp.c.computes))
	}
	n := segments(sizeBytes)
	servers, err := cp.place(n)
	if err != nil {
		return 0, fmt.Errorf("ebs: create volume: %w", err)
	}
	vd, err := cp.c.provisionOn(computeIdx, sizeBytes, qos, servers)
	if err != nil {
		if n > 0 {
			cp.placer.Release(servers)
		}
		return 0, err
	}
	if tenant != "" {
		vd.agent.SetTenant(vd.ID, tenant)
		if spec, ok := cp.tenants[tenant]; ok {
			vd.agent.SetTenantQoS(tenant, spec)
		}
	}
	cp.vols[vd.ID] = &volume{vd: vd}
	cp.order = append(cp.order, vd.ID)
	return vd.ID, nil
}

// vdisk resolves a create or clone outcome to its disk.
func (cp *ControlPlane) vdisk(id uint32, err error) (*VDisk, error) {
	if err != nil {
		return nil, err
	}
	return cp.vols[id].vd, nil
}

// CreateVolume provisions a volume for tenant on compute computeIdx, its
// segments spread across block-server failure domains. Replays (same
// reqID) return the original volume without re-provisioning.
func (cp *ControlPlane) CreateVolume(reqID string, computeIdx int, tenant string, sizeBytes uint64, qos sa.QoSSpec) (*VDisk, error) {
	return cp.vdisk(cp.once(reqID, func() (uint32, error) {
		return cp.create(computeIdx, tenant, sizeBytes, qos)
	}))
}

// ResizeVolume grows a volume; the added segments are placed like a
// create's. Shrinking is refused (segments under live I/O cannot be
// unmapped safely).
func (cp *ControlPlane) ResizeVolume(reqID string, id uint32, newSizeBytes uint64) error {
	_, err := cp.once(reqID, func() (uint32, error) {
		v, err := cp.live(id)
		if err != nil {
			return 0, err
		}
		if size := v.vd.Size(); newSizeBytes < size {
			return 0, fmt.Errorf("ebs: volume %d shrink %d -> %d refused", id, size, newSizeBytes)
		}
		n := segments(newSizeBytes) - len(cp.c.segs.Refs(id))
		servers, err := cp.place(n)
		if err != nil {
			return 0, fmt.Errorf("ebs: resize volume %d: %w", id, err)
		}
		if _, err := cp.c.segs.Grow(id, newSizeBytes, servers); err != nil {
			if n > 0 {
				cp.placer.Release(servers)
			}
			return 0, fmt.Errorf("ebs: resize volume %d: %w", id, err)
		}
		return id, nil
	})
	return err
}

// SnapshotVolume captures a volume's size (block data is shared copy-on-
// write in production; the model keeps snapshots metadata-only) and
// returns the snapshot ID.
func (cp *ControlPlane) SnapshotVolume(reqID string, id uint32) (uint32, error) {
	return cp.once(reqID, func() (uint32, error) {
		v, err := cp.live(id)
		if err != nil {
			return 0, err
		}
		cp.snaps = append(cp.snaps, v.vd.Size())
		return uint32(len(cp.snaps)), nil
	})
}

// CloneVolume provisions a new volume of a snapshot's size on computeIdx.
func (cp *ControlPlane) CloneVolume(reqID string, snapID uint32, computeIdx int, tenant string, qos sa.QoSSpec) (*VDisk, error) {
	return cp.vdisk(cp.once(reqID, func() (uint32, error) {
		if snapID == 0 || int(snapID) > len(cp.snaps) {
			return 0, fmt.Errorf("ebs: unknown snapshot %d", snapID)
		}
		return cp.create(computeIdx, tenant, cp.snaps[snapID-1], qos)
	}))
}

// DeleteVolume releases a volume's segments, QoS state, and tenant
// binding. The record stays as a tombstone.
func (cp *ControlPlane) DeleteVolume(reqID string, id uint32) error {
	_, err := cp.once(reqID, func() (uint32, error) {
		v, err := cp.live(id)
		if err != nil {
			return 0, err
		}
		refs := cp.c.segs.Refs(id)
		if err := cp.c.segs.Delete(id); err != nil {
			return 0, fmt.Errorf("ebs: delete volume %d: %w", id, err)
		}
		for _, r := range refs {
			cp.placer.Release([]uint32{r.Server})
		}
		v.vd.agent.ClearQoS(id)
		v.deleted = true
		return id, nil
	})
	return err
}

// SetTenantQoS registers a tenant's aggregate service level and applies it
// on every compute agent, live-retuning pacers that already have I/Os
// booked. Enforcement is per hypervisor, like production SA-level QoS: each
// compute's disks bound to the tenant share that agent's pacer.
func (cp *ControlPlane) SetTenantQoS(tenant string, spec sa.QoSSpec) {
	cp.tenants[tenant] = spec
	for _, cs := range cp.c.computes {
		cs.Agent.SetTenantQoS(tenant, spec)
	}
}

// MigrateSegment moves one segment of a managed volume to a caller-chosen
// block server — the unplanned-degradation path, metadata-only since chunk
// replicas stay put. Like drains and evacuations it refuses volumes the
// control plane does not manage: their segments were never charged to the
// placer, so moving one would skew its load.
func (cp *ControlPlane) MigrateSegment(volID uint32, segIdx int, toAddr uint32) error {
	if _, err := cp.live(volID); err != nil {
		return err
	}
	moved, err := cp.migrateSegmentRef(volID, segIdx, toAddr)
	if err == nil && moved {
		cp.placer.Charge(toAddr)
	}
	return err
}

// migrateSegmentRef performs the cutover without touching placement load
// (callers account for that). Order matters: the new owner adopts, then the
// segment table remaps (generation bump), then the old owner releases; an
// I/O rejected by the old owner therefore always finds the new mapping
// when it re-resolves. Reports whether a move actually happened.
func (cp *ControlPlane) migrateSegmentRef(volID uint32, segIdx int, toAddr uint32) (bool, error) {
	refs := cp.c.segs.Refs(volID)
	if segIdx < 0 || segIdx >= len(refs) {
		return false, fmt.Errorf("ebs: migrate segment %d of vdisk %d: out of range [0,%d)", segIdx, volID, len(refs))
	}
	ref := refs[segIdx]
	if ref.Server == toAddr {
		return false, nil
	}
	from, ok := cp.blockByAddr[ref.Server]
	if !ok {
		return false, fmt.Errorf("ebs: migrate segment %d: unknown source %d", ref.SegmentID, ref.Server)
	}
	to, ok := cp.blockByAddr[toAddr]
	if !ok {
		return false, fmt.Errorf("ebs: migrate segment %d: unknown target %d", ref.SegmentID, toAddr)
	}
	if err := to.AdoptSegment(ref.SegmentID, from.ReplicaSet(ref.SegmentID)); err != nil {
		return false, err
	}
	if err := cp.c.segs.Remap(volID, segIdx, toAddr); err != nil {
		return false, err
	}
	from.ReleaseSegment(ref.SegmentID, toAddr)
	cp.placer.Release([]uint32{ref.Server})
	cp.rec.Record(cp.c.Eng.Now().Duration(), trace.EvCutover, ref.SegmentID, uint64(toAddr))
	return true, nil
}

// EvacuateBlockServer live-migrates every control-plane-managed segment
// off block server blockIdx (a planned drain of the segment-owning layer)
// and excludes it from future placement. Foreground I/O rides through on
// the not-owner retry path.
func (cp *ControlPlane) EvacuateBlockServer(blockIdx int) error {
	if blockIdx < 0 || blockIdx >= len(cp.c.blocks) {
		return fmt.Errorf("ebs: evacuate block server %d of %d", blockIdx, len(cp.c.blocks))
	}
	addr := cp.c.blocks[blockIdx].Host.Addr()
	cp.placer.SetDown(addr, true)
	for _, id := range cp.order {
		if cp.vols[id].deleted {
			continue
		}
		for i, ref := range cp.c.segs.Refs(id) {
			if ref.Server != addr {
				continue
			}
			target, err := cp.placer.Place(1)
			if err != nil {
				return fmt.Errorf("ebs: evacuating block server %d: %w", blockIdx, err)
			}
			// Place charged the target; the cutover releases the source.
			if _, err := cp.migrateSegmentRef(id, i, target[0]); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainSeg is one segment's rebuild plan in a chunk-server drain.
type drainSeg struct {
	owner     *blockserver.Server
	segID     uint64
	set       []uint32
	survivor  uint32
	replace   uint32
	blocks    int
	bytes     uint64
	started   time.Duration
	completed time.Duration
}

// DrainReport summarizes a completed chunk-server drain.
type DrainReport struct {
	Segments     int
	BlocksCopied int
	BytesCopied  uint64
	CopyErrors   int
	Duration     time.Duration
	Cutovers     []time.Duration // per-segment rebuild latency, drain order
}

// DrainChunkServer performs a planned drain of chunk server chunkIdx: for
// every control-plane-managed segment with a replica there, the replica is
// rebuilt block by block on a replacement chunk server (copy traffic pays
// real admission and media costs on the source, contending with foreground
// I/O), then the owning block server's replica set cuts over with a
// survivor as primary. The drained replica is dropped after cutover.
// Writes that land mid-copy reach the old set — including the survivor
// that stays primary — so reads never miss; the replacement backfills the
// gap in production, which the model elides. done fires with the report
// once every segment has cut over. Segments drain one at a time, so copy
// traffic is bounded and the event order is deterministic.
func (cp *ControlPlane) DrainChunkServer(chunkIdx int, done func(DrainReport)) error {
	if chunkIdx < 0 || chunkIdx >= len(cp.c.chunks) {
		return fmt.Errorf("ebs: drain chunk server %d of %d", chunkIdx, len(cp.c.chunks))
	}
	drainAddr := cp.chunkAddrs[chunkIdx]
	if cp.draining[drainAddr] {
		return fmt.Errorf("ebs: chunk server %d already draining", chunkIdx)
	}
	cp.draining[drainAddr] = true

	// Plan: every (owner, segment) whose replica set includes the drained
	// server, in volume-creation then LBA order — deterministic.
	var plan []*drainSeg
	adopted := map[uint32]int{}
	for _, id := range cp.order {
		if cp.vols[id].deleted {
			continue
		}
		for _, ref := range cp.c.segs.Refs(id) {
			owner := cp.blockByAddr[ref.Server]
			if owner == nil {
				continue
			}
			set := owner.ReplicaSet(ref.SegmentID)
			inSet := false
			for _, a := range set {
				if a == drainAddr {
					inSet = true
					break
				}
			}
			if !inSet {
				continue
			}
			ds := &drainSeg{owner: owner, segID: ref.SegmentID, set: set}
			for _, a := range set {
				if a != drainAddr {
					ds.survivor = a
					break
				}
			}
			ds.replace = cp.pickReplacement(set, drainAddr, adopted)
			if ds.replace == 0 {
				cp.draining[drainAddr] = false
				return fmt.Errorf("ebs: drain chunk server %d: no replacement for segment %d", chunkIdx, ds.segID)
			}
			adopted[ds.replace]++
			plan = append(plan, ds)
		}
	}

	start := cp.c.Eng.Now()
	report := DrainReport{}
	var runSeg func(i int)
	finish := func() {
		cp.draining[drainAddr] = false
		report.Duration = cp.c.Eng.Now().Sub(start)
		done(report)
	}
	runSeg = func(i int) {
		if i == len(plan) {
			finish()
			return
		}
		ds := plan[i]
		ds.started = cp.c.Eng.Now().Duration()
		src := cp.chunkByAddr[ds.survivor]
		dst := cp.chunkByAddr[ds.replace]
		lbas := src.SegmentLBAs(ds.segID)
		var step func(j int)
		cutover := func() {
			newSet := make([]uint32, len(ds.set))
			for k, a := range ds.set {
				if a == drainAddr {
					newSet[k] = ds.replace
				} else {
					newSet[k] = a
				}
			}
			if newSet[0] == ds.replace {
				// Primary must hold the full segment; the survivor does,
				// the fresh replica may have missed mid-copy writes.
				for k, a := range newSet {
					if a == ds.survivor {
						newSet[0], newSet[k] = newSet[k], newSet[0]
						break
					}
				}
			}
			if err := ds.owner.SetReplicaSet(ds.segID, newSet); err != nil {
				report.CopyErrors++
			}
			cp.chunkByAddr[drainAddr].DropSegment(ds.segID)
			ds.completed = cp.c.Eng.Now().Duration()
			took := ds.completed - ds.started
			report.Segments++
			report.BlocksCopied += ds.blocks
			report.BytesCopied += ds.bytes
			report.Cutovers = append(report.Cutovers, took)
			cp.rec.Record(cp.c.Eng.Now().Duration(), trace.EvCutover, ds.segID, uint64(ds.replace))
			runSeg(i + 1)
		}
		step = func(j int) {
			if j == len(lbas) {
				cutover()
				return
			}
			src.MigrateRead(ds.segID, lbas[j], func(data []byte, rawCRC uint32, gen uint32, err error) {
				if err != nil {
					report.CopyErrors++
					step(j + 1)
					return
				}
				dst.WriteBlock(ds.segID, lbas[j], gen, data, rawCRC, func(err error) {
					if err != nil {
						report.CopyErrors++
					} else {
						ds.blocks++
						ds.bytes += uint64(len(data))
					}
					step(j + 1)
				})
			})
		}
		step(0)
	}
	runSeg(0)
	return nil
}

// pickReplacement chooses the chunk server to rebuild a replica on: not in
// the old set, not draining, fewest adoptions so far in this drain, ties
// to the lowest construction index. Returns 0 when no candidate exists
// (chunk addresses are fabric addresses, never 0).
func (cp *ControlPlane) pickReplacement(set []uint32, drainAddr uint32, adopted map[uint32]int) uint32 {
	var best uint32
	bestLoad := -1
	for _, cand := range cp.chunkAddrs {
		if cand == drainAddr || cp.draining[cand] {
			continue
		}
		inSet := false
		for _, a := range set {
			if a == cand {
				inSet = true
				break
			}
		}
		if inSet {
			continue
		}
		if bestLoad < 0 || adopted[cand] < bestLoad {
			best, bestLoad = cand, adopted[cand]
		}
	}
	return best
}
