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
// IDs, failure-domain-aware segment placement, live segment migration for
// unplanned degradations and planned drains, and per-tenant QoS layered
// above the per-disk pacing. The bookkeeping core lives in internal/ctrl;
// this type binds it to the live cluster.
//
// The control plane runs on the cluster's single engine and is therefore
// serial-only: management traffic interleaves deterministically with
// foreground I/O, and scenarios shard whole clusters per worker instead.
type ControlPlane struct {
	c      *Cluster
	svc    *ctrl.Service
	placer *ctrl.Placer // block-server placement, rack = failure domain
	rec    *trace.Recorder

	vdisks    map[uint32]*VDisk
	computeOf map[uint32]int

	blockByAddr map[uint32]*blockserver.Server
	chunkByAddr map[uint32]*chunkserver.Server
	chunkAddrs  []uint32 // construction order
	adopted     map[uint32]int
	draining    map[uint32]bool

	// Staging for the synchronous backend callback: the compute index and
	// QoS of the create in flight (the ctrl.Backend interface is data-
	// plane-shaped and does not carry them).
	curCompute int
	curQoS     sa.QoSSpec

	// Migration stats.
	SegmentsMigrated int
	BlocksCopied     int
	BytesCopied      uint64
	CopyErrors       int
}

// ControlPlane returns the cluster's management service, creating it on
// first use. It panics on coupled or Edge clusters (see Config.validate).
func (c *Cluster) ControlPlane() *ControlPlane {
	if c.ctrlPlane != nil {
		return c.ctrlPlane
	}
	if err := c.cfg.validate(true); err != nil {
		panic(err)
	}
	cp := &ControlPlane{
		c:           c,
		vdisks:      map[uint32]*VDisk{},
		computeOf:   map[uint32]int{},
		blockByAddr: map[uint32]*blockserver.Server{},
		chunkByAddr: map[uint32]*chunkserver.Server{},
		adopted:     map[uint32]int{},
		draining:    map[uint32]bool{},
		rec:         trace.NewRecorder(c.cfg.FlightRecorderDepth),
	}
	cp.svc = ctrl.NewService(cpBackend{cp})
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
		panic(err)
	}
	cp.placer = placer
	for _, s := range c.chunks {
		addr := s.Host.Addr()
		cp.chunkByAddr[addr] = s.Chunk
		cp.chunkAddrs = append(cp.chunkAddrs, addr)
	}
	c.ctrlPlane = cp
	return cp
}

// Service exposes the bookkeeping core (volume listings, tenant registry).
func (cp *ControlPlane) Service() *ctrl.Service { return cp.svc }

// Recorder returns the control plane's flight recorder (nil when the
// cluster runs without recorders).
func (cp *ControlPlane) Recorder() *trace.Recorder { return cp.rec }

// cpBackend adapts the control plane to ctrl.Backend. Calls arrive
// synchronously from inside ctrl.Service methods.
type cpBackend struct{ cp *ControlPlane }

func (b cpBackend) Provision(tenant string, sizeBytes uint64) (uint32, error) {
	cp := b.cp
	nSegs := int((sizeBytes + sa.SegmentBytes - 1) / sa.SegmentBytes)
	var servers []uint32
	if nSegs > 0 {
		placed, err := cp.placer.Place(nSegs)
		if err != nil {
			return 0, err
		}
		servers = placed
	} else {
		// Segmentless volume: the stripe set is irrelevant but must be
		// non-empty for the segment table.
		servers = cp.c.BlockServerAddrs()
	}
	vd, err := cp.c.provisionOn(cp.curCompute, sizeBytes, cp.curQoS, servers)
	if err != nil {
		if nSegs > 0 {
			cp.placer.Release(servers)
		}
		return 0, err
	}
	id := vd.ID
	cp.vdisks[id] = vd
	cp.computeOf[id] = cp.curCompute
	agent := cp.c.computes[cp.curCompute].Agent
	if tenant != "" {
		agent.SetTenant(id, tenant)
		if spec, ok := cp.svc.TenantQoS(tenant); ok {
			agent.SetTenantQoS(tenant, spec)
		}
	}
	return id, nil
}

func (b cpBackend) Grow(id uint32, newSizeBytes uint64) error {
	cp := b.cp
	have := int(cp.c.segs.Size(id) / sa.SegmentBytes)
	want := int((newSizeBytes + sa.SegmentBytes - 1) / sa.SegmentBytes)
	var servers []uint32
	if want > have {
		placed, err := cp.placer.Place(want - have)
		if err != nil {
			return err
		}
		servers = placed
	} else {
		servers = cp.c.BlockServerAddrs()
	}
	if _, err := cp.c.segs.Grow(id, newSizeBytes, servers); err != nil {
		if want > have {
			cp.placer.Release(servers)
		}
		return err
	}
	if vd := cp.vdisks[id]; vd != nil {
		vd.size = newSizeBytes
	}
	return nil
}

func (b cpBackend) Release(id uint32) error {
	cp := b.cp
	refs := cp.c.segs.Refs(id)
	addrs := make([]uint32, 0, len(refs))
	for _, r := range refs {
		addrs = append(addrs, r.Server)
	}
	if err := cp.c.segs.Delete(id); err != nil {
		return err
	}
	cp.placer.Release(addrs)
	if idx, ok := cp.computeOf[id]; ok {
		cp.c.computes[idx].Agent.ClearQoS(id)
	}
	delete(cp.vdisks, id)
	delete(cp.computeOf, id)
	return nil
}

// CreateVolume provisions a volume for tenant on compute computeIdx, its
// segments spread across block-server failure domains. Replays (same
// reqID) return the original volume without re-provisioning.
func (cp *ControlPlane) CreateVolume(reqID string, computeIdx int, tenant string, sizeBytes uint64, qos sa.QoSSpec) (*VDisk, error) {
	if computeIdx < 0 || computeIdx >= len(cp.c.computes) {
		return nil, fmt.Errorf("ebs: create volume on compute %d of %d", computeIdx, len(cp.c.computes))
	}
	cp.curCompute, cp.curQoS = computeIdx, qos
	id, err := cp.svc.Create(reqID, tenant, sizeBytes)
	if err != nil {
		return nil, err
	}
	return cp.vdisks[id], nil
}

// ResizeVolume grows a volume; the added segments are placed like a
// create's. Shrinking is refused.
func (cp *ControlPlane) ResizeVolume(reqID string, id uint32, newSizeBytes uint64) error {
	return cp.svc.Resize(reqID, id, newSizeBytes)
}

// SnapshotVolume captures volume metadata and returns the snapshot ID.
func (cp *ControlPlane) SnapshotVolume(reqID string, id uint32) (uint32, error) {
	return cp.svc.Snapshot(reqID, id)
}

// CloneVolume provisions a new volume from a snapshot on computeIdx.
func (cp *ControlPlane) CloneVolume(reqID string, snapID uint32, computeIdx int, tenant string, qos sa.QoSSpec) (*VDisk, error) {
	if computeIdx < 0 || computeIdx >= len(cp.c.computes) {
		return nil, fmt.Errorf("ebs: clone volume on compute %d of %d", computeIdx, len(cp.c.computes))
	}
	cp.curCompute, cp.curQoS = computeIdx, qos
	id, err := cp.svc.Clone(reqID, snapID, tenant)
	if err != nil {
		return nil, err
	}
	return cp.vdisks[id], nil
}

// DeleteVolume releases a volume's segments, QoS state, and tenant
// binding.
func (cp *ControlPlane) DeleteVolume(reqID string, id uint32) error {
	return cp.svc.Delete(reqID, id)
}

// SetTenantQoS registers a tenant's aggregate service level and applies it
// on every compute agent, live-retuning buckets that already have parked
// I/Os. Enforcement is per hypervisor, like production SA-level QoS: each
// compute's disks bound to the tenant share that agent's buckets.
func (cp *ControlPlane) SetTenantQoS(tenant string, spec sa.QoSSpec) {
	cp.svc.SetTenantQoS(tenant, spec)
	for _, cs := range cp.c.computes {
		cs.Agent.SetTenantQoS(tenant, spec)
	}
}

// MigrateSegment moves one segment of a volume to a caller-chosen block
// server — the unplanned-degradation path, metadata-only since chunk
// replicas stay put.
func (cp *ControlPlane) MigrateSegment(volID uint32, segIdx int, toAddr uint32) error {
	moved, err := cp.migrateSegmentRef(volID, segIdx, toAddr)
	if err == nil && moved {
		cp.placer.Charge(toAddr)
	}
	return err
}

// migrateSegmentRef performs the cutover without touching placement load
// (callers settle that). Order matters: the new owner adopts, then the
// segment table remaps (generation bump), then the old owner releases; an
// I/O rejected by the old owner therefore always finds the new mapping
// when it re-resolves. Reports whether a move actually happened.
//
//lint:barrier — serial-only: ControlPlane refuses multi-engine clusters, so only the one engine's window or the top-level driver runs this
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
	cp.adopted[toAddr]++
	cp.SegmentsMigrated++
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
	for _, vol := range cp.svc.Volumes() {
		if vol.State == ctrl.StateDeleted {
			continue
		}
		refs := cp.c.segs.Refs(vol.ID)
		for i, ref := range refs {
			if ref.Server != addr {
				continue
			}
			target, err := cp.placer.Place(1)
			if err != nil {
				return fmt.Errorf("ebs: evacuating block server %d: %w", blockIdx, err)
			}
			// Place charged the target; the cutover releases the source.
			if _, err := cp.migrateSegmentRef(vol.ID, i, target[0]); err != nil {
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
//
//lint:barrier — serial-only: ControlPlane refuses multi-engine clusters, so only the one engine's window or the top-level driver runs this
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
	for _, vol := range cp.svc.Volumes() {
		if vol.State == ctrl.StateDeleted {
			continue
		}
		for _, ref := range cp.c.segs.Refs(vol.ID) {
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
			cp.SegmentsMigrated++
			cp.BlocksCopied += ds.blocks
			cp.BytesCopied += ds.bytes
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
					cp.CopyErrors++
					step(j + 1)
					return
				}
				dst.WriteBlock(ds.segID, lbas[j], gen, data, rawCRC, func(err error) {
					if err != nil {
						report.CopyErrors++
						cp.CopyErrors++
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
