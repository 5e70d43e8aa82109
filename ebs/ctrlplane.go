package ebs

import (
	"fmt"
	"time"

	"lunasolar/internal/blockserver"
	"lunasolar/internal/chunkserver"
	"lunasolar/internal/sa"
	"lunasolar/internal/simnet"
	"lunasolar/internal/trace"
)

// ControlPlane is the cluster's management service: volume creation with
// failure-domain-aware segment placement, live segment migration for
// unplanned degradations and planned drains, and per-tenant QoS layered
// above the per-disk pacing.
//
// Each volume fact has one owner: the segment table holds a volume's size
// and placement, and with them the load placement balances, which is
// counted from it; its VDisk holds the compute binding. The control plane
// keeps only which block servers are evacuated and which chunk servers are
// draining. A volume made with Cluster.Provision is a volume like any
// other: migrations, evacuations and drains walk every volume in the
// segment table, in ID order.
//
// The control plane runs on the cluster's single engine and is therefore
// serial-only: management traffic interleaves deterministically with
// foreground I/O, and a parallel run shards whole clusters per worker instead.
type ControlPlane struct {
	c   *Cluster
	rec trace.Recorder

	blockByAddr map[uint32]*blockserver.Server
	chunkByAddr map[uint32]*chunkserver.Server
	chunkAddrs  []uint32        // construction order
	evacuated   map[uint32]bool // block servers out of placement
	draining    map[uint32]bool
}

// ControlPlane returns the cluster's management service, creating it on
// first use.
func (c *Cluster) ControlPlane() *ControlPlane {
	if c.ctrlPlane != nil {
		return c.ctrlPlane
	}
	cp := &ControlPlane{
		c:           c,
		blockByAddr: map[uint32]*blockserver.Server{},
		chunkByAddr: map[uint32]*chunkserver.Server{},
		evacuated:   map[uint32]bool{},
		draining:    map[uint32]bool{},
	}
	for _, b := range c.blocks {
		cp.blockByAddr[b.Host.Addr()] = b.Block
	}
	for _, s := range c.chunks {
		addr := s.Host.Addr()
		cp.chunkByAddr[addr] = s.Chunk
		cp.chunkAddrs = append(cp.chunkAddrs, addr)
	}
	c.ctrlPlane = cp
	return cp
}

// volumes returns every volume's ID in ID order. IDs run from 1 to nextVD
// with none missing: a failed provision gives its ID back.
func (cp *ControlPlane) volumes() []uint32 {
	ids := make([]uint32, cp.c.nextVD)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return ids
}

// place picks the block servers for n new segments. Each pick minimizes,
// in order: how many of this call's picks its rack (the failure domain)
// already holds, how many segments the segment table maps to it (this
// call's picks included), then its place in the cluster's block servers,
// which are in (rack, addr) order. Evacuated servers are skipped. With
// n <= 0 the stripe set comes back: the segment table wants a non-empty
// one even when it maps nothing.
func (cp *ControlPlane) place(n int) ([]uint32, error) {
	if n <= 0 {
		return cp.c.stripeSet(), nil
	}
	load := map[uint32]int{}
	for _, id := range cp.volumes() {
		for _, ref := range cp.c.segs.Refs(id) {
			load[ref.Server]++
		}
	}
	rackUsed := map[int]int{}
	out := make([]uint32, 0, n)
	for len(out) < n {
		var best uint32
		for _, b := range cp.c.blocks {
			addr := b.Host.Addr()
			if cp.evacuated[addr] {
				continue
			}
			if best != 0 {
				used, bestUsed := rackUsed[simnet.AddrRack(addr)], rackUsed[simnet.AddrRack(best)]
				if used > bestUsed || used == bestUsed && load[addr] >= load[best] {
					continue
				}
			}
			best = addr
		}
		if best == 0 {
			return nil, fmt.Errorf("every block server is evacuated (%d segments to place)", n)
		}
		rackUsed[simnet.AddrRack(best)]++
		load[best]++
		out = append(out, best)
	}
	return out, nil
}

// CreateVolume provisions a volume of sizeBytes for tenant on compute
// computeIdx, its segments spread across block-server failure domains.
// sizeBytes 0 is legal (a segmentless volume); an empty tenant binds none.
func (cp *ControlPlane) CreateVolume(computeIdx int, tenant string, sizeBytes uint64, qos sa.QoSSpec) (*VDisk, error) {
	if computeIdx < 0 || computeIdx >= len(cp.c.computes) {
		return nil, fmt.Errorf("ebs: create volume on compute %d of %d", computeIdx, len(cp.c.computes))
	}
	servers, err := cp.place(int((sizeBytes + sa.SegmentBytes - 1) / sa.SegmentBytes))
	if err != nil {
		return nil, fmt.Errorf("ebs: create volume: %w", err)
	}
	vd, err := cp.c.provisionOn(computeIdx, sizeBytes, qos, servers)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		vd.agent.SetTenant(vd.ID, tenant)
	}
	return vd, nil
}

// SetTenantQoS applies a tenant's aggregate service level on every compute
// agent, live-retuning pacers that already have I/Os booked. Enforcement is
// per hypervisor, like production SA-level QoS: each compute's disks bound
// to the tenant share that agent's pacer.
func (cp *ControlPlane) SetTenantQoS(tenant string, spec sa.QoSSpec) {
	for _, cs := range cp.c.computes {
		cs.Agent.SetTenantQoS(tenant, spec)
	}
}

// MigrateSegment moves segment segIdx of volume volID to a caller-chosen
// block server — the unplanned-degradation path, metadata-only since chunk
// replicas stay put. An evacuated target is refused: the move would undo
// the evacuation.
func (cp *ControlPlane) MigrateSegment(volID uint32, segIdx int, toAddr uint32) error {
	if cp.evacuated[toAddr] {
		return fmt.Errorf("ebs: migrate segment %d of vdisk %d: block server %d is evacuated", segIdx, volID, toAddr)
	}
	return cp.migrate(volID, segIdx, toAddr)
}

// migrate performs the cutover. Order matters: the new owner adopts, then
// the segment table remaps, then the old owner releases;
// an I/O rejected by the old owner therefore always finds the new mapping
// when it re-resolves. A segment already on toAddr stays put.
func (cp *ControlPlane) migrate(volID uint32, segIdx int, toAddr uint32) error {
	refs := cp.c.segs.Refs(volID)
	if segIdx < 0 || segIdx >= len(refs) {
		return fmt.Errorf("ebs: migrate segment %d of vdisk %d: out of range [0,%d)", segIdx, volID, len(refs))
	}
	ref := refs[segIdx]
	if ref.Server == toAddr {
		return nil
	}
	from, ok := cp.blockByAddr[ref.Server]
	if !ok {
		return fmt.Errorf("ebs: migrate segment %d: unknown source %d", ref.SegmentID, ref.Server)
	}
	to, ok := cp.blockByAddr[toAddr]
	if !ok {
		return fmt.Errorf("ebs: migrate segment %d: unknown target %d", ref.SegmentID, toAddr)
	}
	if err := to.AdoptSegment(ref.SegmentID, from.ReplicaSet(ref.SegmentID)); err != nil {
		return err
	}
	if err := cp.c.segs.Remap(volID, segIdx, toAddr); err != nil {
		return err
	}
	from.ReleaseSegment(ref.SegmentID, toAddr)
	cp.rec.Record(cp.c.Eng.Now().Duration(), trace.EvCutover, ref.SegmentID, uint64(toAddr))
	return nil
}

// EvacuateBlockServer live-migrates every segment off block server
// blockIdx (a planned drain of the segment-owning layer), each to where
// placement would put a new one, and excludes the server from future
// placement and migration. Foreground I/O rides through on the not-owner
// retry path.
func (cp *ControlPlane) EvacuateBlockServer(blockIdx int) error {
	if blockIdx < 0 || blockIdx >= len(cp.c.blocks) {
		return fmt.Errorf("ebs: evacuate block server %d of %d", blockIdx, len(cp.c.blocks))
	}
	addr := cp.c.blocks[blockIdx].Host.Addr()
	cp.evacuated[addr] = true
	for _, id := range cp.volumes() {
		for i, ref := range cp.c.segs.Refs(id) {
			if ref.Server != addr {
				continue
			}
			target, err := cp.place(1)
			if err != nil {
				// Only the first place can fail, so nothing has moved.
				delete(cp.evacuated, addr)
				return fmt.Errorf("ebs: evacuating block server %d: %w", blockIdx, err)
			}
			if err := cp.migrate(id, i, target[0]); err != nil {
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
// every segment with a replica there, the replica is rebuilt block by
// block on a replacement chunk server (copy traffic pays real admission
// and media costs on the source, contending with foreground I/O), then the
// owning block server's replica set cuts over with a survivor as primary. The drained replica is dropped after cutover.
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
	// server, in volume-ID then LBA order — deterministic.
	var plan []*drainSeg
	adopted := map[uint32]int{}
	for _, id := range cp.volumes() {
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
