// Package blockserver implements the storage cluster's block servers: the
// FN-facing services that own segments, aggregate and sequentialize block
// writes, fan each write out to three chunk-server replicas over the
// backend network, and serve reads from the primary replica (Fig. 2, steps
// 2–4). Residence time and the media portion are measured here and returned
// in-band for the Fig. 6 latency attribution.
package blockserver

import (
	"fmt"
	"slices"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Replicas is the replication factor ("multiple (e.g., 3) copies").
const Replicas = 3

// Params is the block-server cost model.
type Params struct {
	PerRPCCPU   time.Duration // request parse, commit bookkeeping
	PerBlockCPU time.Duration // per-block log append / index update
}

// DefaultParams returns the standard cost model.
func DefaultParams() Params {
	return Params{PerRPCCPU: 2 * time.Microsecond, PerBlockCPU: 400 * time.Nanosecond}
}

// Server is one block server.
type Server struct {
	eng      *sim.Engine
	name     string
	cores    *sim.Server
	bn       transport.Client
	replicas []uint32 // chunk-server addresses, len >= Replicas
	params   Params

	released        map[uint64]uint32   // segment → new owner; see ReleaseSegment
	replicaOverride map[uint64][]uint32 // pinned replica sets; see SetReplicaSet
	free            *sim.Pool[request]

	writes, reads uint64
}

// New creates a block server serving requests from fn, replicating over bn
// to the given chunk servers. fn's handler is installed here.
func New(eng *sim.Engine, name string, fn transport.Stack, bn transport.Client, replicas []uint32, cores *sim.Server, params Params) (*Server, error) {
	if len(replicas) < Replicas {
		return nil, fmt.Errorf("blockserver %s: need >= %d chunk replicas, got %d", name, Replicas, len(replicas))
	}
	s := &Server{
		eng:             eng,
		name:            name,
		cores:           cores,
		bn:              bn,
		replicas:        replicas,
		params:          params,
		free:            sim.NewPool[request](eng),
		released:        map[uint64]uint32{},
		replicaOverride: map[uint64][]uint32{},
	}
	fn.SetHandler(s.Handle)
	return s, nil
}

// Stats returns served write and read RPC counts.
func (s *Server) Stats() (writes, reads uint64) { return s.writes, s.reads }

// replicaSet returns the chunk servers for a segment (deterministic by
// segment ID so all writers agree), unless the control plane pinned an
// override during a drain. The derived set is written into buf — the
// caller's stack — so the per-I/O lookup does not allocate; an override is
// returned as stored and must not be modified.
func (s *Server) replicaSet(segmentID uint64, buf *[Replicas]uint32) []uint32 {
	if set, ok := s.replicaOverride[segmentID]; ok {
		return set
	}
	base := int(segmentID) % len(s.replicas)
	for i := range buf {
		buf[i] = s.replicas[(base+i)%len(s.replicas)]
	}
	return buf[:]
}

// ReplicaSet exposes the current chunk replica set of a segment to the
// control plane (drain planning).
func (s *Server) ReplicaSet(segmentID uint64) []uint32 {
	var buf [Replicas]uint32
	return append([]uint32(nil), s.replicaSet(segmentID, &buf)...)
}

// SetReplicaSet pins a segment's chunk replica set: exactly Replicas
// distinct chunk servers. The control plane calls it at a drain cutover,
// after the replacement replica has been rebuilt; set[0] must be a survivor
// holding the full segment, since reads are served from the primary.
func (s *Server) SetReplicaSet(segmentID uint64, set []uint32) error {
	ok := len(set) == Replicas
	for i := 1; ok && i < len(set); i++ {
		ok = !slices.Contains(set[:i], set[i])
	}
	if !ok {
		return fmt.Errorf("blockserver %s: replica set %v for segment %d is not %d distinct members",
			s.name, set, segmentID, Replicas)
	}
	s.replicaOverride[segmentID] = append([]uint32(nil), set...)
	return nil
}

// ReleaseSegment marks a segment as handed to newOwner: every later
// request for it is rejected with transport.ErrNotOwner so in-flight
// clients re-resolve the (generation-bumped) segment table and retry.
func (s *Server) ReleaseSegment(segmentID uint64, newOwner uint32) {
	s.released[segmentID] = newOwner
	delete(s.replicaOverride, segmentID)
}

// AdoptSegment installs a migrated-in segment: clears any stale release
// record (a segment may migrate back) and pins the replica set it arrives
// with, when overridden at the source.
func (s *Server) AdoptSegment(segmentID uint64, set []uint32) error {
	delete(s.released, segmentID)
	if set != nil {
		return s.SetReplicaSet(segmentID, set)
	}
	return nil
}

// request is one FN request from its CPU charge to its reply: a pooled
// record whose legs are the BN calls it fans out, one per replica for a
// write and one to the primary for a read. Every leg passes the FN's req
// itself, uncopied: req is valid until reply, which runs after the last leg
// has answered, and each BN stack reads req before its call can be answered.
type request struct {
	s         *Server
	t0        sim.Time
	req       *transport.Message
	reply     func(*transport.Response)
	remaining int                // legs still out
	resp      transport.Response // the reply: first error, slowest leg's SSDTime, a read's primary data
	wantFold  uint32
	checkFold bool
	legs      [Replicas]leg
}

// leg is one BN call; done is bound once, when the record is built.
type leg struct {
	r     *request
	chunk uint32
	done  func(*transport.Response)
}

// Handle is the FN request handler (exported for tests and for wiring
// through additional dispatch layers).
//
//lint:hotpath
func (s *Server) Handle(src uint32, req *transport.Message, reply func(*transport.Response)) {
	r := s.free.Get()
	if r == nil {
		r = s.newRequest()
	}
	r.t0, r.req, r.reply = s.eng.Now(), req, reply
	blocks := wire.Blocks(len(req.Data))
	if req.Op == wire.RPCReadReq {
		blocks = wire.Blocks(req.ReadLen)
	}
	s.cores.SubmitArg(s.params.PerRPCCPU+time.Duration(blocks)*s.params.PerBlockCPU, serve, r)
}

// newRequest builds a record for the pool, binding each leg's done once.
func (s *Server) newRequest() *request {
	r := &request{s: s}
	for i := range r.legs {
		r.legs[i].r, r.legs[i].done = r, r.legs[i].complete
	}
	return r
}

// serve runs once the request's CPU charge has elapsed: it rejects the
// request, or sends a leg to each of the chunk servers it needs.
//
//lint:hotpath
func serve(a any) {
	r := a.(*request)
	s, req := r.s, r.req
	if _, gone := s.released[req.SegmentID]; gone || (req.Op != wire.RPCWriteReq && req.Op != wire.RPCReadReq) {
		r.reject()
		return
	}
	legs := 1 // a read is served from the primary
	if req.Op == wire.RPCWriteReq {
		// A write acknowledges once every replica has committed (step 3→4
		// in Fig. 2). Its one-touch CRC list is folded once, with the
		// memoized 4 KiB GF(2) combine, and every replica's commit fold must
		// match: a check of the BN path that touches no payload byte.
		s.writes++
		if r.checkFold = len(req.BlockCRCs) > 0; r.checkFold {
			r.wantFold = crc.CombineBlocks(req.BlockCRCs, wire.BlockSize)
		}
		legs = Replicas
	} else {
		s.reads++
	}
	var buf [Replicas]uint32
	r.remaining = legs
	for i, chunk := range s.replicaSet(req.SegmentID, &buf)[:legs] {
		r.legs[i].chunk = chunk
		s.bn.Call(chunk, req, r.legs[i].done)
	}
}

// reject answers a request serve does not fan out — one for a segment
// released to another owner, or with an unknown op — with an error.
func (r *request) reject() {
	s, req := r.s, r.req
	if newOwner, gone := s.released[req.SegmentID]; gone {
		r.resp.Err = fmt.Errorf("blockserver %s: segment %d released to %d: %w",
			s.name, req.SegmentID, newOwner, transport.ErrNotOwner)
	} else {
		r.resp.Err = fmt.Errorf("blockserver %s: bad op %d", s.name, req.Op)
	}
	r.finish()
}

// complete folds one leg's response into its request. The last leg answers
// the request: a read with the primary's data, the slab behind it and its
// stored CRCs, forwarded by reference. The FN reply runs here, before this
// leg's response goes back to its stack, and the FN stack retains the slab
// for as long as its frames carry the bytes.
//
//lint:hotpath
func (l *leg) complete(resp *transport.Response) {
	r := l.r
	if r.checkFold && resp.Err == nil && len(resp.BlockCRCs) == 1 && resp.BlockCRCs[0] != r.wantFold {
		l.foldMismatch(resp.BlockCRCs[0])
	}
	if r.resp.Err == nil {
		r.resp.Err = resp.Err
	}
	r.resp.SSDTime = max(r.resp.SSDTime, resp.SSDTime)
	if r.remaining--; r.remaining > 0 {
		return
	}
	r.resp.ServerWall = r.s.eng.Now().Sub(r.t0)
	if r.req.Op == wire.RPCReadReq {
		r.resp.Data, r.resp.Payload, r.resp.BlockCRCs = resp.Data, resp.Payload, resp.BlockCRCs
	}
	r.finish()
}

// foldMismatch fails the request with a replica commit whose CRC fold
// disagrees with the request's one-touch metadata.
func (l *leg) foldMismatch(got uint32) {
	r, s := l.r, l.r.s
	if r.resp.Err == nil {
		r.resp.Err = fmt.Errorf("blockserver %s: replica %d commit CRC fold mismatch: got %08x want %08x",
			s.name, l.chunk, got, r.wantFold)
	}
}

// finish replies from the record, then returns it to the pool.
//
//lint:hotpath
func (r *request) finish() {
	s := r.s
	r.reply(&r.resp)
	*r = request{s: s, legs: r.legs}
	s.free.Put(r)
}
