package chunkserver

import (
	"errors"
	"fmt"
	"slices"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Service exposes a chunk server over a backend-network transport: it
// splits write RPCs into blocks for the store, reassembles read ranges into
// buffers drawn from the BN stack's pool, and reports its residence time as
// the SSD component of the distributed trace.
type Service struct {
	eng  *sim.Engine
	cs   *Server
	pool *simnet.PacketPool

	free *sim.Pool[request]
}

// NewService installs the chunk server as bn's request handler.
func NewService(eng *sim.Engine, cs *Server, bn transport.Stack) *Service {
	s := &Service{eng: eng, cs: cs, pool: bn.Pool(), free: sim.NewPool[request](eng)}
	bn.SetHandler(s.Handle)
	return s
}

var errEmptyRequest = errors.New("chunkserver: request carries no blocks")

// Handle serves one BN request.
func (s *Service) Handle(src uint32, req *transport.Message, reply func(*transport.Response)) {
	switch {
	case req.Op == wire.RPCWriteReq && len(req.Data) > 0:
		s.write(req, reply)
	case req.Op == wire.RPCReadReq && req.ReadLen > 0:
		s.read(req, reply)
	default:
		s.reject(req, reply)
	}
}

// reject answers a request the store cannot act on — no blocks to write,
// nothing (or less than nothing) to read, an unknown opcode — at once with
// an error: the caller's transport holds a pending entry per request and
// would otherwise wait forever.
func (s *Service) reject(req *transport.Message, reply func(*transport.Response)) {
	err := errEmptyRequest
	if req.Op != wire.RPCWriteReq && req.Op != wire.RPCReadReq {
		err = fmt.Errorf("chunkserver %s: bad op %d", s.cs.name, req.Op)
	}
	reply(&transport.Response{Err: err})
}

// request is one BN request on its way through the store: a pooled record
// each of whose blocks rides a blockOp back to blockDone, so the store runs
// no closure per block or per request.
type request struct {
	svc       *Service
	t0        sim.Time
	reply     func(*transport.Response)
	remaining int
	// resp is the reply, built in place: Err is the first block error, Data
	// a read's reassembly buffer (nil for a write), a pooled slab held in
	// Payload until reply returns. Its BlockCRCs are crcs —
	// a write's one-entry fold, or a read's stored per-block CRCs until a
	// block fails — whose backing array is kept across recycling.
	resp transport.Response
	crcs []uint32
}

func (s *Service) get(reply func(*transport.Response), n int) *request {
	r := s.free.Get()
	if r == nil {
		r = &request{svc: s, crcs: make([]uint32, 0, 1)} // room for a write's fold
	}
	r.t0, r.reply, r.remaining = s.eng.Now(), reply, n
	return r
}

// write hands each block of a write request to the store.
//
//lint:hotpath
func (s *Service) write(req *transport.Message, reply func(*transport.Response)) {
	n := wire.Blocks(len(req.Data))
	r := s.get(reply, n)
	// One-touch CRC: the per-block CRCs computed at SA ingress, when the
	// request carries them, are the store's expected values, so the service
	// never re-walks the payload. The reply echoes their GF(2) fold (no data
	// byte touched) for the block server's replica cross-check.
	carried := req.BlockCRCs
	if len(carried) != n {
		carried = nil
	} else {
		r.crcs = r.crcs[:1]
		r.crcs[0] = crc.CombineBlocks(carried, wire.BlockSize)
		r.resp.BlockCRCs = r.crcs
	}
	// req and its Data are the transport's until reply returns; the store
	// copies each block at the call, so nothing of req is kept.
	for i := 0; i < n; i++ {
		lo := i * wire.BlockSize
		block := req.Data[lo:min(lo+wire.BlockSize, len(req.Data))]
		expect := uint32(0)
		if carried != nil {
			expect = carried[i]
		} else {
			expect = crc.Raw(block)
		}
		o := s.cs.getOp(opWrite, req.SegmentID, req.LBA+uint64(lo))
		o.req, o.idx = r, i
		s.cs.write(o, req.Gen, block, expect)
	}
}

func (s *Service) read(req *transport.Message, reply func(*transport.Response)) {
	n := wire.Blocks(req.ReadLen)
	r := s.get(reply, n)
	r.resp.Payload = s.pool.GetSlab(req.ReadLen)
	r.resp.Data = r.resp.Payload.Bytes()
	// One-touch CRC, read direction: the stored CRCs ride back with the
	// data for upstream hops to reuse, but only when every block's stored
	// bytes exactly fill its slot; otherwise CRC and data would disagree.
	r.crcs = slices.Grow(r.crcs, n)[:n]
	r.resp.BlockCRCs = r.crcs
	for i := 0; i < n; i++ {
		o := s.cs.getOp(opRead, req.SegmentID, req.LBA+uint64(i*wire.BlockSize))
		o.req, o.idx = r, i
		s.cs.submit(o)
	}
}

// blockDone counts block i's completion: a write's commit, or a read's
// stored bytes, valid only here, which it copies into place — zeros past
// them, since a recycled buffer holds stale bytes. The last block finishes
// the request.
//
//lint:hotpath
func (r *request) blockDone(i int, data []byte, rawCRC uint32, err error) {
	if err != nil && r.resp.Err == nil {
		r.resp.Err = err
	}
	if buf := r.resp.Data; buf != nil {
		lo := i * wire.BlockSize
		slot := buf[lo:min(lo+wire.BlockSize, len(buf))]
		clear(slot[copy(slot, data):])
		r.crcs[i] = rawCRC
		if err != nil || len(data) != len(slot) {
			r.resp.BlockCRCs = nil
		}
	}
	r.remaining--
	if r.remaining == 0 {
		r.finish()
	}
}

// finish answers the request from the record, then recycles it: the
// response is valid until reply returns, and a read's buffer goes back to
// the pool once every stack that keeps it in flight has let it go.
//
//lint:hotpath
func (r *request) finish() {
	s := r.svc
	r.resp.SSDTime = s.eng.Now().Sub(r.t0)
	r.reply(&r.resp)
	r.resp.Payload.Release()
	*r = request{svc: s, crcs: r.crcs[:0]}
	s.free.Put(r)
}
