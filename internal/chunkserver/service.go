package chunkserver

import (
	"errors"
	"fmt"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// Service exposes a chunk server over a backend-network transport: it
// splits write RPCs into blocks for the store, reassembles read ranges, and
// reports its residence time as the SSD component of the distributed trace.
type Service struct {
	eng *sim.Engine
	cs  *Server

	free *sim.Pool[request]
}

// NewService installs the chunk server as bn's request handler.
func NewService(eng *sim.Engine, cs *Server, bn transport.Stack) *Service {
	s := &Service{eng: eng, cs: cs, free: sim.NewPool[request](eng)}
	bn.SetHandler(s.Handle)
	return s
}

var errEmptyRequest = errors.New("chunkserver: request carries no blocks")

// Handle serves one BN request. A request the store cannot act on — no
// blocks to write, nothing (or less than nothing) to read, an unknown
// opcode — is answered at once with an error: the caller's transport holds
// a pending entry per request and would otherwise wait forever.
func (s *Service) Handle(src uint32, req *transport.Message, reply func(*transport.Response)) {
	switch {
	case req.Op == wire.RPCWriteReq && len(req.Data) > 0:
		s.write(req, reply)
	case req.Op == wire.RPCReadReq && req.ReadLen > 0:
		s.read(req, reply)
	case req.Op == wire.RPCWriteReq || req.Op == wire.RPCReadReq:
		reply(&transport.Response{Err: errEmptyRequest})
	default:
		reply(&transport.Response{Err: fmt.Errorf("chunkserver %s: bad op %d", s.cs.name, req.Op)})
	}
}

// request is one BN request on its way through the store: a pooled record
// each of whose blocks rides a blockOp back to blockDone, so the store runs
// no closure per block or per request.
type request struct {
	svc       *Service
	t0        sim.Time
	reply     func(*transport.Response)
	remaining int
	firstErr  error
	// buf is a read's reassembly buffer (nil for a write). crcs is the CRC
	// list the reply carries when crcsOK: a write's one-entry fold, or a
	// read's stored per-block CRCs. A one-entry list lives in crc1.
	buf    []byte
	crcs   []uint32
	crcsOK bool
	crc1   [1]uint32
}

func (s *Service) get(reply func(*transport.Response), n int) *request {
	r := s.free.Get()
	if r == nil {
		r = &request{svc: s}
	}
	r.t0, r.reply, r.remaining = s.eng.Now(), reply, n
	return r
}

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
		r.crc1[0] = crc.CombineBlocks(carried, wire.BlockSize)
		r.crcs, r.crcsOK = r.crc1[:], true
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
	r.buf = make([]byte, req.ReadLen)
	// One-touch CRC, read direction: the stored CRCs ride back with the
	// data for upstream hops to reuse, but only when every block's stored
	// bytes exactly fill its slot; otherwise CRC and data would disagree.
	r.crcs, r.crcsOK = r.crc1[:], true
	if n > 1 {
		r.crcs = make([]uint32, n)
	}
	for i := 0; i < n; i++ {
		o := s.cs.getOp(opRead, req.SegmentID, req.LBA+uint64(i*wire.BlockSize))
		o.req, o.idx = r, i
		s.cs.submit(o)
	}
}

// blockDone counts block i's completion: a write's commit, or a read's
// stored bytes, valid only here, which it copies into place. The last block
// finishes the request.
func (r *request) blockDone(i int, data []byte, rawCRC uint32, err error) {
	if err != nil && r.firstErr == nil {
		r.firstErr = err
	}
	if r.buf != nil {
		lo := i * wire.BlockSize
		slot := r.buf[lo:min(lo+wire.BlockSize, len(r.buf))]
		copy(slot, data)
		r.crcs[i] = rawCRC
		r.crcsOK = r.crcsOK && err == nil && len(data) == len(slot)
	}
	r.remaining--
	if r.remaining == 0 {
		r.finish()
	}
}

// response is a reply envelope with room for a one-entry CRC list in the
// same allocation.
type response struct {
	transport.Response
	crc1 [1]uint32
}

// finish answers the request. The response is built fresh: the transport
// reads it after reply returns and the caller keeps Data and BlockCRCs, so
// it may alias nothing this record reuses.
func (r *request) finish() {
	s, reply := r.svc, r.reply
	out := &response{Response: transport.Response{Data: r.buf, Err: r.firstErr, SSDTime: s.eng.Now().Sub(r.t0)}}
	if r.crcsOK {
		out.BlockCRCs = r.crcs
		if len(r.crcs) == 1 {
			out.crc1 = r.crc1
			out.BlockCRCs = out.crc1[:]
		}
	}
	*r = request{svc: s}
	s.free.Put(r)
	reply(&out.Response)
}
