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

	freeWrites *sim.Pool[writeReq]
}

// NewService installs the chunk server as bn's request handler.
func NewService(eng *sim.Engine, cs *Server, bn transport.Stack) *Service {
	s := &Service{eng: eng, cs: cs, freeWrites: sim.NewPool[writeReq](eng)}
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

// writeReq collects the block commits of one write RPC. Records are pooled
// and blockDone is bound once per record, so a write costs the store no
// closure per block.
type writeReq struct {
	svc       *Service
	t0        sim.Time
	reply     func(*transport.Response)
	remaining int
	firstErr  error
	fold      uint32
	hasFold   bool
	blockDone func(err error)
}

func (s *Service) getWrite() *writeReq {
	if w := s.freeWrites.Get(); w != nil {
		return w
	}
	w := &writeReq{svc: s}
	w.blockDone = w.onBlock
	return w
}

func (s *Service) write(req *transport.Message, reply func(*transport.Response)) {
	n := (len(req.Data) + wire.BlockSize - 1) / wire.BlockSize
	// One-touch CRC: when the request carries the per-block CRCs
	// computed at SA ingress, they become the store's expected values —
	// the device boundary verifies end-to-end against the ingress hash
	// and the service never re-walks the payload. The reply echoes a
	// GF(2) fold of the committed list (one Combine per block, no data
	// bytes touched) for the block server's replica cross-check.
	carried := req.BlockCRCs
	if len(carried) != n {
		carried = nil
	}
	w := s.getWrite()
	w.t0, w.reply, w.remaining = s.eng.Now(), reply, n
	if carried != nil {
		w.fold, w.hasFold = crc.CombineBlocks(carried, wire.BlockSize), true
	}
	// req and its Data are the transport's until reply returns; the store
	// copies each block at the call, so nothing of req is kept.
	for i := 0; i < n; i++ {
		lo := i * wire.BlockSize
		hi := lo + wire.BlockSize
		if hi > len(req.Data) {
			hi = len(req.Data)
		}
		block := req.Data[lo:hi]
		expect := uint32(0)
		if carried != nil {
			expect = carried[i]
		} else {
			expect = crc.Raw(block)
		}
		s.cs.WriteBlock(req.SegmentID, req.LBA+uint64(lo), req.Gen, block, expect, w.blockDone)
	}
}

// onBlock counts one block commit; the last one answers the RPC. The
// response is built fresh: the transport reads it after reply returns and
// the caller keeps BlockCRCs, so it may alias nothing this record reuses.
func (w *writeReq) onBlock(err error) {
	if err != nil && w.firstErr == nil {
		w.firstErr = err
	}
	w.remaining--
	if w.remaining > 0 {
		return
	}
	s, reply := w.svc, w.reply
	resp := &transport.Response{Err: w.firstErr, SSDTime: s.eng.Now().Sub(w.t0)}
	if w.hasFold {
		resp.BlockCRCs = []uint32{w.fold}
	}
	*w = writeReq{svc: s, blockDone: w.blockDone}
	s.freeWrites.Put(w)
	reply(resp)
}

func (s *Service) read(req *transport.Message, reply func(*transport.Response)) {
	t0 := s.eng.Now()
	n := (req.ReadLen + wire.BlockSize - 1) / wire.BlockSize
	buf := make([]byte, req.ReadLen)
	// One-touch CRC, read direction: each block's stored CRC rides back
	// with the response, so upstream hops (read-serve framing, the
	// client's commit verify) reuse it instead of re-hashing. The list
	// is attached only when every block's stored bytes exactly fill its
	// slot — a short or missing record would desynchronize CRC and data.
	crcs := make([]uint32, n)
	crcsOK := true
	remaining := n
	var firstErr error
	for i := 0; i < n; i++ {
		lo := i * wire.BlockSize
		i := i
		s.cs.ReadBlock(req.SegmentID, req.LBA+uint64(lo), func(data []byte, rawCRC uint32, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			end := (i + 1) * wire.BlockSize
			if end > len(buf) {
				end = len(buf)
			}
			copy(buf[i*wire.BlockSize:end], data) // data is the store's: valid only here
			if err != nil || len(data) != end-i*wire.BlockSize {
				crcsOK = false
			} else {
				crcs[i] = rawCRC
			}
			remaining--
			if remaining == 0 {
				out := crcs
				if !crcsOK {
					out = nil
				}
				reply(&transport.Response{Data: buf, BlockCRCs: out, Err: firstErr, SSDTime: s.eng.Now().Sub(t0)})
			}
		})
	}
}
