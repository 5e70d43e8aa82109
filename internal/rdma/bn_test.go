package rdma

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"lunasolar/internal/chunkserver"
	"lunasolar/internal/crc"
	"lunasolar/internal/simnet"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// newBNPair is the backend network in miniature: the client stands in for a
// block server, the server endpoint fronts a chunk server.
func newBNPair(t *testing.T) *pair {
	p := newPair(t, DefaultParams())
	chunkserver.NewService(p.eng, chunkserver.New(p.eng, "cs0", chunkserver.DefaultSSD()), p.server)
	return p
}

func pattern(n int, seed byte) ([]byte, []uint32) {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	var crcs []uint32
	for lo := 0; lo < n; lo += wire.BlockSize {
		crcs = append(crcs, crc.Raw(b[lo:min(lo+wire.BlockSize, n)]))
	}
	return b, crcs
}

// TestRequestByReferenceLeavesNoReference: a one-packet request is handed
// to the handler as the frame's own slab, a 16-packet one is reassembled;
// either way every packet and slab reference is back in the pool once the
// fabric is idle — also when go-back-N has replayed frames whose slab the
// receiver already holds.
func TestRequestByReferenceLeavesNoReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		drop float64
	}{
		{"1-packet", 4 << 10, 0},
		{"16-packet", 64 << 10, 0},
		{"1-packet under loss", 4 << 10, 0.1},
		{"16-packet under loss", 64 << 10, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newBNPair(t)
			p.fab.Spine(0, 0, 0).SetDropRate(tc.drop)
			p.fab.Spine(0, 0, 1).SetDropRate(tc.drop)
			const n = 40
			done := 0
			for i := 0; i < n; i++ {
				data, crcs := pattern(tc.size, byte(i))
				req := &transport.Message{Op: wire.RPCWriteReq, SegmentID: 1, LBA: uint64(i) * uint64(tc.size), Gen: 1,
					Data: data, BlockCRCs: crcs}
				p.client.Call(p.server.LocalAddr(), req, func(r *transport.Response) {
					if r.Err != nil {
						t.Errorf("write %d: %v", i, r.Err)
					}
					done++
				})
			}
			p.eng.RunFor(30 * time.Second)
			if done != n {
				t.Fatalf("%d of %d writes completed", done, n)
			}
			if tc.drop > 0 && p.client.Retransmits == 0 {
				t.Fatal("loss produced no go-back-N rewind; the case tests nothing")
			}
			if out := p.fab.Pool().Outstanding(); out != 0 {
				t.Fatalf("%d packets/slab references outstanding after drain", out)
			}
		})
	}
}

// TestResponsesSurviveLaterTraffic: a response — envelope, CRC list and
// the pooled Data its Payload backs — is the stack's until done returns,
// so done copies what it keeps. A copy taken inside done must read back
// intact however much traffic follows: a Data a stack recycled before done
// returned would not.
func TestResponsesSurviveLaterTraffic(t *testing.T) {
	p := newBNPair(t)
	dst := p.server.LocalAddr()
	keep := func(into *transport.Response) func(*transport.Response) {
		return func(r *transport.Response) {
			*into = *r
			into.Data = slices.Clone(r.Data)
			into.Payload = nil
			into.BlockCRCs = slices.Clone(r.BlockCRCs)
		}
	}
	const n = 16
	blocks := make([][]byte, n)
	folds := make([]uint32, n)
	writes := make([]transport.Response, n)
	for i := range blocks {
		var crcs []uint32
		blocks[i], crcs = pattern(4096, byte(i+1))
		folds[i] = crcs[0]
		p.client.Call(dst, &transport.Message{Op: wire.RPCWriteReq, SegmentID: 1, LBA: uint64(i) << 12, Gen: 1,
			Data: blocks[i], BlockCRCs: crcs}, keep(&writes[i]))
		p.eng.Run()
	}
	reads := make([]transport.Response, n)
	for i := range reads {
		p.client.Call(dst, &transport.Message{Op: wire.RPCReadReq, SegmentID: 1, LBA: uint64(i) << 12, ReadLen: 4096},
			keep(&reads[i]))
		p.eng.Run()
	}
	// More traffic on the same QP, both directions, all sizes: every pooled
	// frame, buffer and job record changes hands several times.
	for i := 0; i < 64; i++ {
		data, crcs := pattern(4096<<(i%3), byte(0x80+i))
		p.client.Call(dst, &transport.Message{Op: wire.RPCWriteReq, SegmentID: 2, LBA: uint64(i) << 14, Gen: 1,
			Data: data, BlockCRCs: crcs}, func(*transport.Response) {})
		p.client.Call(dst, &transport.Message{Op: wire.RPCReadReq, SegmentID: 2, LBA: uint64(i) << 14, ReadLen: len(data)},
			func(*transport.Response) {})
	}
	p.eng.Run()
	for i := range blocks {
		if w := writes[i]; w.Err != nil || len(w.BlockCRCs) != 1 || w.BlockCRCs[0] != folds[i] {
			t.Fatalf("write %d: response's CRC fold wrong: %+v", i, w)
		}
		if r := reads[i]; r.Err != nil || !bytes.Equal(r.Data, blocks[i]) ||
			len(r.BlockCRCs) != 1 || r.BlockCRCs[0] != folds[i] {
			t.Fatalf("read %d: response's data changed under later traffic, or its CRC was wrong", i)
		}
	}
}

// TestRelayRetainsPooledResponse: a read response reaches done in pooled
// memory — a one-packet one as its frame's slab, a 16-packet one
// reassembled — with that slab as its Payload, which the stack recycles
// once done returns. A relay that retains the Payload inside done, as the
// block server's FN reply does, still reads the original bytes after more
// traffic of every size has drawn on the pool in both directions, and its
// Release returns the last reference without a pool miss.
func TestRelayRetainsPooledResponse(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{
		{"1-packet", 4 << 10},
		{"16-packet", 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newBNPair(t)
			dst, pool := p.server.LocalAddr(), p.fab.Pool()
			traffic := func() {
				for i := 0; i < 64; i++ {
					data, crcs := pattern(4096<<(i%5), byte(0x80+i))
					p.client.Call(dst, &transport.Message{Op: wire.RPCWriteReq, SegmentID: 2, LBA: uint64(i) << 16, Gen: 1,
						Data: data, BlockCRCs: crcs}, func(*transport.Response) {})
					p.eng.Run()
					p.client.Call(dst, &transport.Message{Op: wire.RPCReadReq, SegmentID: 2, LBA: uint64(i) << 16, ReadLen: len(data)},
						func(*transport.Response) {})
					p.eng.Run()
				}
			}
			block, crcs := pattern(tc.size, 1)
			p.client.Call(dst, &transport.Message{Op: wire.RPCWriteReq, SegmentID: 1, Gen: 1, Data: block, BlockCRCs: crcs},
				func(*transport.Response) {})
			// relayed reads the block back, retains the response inside done
			// and checks the bytes after the traffic, then releases.
			relayed := func() {
				var relay *simnet.Slab
				var held []byte
				p.client.Call(dst, &transport.Message{Op: wire.RPCReadReq, SegmentID: 1, ReadLen: tc.size},
					func(r *transport.Response) {
						if r.Err != nil || r.Payload == nil || len(r.Data) != tc.size {
							t.Fatalf("read: err %v, Payload %v, %d bytes; want a pooled %d-byte response", r.Err, r.Payload, len(r.Data), tc.size)
						}
						relay, held = r.Payload.Retain(), r.Data
					})
				p.eng.Run()
				traffic()
				if !bytes.Equal(held, block) {
					t.Fatal("the retained response's bytes changed under later traffic")
				}
				relay.Release()
				if out := pool.Outstanding(); out != 0 {
					t.Fatalf("%d packets/slab references outstanding after the relay's Release", out)
				}
			}
			traffic()
			relayed() // warms every pool the measured round draws on
			misses := pool.News()
			relayed()
			if n := pool.News() - misses; n != 0 {
				t.Fatalf("%d pool misses once warm", n)
			}
		})
	}
}

// TestRequestValidUntilReply: the request a handler sees is the frame's
// slab and a pooled envelope, both the handler's until its reply returns —
// however late that is, and whatever else the QP carries in between.
func TestRequestValidUntilReply(t *testing.T) {
	p := newPair(t, DefaultParams())
	type held struct {
		req   *transport.Message
		reply func(*transport.Response)
	}
	var parked []held
	p.server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		parked = append(parked, held{req, reply})
	})
	const n = 8
	blocks := make([][]byte, n)
	done := 0
	for i := range blocks {
		var crcs []uint32
		blocks[i], crcs = pattern(4096, byte(i+1))
		p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, LBA: uint64(i) << 12,
			Data: blocks[i], BlockCRCs: crcs}, func(*transport.Response) { done++ })
	}
	p.eng.Run() // all eight delivered and acknowledged at the transport; none answered
	if len(parked) != n {
		t.Fatalf("handler saw %d of %d requests", len(parked), n)
	}
	for i, h := range parked {
		if h.req.LBA != uint64(i)<<12 || !bytes.Equal(h.req.Data, blocks[i]) ||
			len(h.req.BlockCRCs) != 1 || h.req.BlockCRCs[0] != crc.Raw(blocks[i]) {
			t.Fatalf("request %d changed while its reply was pending", i)
		}
	}
	for _, h := range parked {
		h.reply(&transport.Response{})
	}
	p.eng.Run()
	if done != n {
		t.Fatalf("%d of %d calls completed", done, n)
	}
	if out := p.fab.Pool().Outstanding(); out != 0 {
		t.Fatalf("%d packets/slab references outstanding after the replies", out)
	}
}

// TestReplyCopiesTheResponse pins the other half of the handler contract:
// the stack sends the response once the per-message CPU charge has elapsed,
// long after reply returns, so reply copies the envelope — a handler may
// reuse its Response at once. Data is handed over and stays the handler's
// buffer.
func TestReplyCopiesTheResponse(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
		resp := &transport.Response{Data: []byte("replied")}
		reply(resp)
		resp.Data = []byte("scribbled")
	})
	var got []byte
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCReadReq, ReadLen: 8},
		func(r *transport.Response) { got = slices.Clone(r.Data) })
	p.eng.Run()
	if string(got) != "replied" {
		t.Fatalf("client saw %q: the stack read the Response after reply returned", got)
	}
}

// TestSwallowedReadIsSeenByTheRecordGate is the leak the packet gate cannot
// see: a handler that swallows a read request — no payload, so no slab is
// retained for it — and never calls reply. Every frame was acknowledged and
// released, so the engine drains and the packet pool balances; only the
// engine's record count still holds the request's rpcJob.
func TestSwallowedReadIsSeenByTheRecordGate(t *testing.T) {
	p := newPair(t, DefaultParams())
	p.server.SetHandler(func(uint32, *transport.Message, func(*transport.Response)) {})
	answered := false
	p.client.Call(p.server.LocalAddr(), &transport.Message{Op: wire.RPCReadReq, ReadLen: 4096},
		func(*transport.Response) { answered = true })
	p.eng.Run()
	if answered {
		t.Fatal("the swallowed request was answered")
	}
	if n := p.eng.Pending(); n != 0 {
		t.Fatalf("%d events pending, want a drained engine", n)
	}
	if out := p.fab.Pool().Outstanding(); out != 0 {
		t.Fatalf("%d packets/slab references outstanding, want 0", out)
	}
	if out := p.eng.PoolOutstanding(); out != 1 {
		t.Fatalf("PoolOutstanding() = %d, want 1: the rpcJob the handler never replied to", out)
	}
}
