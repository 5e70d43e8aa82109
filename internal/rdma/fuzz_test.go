package rdma

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// content is the deterministic payload of an RDMA fuzz call at lba: a write
// carries it, and a read is answered with it.
func content(lba uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(lba) ^ byte(i*7) ^ byte(i>>9)
	}
	return b
}

// FuzzRDMAMessages decodes its input into calls on an RDMA pair: reads and
// writes of 0–128 KiB, so one-packet, header-only and multi-packet messages
// in both directions, from either endpoint, interleaved with engine steps,
// over spines that drop a fuzzed share of packets. Each op is three bytes:
// bit 0 read or write, bit 1 the caller, bits 2–7 the engine steps to run
// before it, then half its size as a big-endian uint16. Both handlers check
// a write's bytes and answer a read from their pool, as the chunk server
// does. Every call's done must fire exactly once, every
// read must return what its handler replied — copied inside done, since
// the stack recycles the response after — and once the engine drains the
// pool must hold every packet and slab reference again.
func FuzzRDMAMessages(f *testing.F) {
	// One op per line: op byte, then the size in units of two bytes.
	f.Add([]byte{
		0x01, 0x08, 0x00, // read 4 KiB from the client: one packet
		0x00, 0x08, 0x00, // write 4 KiB
		0x01, 0x80, 0x00, // read 64 KiB: sixteen packets
		0x00, 0x00, 0x00, // header-only write
		0x01, 0x00, 0x00, // header-only read
		0x02, 0x80, 0x01, // write 64 KiB + 2 from the server
	}, byte(0))
	f.Add([]byte{
		0x15, 0x08, 0x00, // read 4 KiB after 5 steps
		0x22, 0xff, 0xff, // write 128 KiB - 2 from the server after 8
		0x43, 0x40, 0x00, // read 32 KiB from the server after 16
		0x01, 0x08, 0x01, // read 4 KiB + 2
		0x80, 0x10, 0x00, // write 8 KiB after 32
	}, byte(5))
	f.Add([]byte{
		0x05, 0x80, 0x00, 0x07, 0x08, 0x00, 0x04, 0xff, 0xff, 0x06, 0x00, 0x01,
		0x09, 0x08, 0x00, 0x0b, 0x80, 0x00, 0x08, 0x08, 0x00, 0x0a, 0x20, 0x00,
	}, byte(10))
	f.Fuzz(func(t *testing.T, ops []byte, loss byte) {
		p := newPair(t, DefaultParams())
		rate := float64(loss%11) / 100
		p.fab.Spine(0, 0, 0).SetDropRate(rate)
		p.fab.Spine(0, 0, 1).SetDropRate(rate)
		handler := func(s *Stack) transport.Handler {
			return func(src uint32, req *transport.Message, reply func(*transport.Response)) {
				if req.Op == wire.RPCReadReq {
					slab := s.Pool().GetSlab(req.ReadLen)
					copy(slab.Bytes(), content(req.LBA, req.ReadLen))
					reply(&transport.Response{Data: slab.Bytes(), Payload: slab})
					slab.Release()
					return
				}
				if !bytes.Equal(req.Data, content(req.LBA, len(req.Data))) {
					t.Errorf("write at %d: handler saw other bytes than were sent", req.LBA)
				}
				reply(&transport.Response{})
			}
		}
		p.client.SetHandler(handler(p.client))
		p.server.SetHandler(handler(p.server))

		n := min(len(ops)/3, 32)
		fired := make([]int, n)
		got := make([][]byte, n)
		sizes := make([]int, n)
		reads := make([]bool, n)
		for i := 0; i < n; i++ {
			op := ops[3*i]
			reads[i] = op&1 != 0
			sizes[i] = 2 * int(binary.BigEndian.Uint16(ops[3*i+1:]))
			from, to := p.client, p.server
			if op&2 != 0 {
				from, to = to, from
			}
			for k := 0; k < int(op>>2) && p.eng.Step(); k++ {
			}
			lba := uint64(i) << 20
			req := &transport.Message{Op: wire.RPCWriteReq, LBA: lba, Data: content(lba, sizes[i])}
			if reads[i] {
				req = &transport.Message{Op: wire.RPCReadReq, LBA: lba, ReadLen: sizes[i]}
			}
			from.Call(to.LocalAddr(), req, func(r *transport.Response) {
				fired[i]++
				if r.Err != nil {
					t.Errorf("call %d: %v", i, r.Err)
				}
				got[i] = slices.Clone(r.Data)
			})
		}
		p.eng.RunFor(time.Minute)
		for i := range fired {
			if fired[i] != 1 {
				t.Fatalf("call %d (read %v, %d bytes): done fired %d times", i, reads[i], sizes[i], fired[i])
			}
			if reads[i] && !bytes.Equal(got[i], content(uint64(i)<<20, sizes[i])) {
				t.Fatalf("read %d (%d bytes) returned other bytes than its handler replied", i, sizes[i])
			}
		}
		if out := p.fab.Pool().Outstanding(); out != 0 {
			t.Fatalf("%d packets/slab references outstanding once the engine drained", out)
		}
	})
}
