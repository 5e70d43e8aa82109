package lunasolar

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// TestResponseValidUntilReplyReturns pins the one lifetime rule both
// envelopes follow: a *Response, like a *Message, is valid until the
// function it was passed to returns. The handler replies from one shared
// envelope with a one-entry CRC list and overwrites both the moment reply
// returns, so every stack that sends the response later must have copied
// it at the call. The client must see what was replied: Err, ServerWall and
// SSDTime, and the CRC list where the stack carries one back.
func TestResponseValidUntilReplyReturns(t *testing.T) {
	const (
		wall, ssd = 40 * time.Microsecond, 25 * time.Microsecond
		sum       = 0xc0ffee
	)
	// The stacks that carry a response's CRC list back.
	carriesCRCs := map[string]bool{"rdma": true, "loopback": true}
	for _, tc := range stackPairs {
		t.Run(tc.name, func(t *testing.T) {
			eng, fab := newFabric(1)
			client, server := tc.build(eng, fab)

			crcs := []uint32{sum}
			shared := &transport.Response{ServerWall: wall, SSDTime: ssd, BlockCRCs: crcs}
			server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
				reply(shared)
				*shared = transport.Response{Err: transport.ErrNotOwner, ServerWall: time.Microsecond, SSDTime: time.Microsecond}
				crcs[0] = ^crcs[0]
			})

			data := bytes.Repeat([]byte{5}, wire.BlockSize)
			var got transport.Response
			var gotCRCs []uint32
			fired := 0
			client.Call(server.LocalAddr(), &transport.Message{Op: wire.RPCWriteReq, VDisk: 1, SegmentID: 1, Gen: 1, Data: data},
				func(r *transport.Response) {
					fired++
					got = *r
					gotCRCs = append(gotCRCs, r.BlockCRCs...)
				})
			eng.Run()
			if fired != 1 {
				t.Fatalf("done fired %d times, want 1", fired)
			}
			if got.Err != nil || got.ServerWall != wall || got.SSDTime != ssd {
				t.Fatalf("client saw Err %v, ServerWall %v, SSDTime %v; the handler replied nil, %v, %v",
					got.Err, got.ServerWall, got.SSDTime, wall, ssd)
			}
			if carriesCRCs[tc.name] && (len(gotCRCs) != 1 || gotCRCs[0] != sum) {
				t.Fatalf("client saw BlockCRCs %x, the handler replied [%x]", gotCRCs, sum)
			}
		})
	}
}
