package lunasolar

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// TestServerErrorsCrossEveryStack pins the one error contract: whatever
// error a handler replies with reaches the client as a non-nil Err, on every
// stack and for writes and reads alike, and a wrapped ErrNotOwner stays
// distinguishable from any other error. A read's error reply carries data
// too, which must not turn it into a success.
func TestServerErrorsCrossEveryStack(t *testing.T) {
	boom := errors.New("boom")
	moved := fmt.Errorf("segment moved: %w", transport.ErrNotOwner)
	for _, tc := range stackPairs {
		for _, op := range []uint8{wire.RPCWriteReq, wire.RPCReadReq} {
			for _, replied := range []error{boom, moved} {
				name := "write"
				if op == wire.RPCReadReq {
					name = "read"
				}
				if replied == moved {
					name += "/not-owner"
				}
				t.Run(tc.name+"/"+name, func(t *testing.T) {
					eng, fab := newFabric(1)
					client, server := tc.build(eng, fab)

					server.SetHandler(func(src uint32, req *transport.Message, reply func(*transport.Response)) {
						resp := transport.Response{Err: replied}
						if req.Op == wire.RPCReadReq {
							resp.Data = make([]byte, req.ReadLen)
						}
						reply(&resp)
					})
					req := &transport.Message{Op: op, VDisk: 1, SegmentID: 1, Gen: 1, Data: make([]byte, wire.BlockSize)}
					if op == wire.RPCReadReq {
						req.Data, req.ReadLen = nil, wire.BlockSize
					}
					var errs []error
					client.Call(server.LocalAddr(), req, func(r *transport.Response) { errs = append(errs, r.Err) })
					eng.RunFor(time.Second)
					if len(errs) != 1 {
						t.Fatalf("done fired %d times in 1s, want 1", len(errs))
					}
					if errs[0] == nil {
						t.Fatalf("client saw success; the handler replied %v", replied)
					}
					if got, want := errors.Is(errs[0], transport.ErrNotOwner), replied == moved; got != want {
						t.Fatalf("client saw %v: errors.Is(err, ErrNotOwner) = %v, want %v", errs[0], got, want)
					}
				})
			}
		}
	}
}
