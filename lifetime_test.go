package lunasolar

import (
	"bytes"
	"testing"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/core"
	"lunasolar/internal/dpu"
	"lunasolar/internal/rdma"
	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/tcpstack"
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
	for _, tc := range []struct {
		name string
		crcs bool // the stack carries a response's CRC list back
		// stacks builds the client and the server it calls.
		stacks func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack)
	}{
		{"rdma", true, func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
			stack := func(i int) *rdma.Stack {
				return rdma.New(eng, fab.Host(0, i, 0, 0), sim.NewServer(eng, "cpu", 4), nil, rdma.DefaultParams())
			}
			return stack(0), stack(1)
		}},
		{"tcpstack", false, func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
			stack := func(i int) *tcpstack.Stack {
				return tcpstack.New(eng, fab.Host(0, i, 0, 0), sim.NewServer(eng, "cpu", 4), nil, ebs.LunaStackParams())
			}
			return stack(0), stack(1)
		}},
		{"core", false, func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
			dcfg := dpu.DefaultConfig()
			dcfg.Faults = dpu.FaultRates{}
			card := dpu.New(eng, dcfg)
			client := core.New(eng, fab.Host(0, 0, 0, 0), card.CPU, card, core.DefaultParams())
			return client, core.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "cpu", 4), nil, core.ServerParams())
		}},
		{"loopback", true, func(eng *sim.Engine, _ *simnet.Fabric) (transport.Client, transport.Stack) {
			l := transport.NewLoopback(func(d time.Duration, fn func()) { eng.Schedule(d, fn) }, time.Microsecond, 7)
			return l, l
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := simnet.DefaultConfig()
			cfg.RacksPerPod, cfg.HostsPerRack, cfg.SpinesPerPod, cfg.CoresPerDC = 2, 1, 2, 2
			client, server := tc.stacks(eng, simnet.New(eng, cfg))

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
			if tc.crcs && (len(gotCRCs) != 1 || gotCRCs[0] != sum) {
				t.Fatalf("client saw BlockCRCs %x, the handler replied [%x]", gotCRCs, sum)
			}
		})
	}
}
