package lunasolar

import (
	"errors"
	"fmt"
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

// TestServerErrorsCrossEveryStack pins the one error contract: whatever
// error a handler replies with reaches the client as a non-nil Err, on every
// stack and for writes and reads alike, and a wrapped ErrNotOwner stays
// distinguishable from any other error. A read's error reply carries data
// too, which must not turn it into a success.
func TestServerErrorsCrossEveryStack(t *testing.T) {
	boom := errors.New("boom")
	moved := fmt.Errorf("segment moved: %w", transport.ErrNotOwner)
	for _, tc := range []struct {
		name   string
		stacks func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack)
	}{
		{"rdma", func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
			stack := func(i int) *rdma.Stack {
				return rdma.New(eng, fab.Host(0, i, 0, 0), sim.NewServer(eng, "cpu", 4), nil, rdma.DefaultParams())
			}
			return stack(0), stack(1)
		}},
		{"tcpstack", func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
			stack := func(i int) *tcpstack.Stack {
				return tcpstack.New(eng, fab.Host(0, i, 0, 0), sim.NewServer(eng, "cpu", 4), nil, ebs.LunaStackParams())
			}
			return stack(0), stack(1)
		}},
		{"core", func(eng *sim.Engine, fab *simnet.Fabric) (transport.Client, transport.Stack) {
			dcfg := dpu.DefaultConfig()
			dcfg.Faults = dpu.FaultRates{}
			card := dpu.New(eng, dcfg)
			client := core.New(eng, fab.Host(0, 0, 0, 0), card.CPU, card, core.DefaultParams())
			return client, core.New(eng, fab.Host(0, 1, 0, 0), sim.NewServer(eng, "cpu", 4), nil, core.ServerParams())
		}},
		{"loopback", func(eng *sim.Engine, _ *simnet.Fabric) (transport.Client, transport.Stack) {
			l := transport.NewLoopback(func(d time.Duration, fn func()) { eng.Schedule(d, fn) }, time.Microsecond, 7)
			return l, l
		}},
	} {
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
					eng := sim.NewEngine(1)
					cfg := simnet.DefaultConfig()
					cfg.RacksPerPod, cfg.HostsPerRack, cfg.SpinesPerPod, cfg.CoresPerDC = 2, 1, 2, 2
					client, server := tc.stacks(eng, simnet.New(eng, cfg))

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
