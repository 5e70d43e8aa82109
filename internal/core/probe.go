package core

import (
	"lunasolar/internal/wire"
)

// probePktID marks probe packets within an RPC's ID space.
const probePktID = 0xfffe

// startProber launches the per-peer probe loop when ProbeInterval is set:
// every interval, paths that carried no acknowledgment recently get a probe
// packet. The probe's ACK echoes the switch-stamped INT stack, so idle
// paths keep fresh RTT estimates and HPCC state; a probe timeout counts
// toward the consecutive-timeout failover, detecting blackholes before any
// real I/O is exposed to them (§4.5's "more explicit path selection with
// INT probing").
func (s *Stack) startProber(pe *peer) {
	if s.params.ProbeInterval <= 0 {
		return
	}
	interval := s.params.ProbeInterval
	var tick func()
	tick = func() {
		for _, p := range pe.paths {
			idleFor := s.eng.Now().Sub(p.lastAckAt)
			if p.inflightBytes == 0 && idleFor >= interval {
				s.sendProbe(pe, p)
			}
		}
		s.eng.Schedule(interval, tick)
	}
	s.eng.Schedule(interval, tick)
}

// sendProbe emits one reliable probe on a specific path.
//
//lint:hotpath
func (s *Stack) sendProbe(pe *peer, p *path) {
	e := s.newOutPkt()
	e.key = pktKey{rpcID: s.ids.Next(), pktID: probePktID}
	e.msgType = wire.RPCProbe
	e.ebs = wire.EBS{Version: wire.EBSVersion}
	e.size = wire.RPCSize + wire.EBSSize
	s.Probes++
	s.transmitOn(pe, p, e)
}
