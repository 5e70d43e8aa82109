// Package ctrl is the volume control plane's placement policy: failure-
// domain-aware segment placement over the block servers. It is pure
// deterministic metadata — no engine, no randomness, no map iteration — so
// a management workload replays identically at any worker count; ebs's
// ControlPlane drives it from a live cluster.
package ctrl

import (
	"fmt"
	"sort"
)

// Node is one placement target: a block server and the failure domain
// (rack) it lives in.
type Node struct {
	Addr   uint32
	Domain string
}

// Placer chooses segment placements that spread replacement-unit risk:
// within one placement call segments land in as many distinct failure
// domains as possible, and across calls the least-loaded nodes fill first.
// All choices walk a sorted node list, so placement is a pure function of
// the call history.
type Placer struct {
	nodes []Node
	load  map[uint32]int
	down  map[uint32]bool
}

// NewPlacer builds a placer over the given nodes. The node list is copied
// and sorted by (domain, addr); duplicate addresses are rejected.
func NewPlacer(nodes []Node) (*Placer, error) {
	p := &Placer{
		nodes: append([]Node(nil), nodes...),
		load:  map[uint32]int{},
		down:  map[uint32]bool{},
	}
	sort.Slice(p.nodes, func(i, j int) bool {
		if p.nodes[i].Domain != p.nodes[j].Domain {
			return p.nodes[i].Domain < p.nodes[j].Domain
		}
		return p.nodes[i].Addr < p.nodes[j].Addr
	})
	for i := 1; i < len(p.nodes); i++ {
		if p.nodes[i].Addr == p.nodes[i-1].Addr && p.nodes[i].Domain == p.nodes[i-1].Domain {
			return nil, fmt.Errorf("ctrl: duplicate placement node %d", p.nodes[i].Addr)
		}
	}
	seen := map[uint32]bool{}
	for _, n := range p.nodes {
		if seen[n.Addr] {
			return nil, fmt.Errorf("ctrl: node %d listed in two domains", n.Addr)
		}
		seen[n.Addr] = true
	}
	return p, nil
}

// Place returns addresses for n segments. Each pick minimizes, in order:
// how often this placement already used the node's domain, the node's
// global segment load, then (domain, addr) as the deterministic tiebreak.
// Placed segments are charged to the node's load; Release returns them.
func (p *Placer) Place(n int) ([]uint32, error) {
	if n <= 0 {
		return nil, nil
	}
	domUsed := map[string]int{}
	out := make([]uint32, 0, n)
	for k := 0; k < n; k++ {
		best := -1
		for i, node := range p.nodes {
			if p.down[node.Addr] {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := p.nodes[best]
			if domUsed[node.Domain] != domUsed[b.Domain] {
				if domUsed[node.Domain] < domUsed[b.Domain] {
					best = i
				}
				continue
			}
			if p.load[node.Addr] < p.load[b.Addr] {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("ctrl: no placement nodes available (%d requested, %d placed)", n, k)
		}
		chosen := p.nodes[best]
		domUsed[chosen.Domain]++
		p.load[chosen.Addr]++
		out = append(out, chosen.Addr)
	}
	return out, nil
}

// Charge records one segment landing on a node outside Place — a
// migration whose target the caller chose directly.
func (p *Placer) Charge(addr uint32) { p.load[addr]++ }

// Release returns segment load previously charged by Place (volume
// deletion).
func (p *Placer) Release(addrs []uint32) {
	for _, a := range addrs {
		if p.load[a] > 0 {
			p.load[a]--
		}
	}
}

// SetDown marks a node unavailable for future placements (a planned drain
// or an unplanned degradation). Existing load is untouched; migration
// moves it explicitly.
func (p *Placer) SetDown(addr uint32, down bool) {
	if down {
		p.down[addr] = true
		return
	}
	delete(p.down, addr)
}

// Load returns a node's current segment count.
func (p *Placer) Load(addr uint32) int { return p.load[addr] }
