package ctrl

import (
	"fmt"
	"testing"
)

func TestPlacerSpreadsDomains(t *testing.T) {
	nodes := []Node{
		{Addr: 11, Domain: "rack0"}, {Addr: 12, Domain: "rack0"},
		{Addr: 21, Domain: "rack1"}, {Addr: 22, Domain: "rack1"},
		{Addr: 31, Domain: "rack2"}, {Addr: 32, Domain: "rack2"},
	}
	p, err := NewPlacer(nodes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Place(6)
	if err != nil {
		t.Fatal(err)
	}
	// Six segments over six nodes in three domains: every node used once,
	// and each consecutive triple covers all three domains.
	used := map[uint32]int{}
	for _, a := range got {
		used[a]++
	}
	for _, n := range nodes {
		if used[n.Addr] != 1 {
			t.Fatalf("node %d used %d times: %v", n.Addr, used[n.Addr], got)
		}
	}
	doms := map[string]bool{"rack0": false, "rack1": false, "rack2": false}
	domOf := map[uint32]string{11: "rack0", 12: "rack0", 21: "rack1", 22: "rack1", 31: "rack2", 32: "rack2"}
	for i, a := range got[:3] {
		if doms[domOf[a]] {
			t.Fatalf("first three picks repeat a domain at %d: %v", i, got)
		}
		doms[domOf[a]] = true
	}
}

func TestPlacerDrainAndDeterminism(t *testing.T) {
	mk := func() *Placer {
		p, err := NewPlacer([]Node{
			{Addr: 1, Domain: "a"}, {Addr: 2, Domain: "a"}, {Addr: 3, Domain: "b"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2 := mk(), mk()
	p1.SetDown(3, true)
	p2.SetDown(3, true)
	g1, err1 := p1.Place(4)
	g2, err2 := p2.Place(4)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fmt.Sprint(g1) != fmt.Sprint(g2) {
		t.Fatalf("placement not deterministic: %v vs %v", g1, g2)
	}
	for _, a := range g1 {
		if a == 3 {
			t.Fatalf("placed on a down node: %v", g1)
		}
	}
	p1.SetDown(1, true)
	p1.SetDown(2, true)
	if _, err := p1.Place(1); err == nil {
		t.Fatal("placement with all nodes down succeeded")
	}
	// Release returns load.
	if p1.Load(1) == 0 {
		t.Fatal("no load recorded")
	}
	p1.Release(g1)
	if p1.Load(1) != 0 || p1.Load(2) != 0 {
		t.Fatalf("release did not zero load: %d %d", p1.Load(1), p1.Load(2))
	}
}
