package simnet

import (
	"strings"
	"testing"

	"lunasolar/internal/sim"
	"lunasolar/internal/stats"
)

// Queue high-water marks see buildup and never shrink across bursts.
func TestPortTelemetryCounters(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	cfg.RacksPerPod = 1
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 1
	cfg.CoresPerDC = 1
	fab := New(eng, cfg)
	a := fab.Host(0, 0, 0, 0)
	b := fab.Host(0, 0, 0, 1)
	b.Handler = func(pkt *Packet) { pkt.Release() }

	burst := func(n int) {
		for i := 0; i < n; i++ {
			pkt := a.PacketPool().Get(8192)
			pkt.Dst = b.Addr()
			pkt.Proto = 17
			pkt.SrcPort = uint16(40000 + i)
			pkt.DstPort = 7010
			pkt.Overhead = EthOverhead
			if !a.Send(pkt) {
				pkt.Release()
			}
		}
		eng.Run()
	}
	burst(32) // back-to-back sends pile up in the NIC queues
	var maxq int
	for _, p := range a.Ports() {
		if p.maxQueued > maxq {
			maxq = p.maxQueued
		}
	}
	if maxq < 2*8192 {
		t.Fatalf("high-water mark %dB never saw queue buildup from a 32-packet burst", maxq)
	}

	// A deeper burst must not lower the high-water mark.
	before := maxq
	burst(64)
	maxq = 0
	for _, p := range a.Ports() {
		if p.maxQueued > maxq {
			maxq = p.maxQueued
		}
	}
	if maxq < before {
		t.Fatalf("high-water mark shrank from %d to %d", before, maxq)
	}
}

// Fabric.RegisterInto exports drops-by-reason and per-switch counters with
// deterministic names.
func TestFabricRegisterInto(t *testing.T) {
	eng := sim.NewEngine(5)
	cfg := DefaultConfig()
	cfg.RacksPerPod = 1
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 1
	cfg.CoresPerDC = 1
	fab := New(eng, cfg)
	a := fab.Host(0, 0, 0, 0)
	b := fab.Host(0, 0, 0, 1)
	b.Handler = func(pkt *Packet) { pkt.Release() }

	pkt := a.PacketPool().Get(4096)
	pkt.Dst = b.Addr()
	pkt.Proto = 17
	pkt.SrcPort = 30001
	pkt.DstPort = 7010
	pkt.Overhead = EthOverhead
	if !a.Send(pkt) {
		pkt.Release()
	}
	eng.Run()

	reg := stats.NewRegistry()
	fab.RegisterInto(reg, "net/")
	var sawRx bool
	for _, m := range reg.Snapshot().Metrics {
		if m.Type == "counter" && m.Value > 0 &&
			len(m.Name) > 4 && m.Name[:7] == "net/sw/" {
			sawRx = true
		}
	}
	if !sawRx {
		t.Fatal("no per-switch counters exported")
	}
	// Export must be deterministic.
	reg2 := stats.NewRegistry()
	fab.RegisterInto(reg2, "net/")
	s1, s2 := reg.Snapshot(), reg2.Snapshot()
	if len(s1.Metrics) != len(s2.Metrics) {
		t.Fatal("repeat export differs")
	}
	for i := range s1.Metrics {
		if s1.Metrics[i].Name != s2.Metrics[i].Name || s1.Metrics[i].Value != s2.Metrics[i].Value {
			t.Fatalf("metric %d differs: %+v vs %+v", i, s1.Metrics[i], s2.Metrics[i])
		}
	}
}

// exportedMaxQueue returns the largest sw/*/max_queued_bytes gauge that
// RegisterInto exports for fab.
func exportedMaxQueue(fab *Fabric) int {
	reg := stats.NewRegistry()
	fab.RegisterInto(reg, "")
	maxq := 0
	for _, m := range reg.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "sw/") && strings.HasSuffix(m.Name, "/max_queued_bytes") && int(m.Value) > maxq {
			maxq = int(m.Value)
		}
	}
	return maxq
}

// TestMaxQueuedBytesMonotoneAndResets is the high-water property test: the
// largest exported switch queue mark never decreases within a run, and a
// fresh fabric (a new run) starts back at zero.
func TestMaxQueuedBytesMonotoneAndResets(t *testing.T) {
	eng, fab := smallFabric(t)
	r := sim.NewRand(11)
	hosts := fab.Hosts()
	last := exportedMaxQueue(fab)
	if last != 0 {
		t.Fatalf("fresh fabric max_queued_bytes = %d, want 0", last)
	}
	for round := 0; round < 8; round++ {
		dst := hosts[r.Intn(len(hosts))]
		burst := 1 + r.Intn(12)
		for i := 0; i < burst; i++ {
			src := hosts[r.Intn(len(hosts))]
			if src == dst {
				continue
			}
			pkt := mkPkt(src, dst, uint16(1000+r.Intn(500)), 4096)
			if !src.Send(pkt) {
				t.Fatal("send failed")
			}
		}
		eng.Run()
		q := exportedMaxQueue(fab)
		if q < last {
			t.Fatalf("round %d: max_queued_bytes fell %d -> %d; high-water mark must be monotone", round, last, q)
		}
		last = q
	}
	if last == 0 {
		t.Fatal("bursty traffic never queued a byte; the property test exercised nothing")
	}
	_, fresh := smallFabric(t)
	if q := exportedMaxQueue(fresh); q != 0 {
		t.Fatalf("new fabric max_queued_bytes = %d, want 0 (mark must reset across runs)", q)
	}
}
