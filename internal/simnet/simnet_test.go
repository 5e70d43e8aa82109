package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/wire"
)

func smallFabric(t *testing.T) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.RacksPerPod = 2
	cfg.HostsPerRack = 2
	cfg.SpinesPerPod = 2
	cfg.CoresPerDC = 2
	return eng, New(eng, cfg)
}

func mkPkt(src, dst *Host, srcPort uint16, payload int) *Packet {
	return &Packet{
		Src: src.Addr(), Dst: dst.Addr(),
		Proto: wire.ProtoUDP, SrcPort: srcPort, DstPort: 9000,
		Payload:  make([]byte, payload),
		Overhead: DefaultOverheadUDP,
	}
}

// TestAddrRoundTrip: Addr packs each 1-based component into its own byte,
// DC highest, and AddrRack reads the rack back.
func TestAddrRoundTrip(t *testing.T) {
	f := func(dc, pod, rack, host uint8) bool {
		d, p, r, h := int(dc%4), int(pod%8), int(rack%16), int(host%32)
		a := Addr(d, p, r, h)
		return a == uint32(d+1)<<24|uint32(p+1)<<16|uint32(r+1)<<8|uint32(h+1) && AddrRack(a) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewRejectsUnaddressableDims: a dimension past one address byte would
// give two hosts one address, so New panics on it as on a zero, before it
// builds anything.
func TestNewRejectsUnaddressableDims(t *testing.T) {
	for _, tc := range []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.HostsPerRack = 256 }, "simnet: HostsPerRack must be in [1, 255], got 256"},
		{func(c *Config) { c.RacksPerPod = 0 }, "simnet: RacksPerPod must be in [1, 255], got 0"},
		{func(c *Config) { c.DCs = 300 }, "simnet: DCs must be in [1, 255], got 300"},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("New panicked with %v, want %q", r, tc.want)
				}
			}()
			New(sim.NewEngine(1), cfg)
		}()
	}
	cfg := DefaultConfig()
	cfg.HostsPerRack = MaxDim
	if err := cfg.CheckDims(); err != nil {
		t.Fatalf("%d hosts per rack rejected: %v", MaxDim, err)
	}
}

func TestCrossPodDelivery(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 1, 1)
	var got *Packet
	var at sim.Time
	dst.Handler = func(p *Packet) { got = p; at = eng.Now() }
	pkt := mkPkt(src, dst, 7, 4096)
	if !src.Send(pkt) {
		t.Fatal("send failed")
	}
	eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Src != src.Addr() || got.Dst != dst.Addr() {
		t.Fatal("envelope corrupted")
	}
	// Sanity on latency: 6 store-and-forward hops of a ~4.2KB frame,
	// 2×25G + 4×100G, plus prop and switch latency → between 4µs and 15µs.
	d := at.Duration()
	if d < 4*time.Microsecond || d > 15*time.Microsecond {
		t.Fatalf("one-way latency = %v, want 4–15µs", d)
	}
	// TTL decremented once per switch (5 switches cross-pod).
	if got.TTL != 64-5 {
		t.Fatalf("TTL = %d, want 59", got.TTL)
	}
}

func TestSameRackDelivery(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 0, 0, 1)
	delivered := false
	dst.Handler = func(p *Packet) { delivered = true }
	src.Send(mkPkt(src, dst, 1, 100))
	eng.Run()
	if !delivered {
		t.Fatal("same-rack packet lost")
	}
}

func TestECMPPathStability(t *testing.T) {
	// Same 5-tuple → same delivery latency every time (same path);
	// different source ports should spread across paths.
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	var times []time.Duration
	dst.Handler = func(p *Packet) {
		times = append(times, eng.Now().Sub(p.SentAt))
	}
	// Back-to-back sends of the same flow, spaced out to avoid queueing.
	for i := 0; i < 5; i++ {
		pkt := mkPkt(src, dst, 42, 1000)
		pkt.SentAt = eng.Now()
		src.Send(pkt)
		eng.RunFor(time.Millisecond)
	}
	for i := 1; i < len(times); i++ {
		if times[i] != times[0] {
			t.Fatalf("same flow took different paths: %v", times)
		}
	}
}

func TestECMPSpreadsSourcePorts(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	dst.Handler = func(p *Packet) {}
	for port := uint16(1000); port < 1256; port++ {
		src.Send(mkPkt(src, dst, port, 100))
		eng.RunFor(100 * time.Microsecond)
	}
	// Every spine in pod 0 should have forwarded some packets.
	for i := 0; i < 2; i++ {
		sp := f.Spine(0, 0, i)
		if sp.Forwarded() == 0 {
			t.Fatalf("spine %s never used; ECMP not spreading", sp.Name())
		}
	}
}

func TestHungToRDropsPinnedFlows(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }

	// Find which ToR the flow hashes to by sending one packet and checking
	// forwarded counters.
	probe := mkPkt(src, dst, 555, 100)
	src.Send(probe)
	eng.Run()
	if delivered != 1 {
		t.Fatal("probe lost")
	}
	var pinned *Switch
	for _, idx := range []int{0, 1} {
		tor := f.ToR(0, 0, 0, idx)
		if tor.Forwarded() > 0 {
			pinned = tor
		}
	}
	if pinned == nil {
		t.Fatal("no ToR forwarded the probe")
	}

	// Hang it: links stay up, so the host keeps using it for this flow.
	pinned.Fail()
	for i := 0; i < 10; i++ {
		src.Send(mkPkt(src, dst, 555, 100))
	}
	eng.Run()
	if delivered != 1 {
		t.Fatalf("flows pinned to a hung ToR should all drop; delivered=%d", delivered)
	}

	// A different source port can escape (50% chance per port; try many).
	escaped := 0
	for port := uint16(2000); port < 2040; port++ {
		before := delivered
		src.Send(mkPkt(src, dst, port, 100))
		eng.Run()
		if delivered > before {
			escaped++
		}
	}
	if escaped == 0 {
		t.Fatal("no source port escaped the hung ToR")
	}
	if escaped == 40 {
		t.Fatal("all ports escaped — the hang had no effect?")
	}
}

func TestSpineHangExcludedAfterDetection(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }

	f.Spine(0, 0, 0).Fail()
	// Before detection: flows hashed through spine 0 drop.
	lostBefore := 0
	for port := uint16(1); port <= 50; port++ {
		before := delivered
		src.Send(mkPkt(src, dst, port, 100))
		eng.RunFor(time.Millisecond)
		if delivered == before {
			lostBefore++
		}
	}
	if lostBefore == 0 {
		t.Fatal("hung spine dropped nothing before detection")
	}
	// After detection delay all flows re-converge.
	eng.RunFor(DetectDelay + time.Millisecond)
	for port := uint16(1); port <= 50; port++ {
		src.Send(mkPkt(src, dst, port, 100))
	}
	prev := delivered
	eng.Run()
	if delivered-prev != 50 {
		t.Fatalf("after reconvergence delivered %d/50", delivered-prev)
	}
}

func TestPortFailureInstantFailover(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }

	// Take down src's first NIC link: bonding must move all flows at once.
	f.FailLink(src.Ports()[0])
	for port := uint16(1); port <= 20; port++ {
		src.Send(mkPkt(src, dst, port, 100))
	}
	eng.Run()
	if delivered != 20 {
		t.Fatalf("delivered %d/20 after NIC port failure", delivered)
	}
}

func TestBlackholeDropsSubsetSilently(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }

	// Blackhole half the flows at every ToR in the source rack so the
	// effect is independent of which ToR a flow hashes to.
	f.ToR(0, 0, 0, 0).SetBlackhole(0.5, 99)
	f.ToR(0, 0, 0, 1).SetBlackhole(0.5, 99)
	const n = 200
	for port := uint16(0); port < n; port++ {
		src.Send(mkPkt(src, dst, 3000+port, 100))
		eng.RunFor(50 * time.Microsecond)
	}
	eng.Run()
	if delivered < n/4 || delivered > 3*n/4 {
		t.Fatalf("blackhole(0.5) delivered %d/%d", delivered, n)
	}
	// Deterministic per flow: resending the same port has the same fate.
	before := delivered
	src.Send(mkPkt(src, dst, 3000, 100))
	src.Send(mkPkt(src, dst, 3000, 100))
	eng.Run()
	diff := delivered - before
	if diff != 0 && diff != 2 {
		t.Fatalf("blackhole not flow-deterministic: %d of 2 duplicates delivered", diff)
	}
}

func TestDropRate(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }
	f.ToR(0, 0, 0, 0).SetDropRate(0.75)
	f.ToR(0, 0, 0, 1).SetDropRate(0.75)
	const n = 400
	for i := 0; i < n; i++ {
		src.Send(mkPkt(src, dst, uint16(i), 100))
		eng.RunFor(20 * time.Microsecond)
	}
	eng.Run()
	frac := float64(delivered) / n
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("75%% drop delivered fraction = %v", frac)
	}
}

func TestTailDropUnderOverload(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 0, 1, 0) // same pod
	delivered := 0
	dst.Handler = func(p *Packet) { delivered++ }
	// Blast 4 MB into a 400 KB buffer instantaneously.
	const n = 1000
	for i := 0; i < n; i++ {
		src.Send(mkPkt(src, dst, 5, 4096))
	}
	eng.Run()
	if delivered == n {
		t.Fatal("no tail drops despite buffer overflow")
	}
	if delivered == 0 {
		t.Fatal("everything dropped")
	}
	if f.TotalDrops() == 0 {
		t.Fatal("drop accounting missed tail drops")
	}
}

func TestECNMarking(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 0, 1, 0)
	marked, total := 0, 0
	dst.Handler = func(p *Packet) {
		total++
		if p.ECN == wire.ECNCE {
			marked++
		}
	}
	for i := 0; i < 60; i++ { // ~250KB burst into one queue > 100KB threshold
		pkt := mkPkt(src, dst, 5, 4096)
		pkt.ECN = wire.ECNECT0
		src.Send(pkt)
	}
	eng.Run()
	if marked == 0 {
		t.Fatalf("no ECN marks on a %d-packet burst", total)
	}
	if marked == total {
		t.Fatal("every packet marked — threshold ignored")
	}
}

func TestINTStamping(t *testing.T) {
	eng, f := smallFabric(t)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(0, 1, 0, 0)
	var hops int
	dst.Handler = func(p *Packet) {
		if p.INT != nil {
			hops = len(p.INT.Hops)
		}
	}
	pkt := mkPkt(src, dst, 9, 4096)
	pkt.INT = &wire.INTStack{}
	src.Send(pkt)
	eng.Run()
	// Host NIC + 5 switch egress ports = 6 stamping points.
	if hops != 6 {
		t.Fatalf("INT hops = %d, want 6", hops)
	}
}

// fullFlowHash is the flow hash computed from the 5-tuple alone, as a
// packet that never passed through Host.Send hashes.
func fullFlowHash(p *Packet, salt uint32) uint32 { return fnvMix(flowState(p), salt) }

func TestFlowHashDeterministic(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	if fullFlowHash(p, 42) != fullFlowHash(p, 42) {
		t.Fatal("hash not deterministic")
	}
	q := *p
	q.SrcPort = 5
	if fullFlowHash(p, 42) == fullFlowHash(&q, 42) {
		t.Fatal("source port does not perturb hash")
	}
	if fullFlowHash(p, 42) == fullFlowHash(p, 43) {
		t.Fatal("salt does not perturb hash")
	}
}

// TestFlowHashPinned: the flow hash's values for three 5-tuple/salt pairs
// are fixed, so no rework of the hash can move an ECMP, bonding or
// blackhole choice; the forwarding path's flowHash, from Host.Send's stored
// state or without it, agrees.
func TestFlowHashPinned(t *testing.T) {
	for _, c := range []struct {
		p    Packet
		salt uint32
		want uint32
	}{
		{Packet{Src: Addr(0, 0, 0, 0), Dst: Addr(0, 1, 0, 0), Proto: 17, SrcPort: 30001, DstPort: 7010}, 0x9e3779b9, 0x779a01b9},
		{Packet{Src: Addr(0, 1, 3, 2), Dst: Addr(0, 0, 1, 1), Proto: 6, SrcPort: 49152, DstPort: 3260}, 0, 0xd07f948b},
		{Packet{Src: 0xdeadbeef, Dst: 0x01020304, Proto: 17, SrcPort: 0xffff, DstPort: 1}, 0x12345678, 0xd953c771},
	} {
		p := c.p
		if got := fullFlowHash(&p, c.salt); got != c.want {
			t.Errorf("flow hash of (%+v, %#x) = %#08x, want %#08x", c.p, c.salt, got, c.want)
		}
		if got := p.flowHash(c.salt); got != c.want {
			t.Errorf("flowHash without stored state = %#08x, want %#08x", got, c.want)
		}
		p.flow, p.hasFlow = flowState(&p), true
		if got := p.flowHash(c.salt); got != c.want {
			t.Errorf("flowHash from stored state = %#08x, want %#08x", got, c.want)
		}
	}
}

// TestSendRekeysFlowHash: a packet sent again through Host.Send with a new
// source port (Solar's path re-key) hashes with the new port: a pooled
// packet that came back to the pool, and a literal one that never does.
func TestSendRekeysFlowHash(t *testing.T) {
	eng, f := smallFabric(t)
	src, dst := f.Host(0, 0, 0, 0), f.Host(0, 1, 0, 0)
	var got []uint32
	dst.Handler = func(p *Packet) {
		got = append(got, p.flowHash(42))
		p.Release()
	}
	want := func(port uint16) uint32 {
		return fullFlowHash(&Packet{Src: src.Addr(), Dst: dst.Addr(), Proto: wire.ProtoUDP, SrcPort: port, DstPort: 9000}, 42)
	}

	var first *Packet
	for _, port := range []uint16{30001, 30002} {
		pkt := f.Pool().Get(64)
		if first == nil {
			first = pkt
		} else if pkt != first {
			t.Fatal("the pool did not hand the released packet out again")
		}
		pkt.Dst, pkt.Proto, pkt.SrcPort, pkt.DstPort, pkt.Overhead = dst.Addr(), wire.ProtoUDP, port, 9000, DefaultOverheadUDP
		if !src.Send(pkt) {
			t.Fatal("send failed")
		}
		eng.Run()
	}
	lit := mkPkt(src, dst, 30003, 64)
	for _, port := range []uint16{30003, 30004} {
		lit.SrcPort = port
		if !src.Send(lit) {
			t.Fatal("send failed")
		}
		eng.Run()
	}
	for i, port := range []uint16{30001, 30002, 30003, 30004} {
		if i >= len(got) || got[i] != want(port) {
			t.Fatalf("delivered hashes %#x, want packet %d to hash with source port %d (%#x)", got, i, port, want(port))
		}
	}
}

func TestRebootSwitchRepairs(t *testing.T) {
	eng, f := smallFabric(t)
	sw := f.Spine(0, 0, 0)
	f.RebootSwitch(sw, 10*time.Second)
	if sw.Alive() {
		t.Fatal("switch alive right after reboot start")
	}
	eng.RunFor(11 * time.Second)
	if !sw.Alive() {
		t.Fatal("switch did not repair")
	}
}

func TestInterDCDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.DCs = 2
	cfg.DCRouters = 2
	cfg.PodsPerDC = 1
	cfg.RacksPerPod = 1
	cfg.HostsPerRack = 1
	cfg.SpinesPerPod = 1
	cfg.CoresPerDC = 1
	f := New(eng, cfg)
	src := f.Host(0, 0, 0, 0)
	dst := f.Host(1, 0, 0, 0)
	got := false
	dst.Handler = func(p *Packet) { got = true }
	src.Send(mkPkt(src, dst, 1, 4096))
	eng.Run()
	if !got {
		t.Fatal("inter-DC packet lost")
	}
}
