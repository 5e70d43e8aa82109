// Command ebstopo builds a fabric, prints its shape, shows how ECMP spreads
// Solar's path IDs, and optionally runs a failure drill: hang a switch and
// watch which flows die and when routing reconverges.
//
//	ebstopo
//	ebstopo -racks 4 -hosts 4 -spines 4 -cores 4
//	ebstopo -drill tor     # hang a ToR and report flow fates
//	ebstopo -drill spine
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lunasolar/internal/sim"
	"lunasolar/internal/simnet"
	"lunasolar/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status. Each dimension
// flag must lie in [1, simnet.MaxDim], and -drill must name a drill, or
// run exits 2 before it builds anything: an address holds a rack or a host
// index in one byte, and the spine and core counts keep the same bound.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebstopo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	racks := fs.Int("racks", 2, "racks per pod")
	hosts := fs.Int("hosts", 4, "hosts per rack")
	spines := fs.Int("spines", 2, "spines per pod")
	cores := fs.Int("cores", 2, "core switches per DC")
	drill := fs.String("drill", "", "failure drill: tor|spine|core|blackhole")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, d := range []struct {
		flag string
		v    int
	}{{"racks", *racks}, {"hosts", *hosts}, {"spines", *spines}, {"cores", *cores}} {
		if d.v < 1 || d.v > simnet.MaxDim {
			fmt.Fprintf(stderr, "ebstopo: -%s %d is outside [1, %d]\n", d.flag, d.v, simnet.MaxDim)
			return 2
		}
	}
	switch *drill {
	case "", "tor", "spine", "core", "blackhole":
	default:
		fmt.Fprintf(stderr, "ebstopo: -drill %s is not one of tor|spine|core|blackhole\n", *drill)
		return 2
	}

	cfg := simnet.DefaultConfig()
	cfg.RacksPerPod = *racks
	cfg.HostsPerRack = *hosts
	cfg.SpinesPerPod = *spines
	cfg.CoresPerDC = *cores

	eng := sim.NewEngine(*seed)
	fab := simnet.New(eng, cfg)

	nHosts := len(fab.Hosts())
	nSwitches := len(fab.Switches())
	fmt.Fprintf(stdout, "fabric: %d pods x %d racks x %d hosts = %d hosts, %d switches\n",
		cfg.PodsPerDC, cfg.RacksPerPod, cfg.HostsPerRack, nHosts, nSwitches)
	fmt.Fprintf(stdout, "links: host %s, fabric %s, buffers %dKB/port, ECN @ %dKB\n",
		gbps(cfg.HostLinkBps), gbps(simnet.FabricLinkBps), cfg.BufferBytes>>10, cfg.ECNThresholdBytes>>10)

	// ECMP spread: one flow per source port from a compute host to a
	// storage host; report how many distinct spines carry traffic.
	src := fab.Host(0, 0, 0, 0)
	dst := fab.Host(0, 1, 0, 0)
	dst.Handler = func(*simnet.Packet) {}
	for port := uint16(30000); port < 30064; port++ {
		src.Send(&simnet.Packet{
			Dst: dst.Addr(), Proto: wire.ProtoUDP, SrcPort: port, DstPort: 7010,
			Payload: make([]byte, 64), Overhead: simnet.DefaultOverheadUDP,
		})
		eng.RunFor(100 * time.Microsecond)
	}
	fmt.Fprintln(stdout, "\nECMP spread over 64 source ports (data path via pod-0 spines):")
	for i := 0; i < cfg.SpinesPerPod; i++ {
		sp := fab.Spine(0, 0, i)
		fmt.Fprintf(stdout, "  %-14s forwarded %d\n", sp.Name(), sp.Forwarded())
	}

	if *drill == "" {
		return 0
	}

	var target *simnet.Switch
	switch *drill {
	case "tor":
		target = fab.ToR(0, 0, 0, 0)
		target.Fail()
	case "spine":
		target = fab.Spine(0, 0, 0)
		target.Fail()
	case "core":
		target = fab.Core(0, 0)
		target.Fail()
	case "blackhole":
		target = fab.ToR(0, 0, 0, 0)
		target.SetBlackhole(0.25, 99)
	}
	fmt.Fprintf(stdout, "\ndrill: %s on %s (detect delay %v)\n", *drill, target.Name(), simnet.DetectDelay)

	// Probe 64 flows immediately, after half the detection delay, and after
	// reconvergence.
	probe := func(label string) {
		delivered := 0
		got := 0
		dst.Handler = func(*simnet.Packet) { got++ }
		for port := uint16(40000); port < 40064; port++ {
			src.Send(&simnet.Packet{
				Dst: dst.Addr(), Proto: wire.ProtoUDP, SrcPort: port, DstPort: 7010,
				Payload: make([]byte, 64), Overhead: simnet.DefaultOverheadUDP,
			})
			eng.RunFor(50 * time.Microsecond)
		}
		eng.RunFor(5 * time.Millisecond)
		delivered = got
		fmt.Fprintf(stdout, "  %-22s %2d/64 flows delivered\n", label, delivered)
	}
	probe("right after failure:")
	eng.RunFor(simnet.DetectDelay)
	probe("after detect delay:")
	return 0
}

func gbps(bps float64) string { return fmt.Sprintf("%.0fG", bps/1e9) }
