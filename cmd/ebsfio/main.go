// Command ebsfio is a fio-like load generator for the simulated EBS
// cluster: pick a stack, block size, queue depth and read fraction, and it
// reports throughput, IOPS and latency percentiles over the I/Os that
// succeeded. Failed I/Os are counted apart and make it exit 1.
//
//	ebsfio -stack solar -bs 4096 -depth 32 -read 1.0 -runtime 100ms
//	ebsfio -stack luna -bs 65536 -depth 16 -read 0.0 -cores 2
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/stats"
	"lunasolar/internal/workload"
)

func parseStack(s string) (ebs.StackKind, bool) {
	switch s {
	case "kernel":
		return ebs.KernelTCP, true
	case "luna":
		return ebs.Luna, true
	case "rdma":
		return ebs.RDMA, true
	case "solar":
		return ebs.Solar, true
	case "solar*", "solarstar":
		return ebs.SolarStar, true
	}
	return 0, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// span is the LBA range the closed loop touches and reads prepopulate.
const span = 16 << 20

// run is the whole command. Every flag is checked before a cluster is
// built, so the header never reports a value the run did not use.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebsfio", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stackName := fs.String("stack", "solar", "fn stack: kernel|luna|rdma|solar|solar*")
	bs := fs.Int("bs", 4096, "block size in bytes")
	depth := fs.Int("depth", 32, "outstanding I/Os")
	readFrac := fs.Float64("read", 1.0, "fraction of reads")
	cores := fs.Int("cores", 0, "stack CPU cores (0 = stack default)")
	runtime := fs.Duration("runtime", 100*time.Millisecond, "measurement window (virtual time)")
	seed := fs.Int64("seed", 1, "simulation seed")
	bareMetal := fs.Bool("baremetal", true, "run the compute stack on a DPU")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fn, known := parseStack(*stackName)
	switch {
	case !known:
		fmt.Fprintf(stderr, "ebsfio: -stack %s: unknown stack (kernel|luna|rdma|solar|solar*)\n", *stackName)
		return 2
	case *bs <= 0:
		fmt.Fprintf(stderr, "ebsfio: -bs %d: block size must be positive\n", *bs)
		return 2
	case *bs > span:
		fmt.Fprintf(stderr, "ebsfio: -bs %d: block size exceeds the %d-byte span\n", *bs, span)
		return 2
	case *depth <= 0:
		fmt.Fprintf(stderr, "ebsfio: -depth %d: queue depth must be positive\n", *depth)
		return 2
	case *cores < 0:
		fmt.Fprintf(stderr, "ebsfio: -cores %d: core count must not be negative (0 = stack default)\n", *cores)
		return 2
	case !(*readFrac >= 0 && *readFrac <= 1):
		fmt.Fprintf(stderr, "ebsfio: -read %v: read fraction must be in [0,1]\n", *readFrac)
		return 2
	case *runtime <= 0:
		fmt.Fprintf(stderr, "ebsfio: -runtime %v: measurement window must be positive\n", *runtime)
		return 2
	case !*bareMetal && fn.IsSolar():
		fmt.Fprintf(stderr, "ebsfio: -baremetal=false: stack %s runs only on a DPU\n", fn)
		return 2
	}

	cfg := ebs.DefaultConfig(fn)
	cfg.Fabric.RacksPerPod = 2
	cfg.Fabric.HostsPerRack = 4
	cfg.ComputeServers = 1
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	cfg.Seed = *seed
	cfg.BareMetal = *bareMetal
	if *cores > 0 {
		cfg.DPU.CPUCores = *cores
		cfg.StackCores = *cores
	}
	c := ebs.New(cfg)
	vd := c.MustProvision(0, 512<<20, ebs.DefaultQoS())
	drv := workload.NewDriver(c.Eng)
	if *readFrac > 0 { // prepopulate the span reads touch
		drv.Fill(vd.ID, vd, span)
		c.Run()
	}

	t := tally{h: stats.NewHistogram()}
	rr := c.Eng.Rand.Fork()
	drv.Closed(vd.ID, vd, *depth, 0, func(_, i int) (bool, uint64, int, bool) {
		return !rr.Bernoulli(*readFrac), uint64(i) * uint64(*bs) % span, *bs, true
	}, func(io *workload.IO) { t.add(io, c.Eng.Now().Sub(io.Issued)) })
	c.RunFor(5 * time.Millisecond) // warmup
	t.h.Reset()
	t = tally{h: t.h}
	c.RunFor(*runtime)

	fmt.Fprintf(stdout, "stack=%s bs=%d depth=%d read=%.2f window=%v\n", fn, *bs, *depth, *readFrac, *runtime)
	if code := t.report(stdout, stderr, *runtime); code != 0 {
		return code
	}
	if bad, err := c.Eng.Failed(); bad > 0 {
		fmt.Fprintf(stderr, "ebsfio: %d reads returned the wrong block; first: %v\n", bad, err)
		return 1
	}
	return 0
}

// tally is a run's result. Only successful I/Os count toward latency, IOPS
// and bandwidth; failed ones are counted apart, and the first failure is
// kept for the exit message.
type tally struct {
	h                *stats.Histogram
	n, bytes, failed uint64
	firstErr         error
}

// add counts one completed I/O that took lat.
func (t *tally) add(io *workload.IO, lat time.Duration) {
	if io.Res.Err != nil {
		t.failed++
		t.firstErr = cmp.Or(t.firstErr, io.Res.Err)
		return
	}
	t.h.Record(lat)
	t.n++
	t.bytes += uint64(io.Size)
}

// report prints the rates over window and the latency percentiles, and
// returns the exit status: 1 when any I/O failed.
func (t *tally) report(stdout, stderr io.Writer, window time.Duration) int {
	secs := window.Seconds()
	fmt.Fprintf(stdout, "  iops=%.0f  bw=%.1f MB/s  completed=%d  failed=%d\n",
		float64(t.n)/secs, float64(t.bytes)/secs/1e6, t.n, t.failed)
	fmt.Fprintf(stdout, "  lat p50=%v p95=%v p99=%v max=%v\n",
		t.h.Median().Round(100*time.Nanosecond), t.h.P95().Round(100*time.Nanosecond),
		t.h.P99().Round(100*time.Nanosecond), t.h.Max().Round(100*time.Nanosecond))
	if t.failed > 0 {
		fmt.Fprintf(stderr, "ebsfio: %d I/Os failed; first: %v\n", t.failed, t.firstErr)
		return 1
	}
	return 0
}
