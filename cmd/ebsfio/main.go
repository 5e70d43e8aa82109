// Command ebsfio is a fio-like load generator for the simulated EBS
// cluster: pick a stack, block size, queue depth and read fraction, and it
// reports throughput, IOPS and latency percentiles over the I/Os that
// succeeded. Failed I/Os are counted apart and make it exit 1.
//
//	ebsfio -stack solar -bs 4096 -depth 32 -read 1.0 -runtime 100ms
//	ebsfio -stack luna -bs 65536 -depth 16 -read 0.0 -cores 2
//	ebsfio -record /tmp/run.trace ...      # save the issued I/Os as a trace
//	ebsfio -replay /tmp/run.trace ...      # replay a trace open-loop
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
	record := fs.String("record", "", "write the issued I/Os to this trace file")
	replay := fs.String("replay", "", "replay a trace file instead of the closed loop")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *bs <= 0:
		fmt.Fprintf(stderr, "ebsfio: -bs %d: block size must be positive\n", *bs)
		return 2
	case *bs > span:
		fmt.Fprintf(stderr, "ebsfio: -bs %d: block size exceeds the %d-byte span\n", *bs, span)
		return 2
	case *depth <= 0:
		fmt.Fprintf(stderr, "ebsfio: -depth %d: queue depth must be positive\n", *depth)
		return 2
	case !(*readFrac >= 0 && *readFrac <= 1):
		fmt.Fprintf(stderr, "ebsfio: -read %v: read fraction must be in [0,1]\n", *readFrac)
		return 2
	case *runtime <= 0:
		fmt.Fprintf(stderr, "ebsfio: -runtime %v: measurement window must be positive\n", *runtime)
		return 2
	}

	fn, ok := parseStack(*stackName)
	if !ok {
		fmt.Fprintf(stderr, "unknown stack %q\n", *stackName)
		return 1
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

	// Only successful I/Os count toward latency, IOPS and bandwidth.
	h := stats.NewHistogram()
	var n, bytes, failed uint64
	var firstErr error
	var recorded []workload.TraceRecord
	startAt := c.Now()
	lastDone := startAt
	done := func(io *workload.IO) {
		lastDone = c.Now()
		if io.Res.Err != nil {
			failed++
			firstErr = cmp.Or(firstErr, io.Res.Err)
			return
		}
		h.Record(c.Eng.Now().Sub(io.Issued))
		n++
		bytes += uint64(io.Size)
	}
	// issue is every picker's last step: it logs the I/O for -record.
	issue := func(write bool, lba uint64, size int) (bool, uint64, int, bool) {
		if *record != "" {
			recorded = append(recorded, workload.TraceRecord{At: c.Now() - startAt, Write: write, LBA: lba, Size: size})
		}
		return write, lba, size, true
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		recs, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// Open-loop at the recorded times, gap by gap.
		k := 0
		gap := func() time.Duration { return recs[min(k+1, len(recs)-1)].At - recs[k].At }
		pick := func(_, i int) (bool, uint64, int, bool) {
			if k = i; i == len(recs) {
				return false, 0, 0, false
			}
			return issue(recs[i].Write, recs[i].LBA, recs[i].Size)
		}
		if len(recs) > 0 {
			c.Eng.Schedule(recs[0].At, func() { drv.Open(vd.ID, vd, gap, pick, done) })
		}
		c.Run()
		// The window runs from the start of the replay to the last
		// completion, so it includes the last I/O's service time.
		*runtime = lastDone - startAt
		fmt.Fprintf(stdout, "replayed %d I/Os from %s\n", n+failed, *replay)
	} else {
		rr := c.Eng.Rand.Fork()
		drv.Closed(vd.ID, vd, *depth, 0, func(_, i int) (bool, uint64, int, bool) {
			return issue(!rr.Bernoulli(*readFrac), uint64(i)*uint64(*bs)%span, *bs)
		}, done)
		c.RunFor(5 * time.Millisecond) // warmup
		h.Reset()
		n, bytes, failed, firstErr = 0, 0, 0, nil
		c.RunFor(*runtime)
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := workload.WriteTrace(f, recorded); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stdout, "recorded %d I/Os to %s\n", len(recorded), *record)
	}

	var iops, mbs float64
	if secs := runtime.Seconds(); secs > 0 {
		iops, mbs = float64(n)/secs, float64(bytes)/secs/1e6
	}
	fmt.Fprintf(stdout, "stack=%s bs=%d depth=%d read=%.2f window=%v\n", fn, *bs, *depth, *readFrac, *runtime)
	fmt.Fprintf(stdout, "  iops=%.0f  bw=%.1f MB/s  completed=%d  failed=%d\n", iops, mbs, n, failed)
	fmt.Fprintf(stdout, "  lat p50=%v p95=%v p99=%v max=%v\n",
		h.Median().Round(100*time.Nanosecond), h.P95().Round(100*time.Nanosecond),
		h.P99().Round(100*time.Nanosecond), h.Max().Round(100*time.Nanosecond))
	if failed > 0 {
		fmt.Fprintf(stderr, "ebsfio: %d I/Os failed; first: %v\n", failed, firstErr)
		return 1
	}
	if bad, err := c.Eng.Failed(); bad > 0 {
		fmt.Fprintf(stderr, "ebsfio: %d reads returned the wrong block; first: %v\n", bad, err)
		return 1
	}
	return 0
}
