package ebs

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lunasolar/internal/workload"
)

// Every rejected composition is an error from Config.Validate — the one
// place compositions are judged. New panics with exactly that error.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fn     StackKind
		mutate func(*Config)
		want   string
	}{
		{"no computes", Solar, func(c *Config) { c.ComputeServers = 0 }, "cluster needs computes"},
		{"two chunk servers", Solar, func(c *Config) { c.ChunkServers = 2 }, ">=3 chunk servers"},
		{"computes overflow pod", Solar, func(c *Config) { c.ComputeServers = 9 }, "9 compute servers exceed pod capacity 8"},
		{"storage overflows pod", Solar, func(c *Config) { c.ChunkServers = 7 }, "9 storage servers exceed pod capacity 8"},
		{"cross-DC on one DC", Solar, func(c *Config) { c.CrossDC = true }, "CrossDC requires >=2 DCs"},
		{"unknown stack kind", Luna, func(c *Config) { c.FN = 9 }, "unknown stack kind 9"},
		{"no stack cores on luna", Luna, func(c *Config) { c.StackCores = 0 }, "StackCores must be positive"},
		{"no host link rate", RDMA, func(c *Config) { c.Fabric.HostLinkBps = 0 }, "Fabric.HostLinkBps must be positive"},
		{"no spines", Solar, func(c *Config) { c.Fabric.SpinesPerPod = 0 }, "Fabric.SpinesPerPod must be positive"},
		{"no cores", Solar, func(c *Config) { c.Fabric.CoresPerDC = 0 }, "Fabric.CoresPerDC must be positive"},
		{"no SSD queue", Solar, func(c *Config) { c.SSD.Parallelism = 0 }, "SSD.Parallelism must be positive"},
		{"no DPU cores on solar", Solar, func(c *Config) { c.DPU.CPUCores = 0 }, "DPU.CPUCores must be positive"},
		{"no DPU cores on solar before BareMetal", Solar, func(c *Config) { c.BareMetal, c.DPU.CPUCores = false, 0 }, "DPU.CPUCores must be positive"},
		{"no DCs", Solar, func(c *Config) { c.Fabric.DCs = 0 }, "Fabric.DCs must be in [1, 255], got 0"},
		{"no pods", Luna, func(c *Config) { c.Fabric.PodsPerDC = 0 }, "Fabric.PodsPerDC must be in [1, 255], got 0"},
		{"no racks", Solar, func(c *Config) { c.Fabric.RacksPerPod = 0 }, "Fabric.RacksPerPod must be in [1, 255], got 0"},
		{"no hosts per rack", RDMA, func(c *Config) { c.Fabric.HostsPerRack = 0 }, "Fabric.HostsPerRack must be in [1, 255], got 0"},
		{"hosts per rack overflow an address byte", Solar, func(c *Config) { c.Fabric.HostsPerRack = 256 }, "Fabric.HostsPerRack must be in [1, 255], got 256"},
		{"racks overflow an address byte", Luna, func(c *Config) { c.Fabric.RacksPerPod = 256 }, "Fabric.RacksPerPod must be in [1, 255], got 256"},
		{"one pod without CrossDC", Solar, func(c *Config) { c.Fabric.PodsPerDC = 1 }, "storage needs a second pod: Fabric.PodsPerDC is 1 without CrossDC"},
		{"no port buffer", Solar, func(c *Config) { c.Fabric.BufferBytes = 0 }, "Fabric.BufferBytes 0 is below one 9000 B frame"},
		{"port buffer below a frame", Luna, func(c *Config) { c.Fabric.BufferBytes = 1000 }, "Fabric.BufferBytes 1000 is below one 9000 B frame"},
		{"no Addr table on solar", Solar, func(c *Config) { c.DPU.MaxAddrEntries = 0 }, "DPU.MaxAddrEntries must be at least 1, got 0"},
		{"negative DC routers", Luna, func(c *Config) { c.Fabric.DCRouters = -1 }, "Fabric.DCRouters must not be negative, got -1"},
		{"negative CRC flip rate", Solar, func(c *Config) { c.DPU.Faults.CRCBitFlip = -1 }, "DPU.Faults.CRCBitFlip must be in [0, 1], got -1"},
		{"data flip rate above 1", Solar, func(c *Config) { c.DPU.Faults.DataBitFlip = 1.5 }, "DPU.Faults.DataBitFlip must be in [0, 1], got 1.5"},
		{"NaN data flip rate", Solar, func(c *Config) { c.DPU.Faults.DataBitFlip = math.NaN() }, "DPU.Faults.DataBitFlip must be in [0, 1], got NaN"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.fn)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
			defer func() {
				if r := recover(); r == nil || r.(error).Error() != err.Error() {
					t.Fatalf("New panicked with %v, want %v", r, err)
				}
			}()
			New(cfg)
		})
	}
	if err := smallConfig(Solar).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Host stack cores matter only off the DPU, DPU cores only on it; a second
	// pod matters only when storage shares the compute DC.
	for _, tc := range []struct {
		name   string
		fn     StackKind
		mutate func(*Config)
	}{
		{"solar without stack cores", Solar, func(c *Config) { c.BareMetal, c.StackCores = false, 0 }},
		{"luna without DPU cores", Luna, func(c *Config) { c.DPU.CPUCores = 0 }},
		// Only Solar's data path keeps an Addr table.
		{"luna on a DPU without an Addr table", Luna, func(c *Config) { c.BareMetal, c.DPU.MaxAddrEntries = true, 0 }},
		// Fig 8's cross-DC cell: storage in DC 1's only pod.
		{"cross-DC with one pod per DC", Luna, func(c *Config) {
			c.Fabric.DCs, c.Fabric.DCRouters, c.Fabric.PodsPerDC, c.CrossDC = 2, 2, 1, true
		}},
	} {
		cfg := smallConfig(tc.fn)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s rejected: %v", tc.name, err)
		}
		New(cfg)
	}
}

// configLeaf is one settable number or bool of a Config, named by its
// field path.
type configLeaf struct {
	name string
	v    reflect.Value // settable
}

// configLeaves walks cfg by reflection and returns its numeric and bool
// leaves in field order. A leaf of any other kind panics, so a new kind of
// knob cannot slip past the walk.
func configLeaves(cfg *Config) []configLeaf {
	var out []configLeaf
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Struct:
				walk(name+".", f)
			case f.Kind() == reflect.Bool, f.CanInt(), f.CanFloat():
				out = append(out, configLeaf{name, f})
			default:
				panic(fmt.Sprintf("Config leaf %s has kind %v", name, f.Kind()))
			}
		}
	}
	walk("", reflect.ValueOf(cfg).Elem())
	return out
}

// TestConfigLeaves pins the settable surface of Config: the list of its
// numeric and bool leaves, so a new knob shows up here. Each leaf is then
// set to 0 and to -1 (a bool is flipped) on every stack kind; each such
// config is either rejected by Validate or builds a cluster on which a
// stamped 4 KiB write and its read-back complete within 2 s of simulated
// time, with nothing leaked.
func TestConfigLeaves(t *testing.T) {
	want := []string{
		"Fabric.DCs", "Fabric.PodsPerDC", "Fabric.RacksPerPod", "Fabric.HostsPerRack",
		"Fabric.SpinesPerPod", "Fabric.CoresPerDC", "Fabric.DCRouters",
		"Fabric.HostLinkBps", "Fabric.BufferBytes",
		"FN", "ComputeServers", "BlockServers", "ChunkServers", "StackCores", "BareMetal",
		"DPU.CPUCores", "DPU.MaxAddrEntries", "DPU.Faults.CRCBitFlip", "DPU.Faults.DataBitFlip",
		"SSD.Parallelism", "CrossDC", "Seed",
	}
	var got []string
	for _, l := range configLeaves(new(Config)) {
		got = append(got, l.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Config has %d leaves:\n%q\nwant %d:\n%q", len(got), got, len(want), want)
	}

	rejected, built := 0, 0
	for _, fn := range []StackKind{KernelTCP, Luna, RDMA, Solar, SolarStar} {
		for i := range want {
			for _, val := range []float64{0, -1} {
				cfg := smallConfig(fn)
				l := configLeaves(&cfg)[i]
				switch {
				case l.v.Kind() == reflect.Bool:
					if val == -1 {
						continue // one flip per bool
					}
					l.v.SetBool(!l.v.Bool())
				case l.v.CanInt():
					l.v.SetInt(int64(val))
				default:
					l.v.SetFloat(val)
				}
				label := fmt.Sprintf("%v with %s=%v", fn, l.name, l.v)
				if cfg.Validate() != nil {
					rejected++
					continue
				}
				built++
				if err := writeReadBack(cfg); err != nil {
					t.Errorf("%s: %v", label, err)
				}
			}
		}
	}
	t.Logf("%d configs rejected, %d built", rejected, built)
}

// writeReadBack builds cfg, writes one stamped 4 KiB block through the
// workload driver and reads it back; it reports a panic, an I/O that
// failed or did not finish within 2 s of simulated time, a read the
// driver's check refused, or a leak once the engine drains.
func writeReadBack(cfg Config) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	c := New(cfg)
	vd := c.MustProvision(0, 16<<20, DefaultQoS())
	drv := workload.NewDriver(c.Eng)
	done := 0
	drv.Closed(vd.ID, vd, 1, 0, func(_, n int) (bool, uint64, int, bool) {
		return n == 0, 0x4000, workload.BlockSize, n < 2
	}, func(io *workload.IO) {
		if io.Res.Err == nil {
			done++
		}
	})
	c.RunFor(2 * time.Second)
	if done != 2 {
		return fmt.Errorf("%d of the write and its read succeeded within 2 s", done)
	}
	c.Run()
	if n, ferr := c.Eng.Failed(); n != 0 {
		return fmt.Errorf("read check: %v", ferr)
	}
	if n := c.Leaked(); n != 0 {
		return fmt.Errorf("%d pooled records leaked", n)
	}
	return nil
}
