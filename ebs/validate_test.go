package ebs

import (
	"strings"
	"testing"
	"time"
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
		{"no storage cores", Solar, func(c *Config) { c.StorageCores = 0 }, "StorageCores must be positive"},
		{"no stack cores on luna", Luna, func(c *Config) { c.StackCores = 0 }, "StackCores must be positive"},
		{"no PCIe on solar", Solar, func(c *Config) { c.DPU.PCIeBps = 0 }, "DPU.PCIeBps must be positive"},
		{"no PCIe on solar before BareMetal", Solar, func(c *Config) { c.BareMetal, c.DPU.PCIeBps = false, 0 }, "DPU.PCIeBps must be positive"},
		{"no host link rate", RDMA, func(c *Config) { c.Fabric.HostLinkBps = 0 }, "Fabric.HostLinkBps must be positive"},
		{"no fabric link rate", RDMA, func(c *Config) { c.Fabric.FabricLinkBps = 0 }, "Fabric.FabricLinkBps must be positive"},
		{"no spines", Solar, func(c *Config) { c.Fabric.SpinesPerPod = 0 }, "Fabric.SpinesPerPod must be positive"},
		{"no cores", Solar, func(c *Config) { c.Fabric.CoresPerDC = 0 }, "Fabric.CoresPerDC must be positive"},
		{"no SSD IOPS", Luna, func(c *Config) { c.SSD.IOPSCap = 0 }, "SSD.IOPSCap must be positive"},
		{"no SSD queue", Solar, func(c *Config) { c.SSD.Parallelism = 0 }, "SSD.Parallelism must be positive"},
		{"no DPU cores on solar", Solar, func(c *Config) { c.DPU.CPUCores = 0 }, "DPU.CPUCores must be positive"},
		{"no DCs", Solar, func(c *Config) { c.Fabric.DCs = 0 }, "Fabric.DCs must be in [1, 255], got 0"},
		{"no pods", Luna, func(c *Config) { c.Fabric.PodsPerDC = 0 }, "Fabric.PodsPerDC must be in [1, 255], got 0"},
		{"no racks", Solar, func(c *Config) { c.Fabric.RacksPerPod = 0 }, "Fabric.RacksPerPod must be in [1, 255], got 0"},
		{"no hosts per rack", RDMA, func(c *Config) { c.Fabric.HostsPerRack = 0 }, "Fabric.HostsPerRack must be in [1, 255], got 0"},
		{"hosts per rack overflow an address byte", Solar, func(c *Config) { c.Fabric.HostsPerRack = 256 }, "Fabric.HostsPerRack must be in [1, 255], got 256"},
		{"racks overflow an address byte", Luna, func(c *Config) { c.Fabric.RacksPerPod = 256 }, "Fabric.RacksPerPod must be in [1, 255], got 256"},
		{"one pod without CrossDC", Solar, func(c *Config) { c.Fabric.PodsPerDC = 1 }, "storage needs a second pod: Fabric.PodsPerDC is 1 without CrossDC"},
		{"no port buffer", Solar, func(c *Config) { c.Fabric.BufferBytes = 0 }, "Fabric.BufferBytes 0 is below one 9000 B frame"},
		{"port buffer below a frame", Luna, func(c *Config) { c.Fabric.BufferBytes = 1000 }, "Fabric.BufferBytes 1000 is below one 9000 B frame"},
		{"negative link delay on luna", Luna, func(c *Config) { c.Fabric.PropDelay = -time.Microsecond }, "Fabric.PropDelay -1µs"},
		{"negative link delay on solar", Solar, func(c *Config) { c.Fabric.PropDelay = -time.Microsecond }, "Fabric.PropDelay -1µs"},
		{"negative inter-DC delay", Solar, func(c *Config) {
			c.Fabric.DCs, c.Fabric.DCRouters, c.CrossDC, c.Fabric.InterDCDelay = 2, 2, true, -time.Microsecond
		}, "Fabric.InterDCDelay -1µs must not be negative"},
		{"no Addr table on solar", Solar, func(c *Config) { c.DPU.MaxAddrEntries = 0 }, "DPU.MaxAddrEntries must be at least 1, got 0"},
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
	// Host stack cores matter only off the DPU, PCIe only on it; a second
	// pod matters only when storage shares the compute DC.
	for _, tc := range []struct {
		name   string
		fn     StackKind
		mutate func(*Config)
	}{
		{"solar without stack cores", Solar, func(c *Config) { c.BareMetal, c.StackCores = false, 0 }},
		{"luna without PCIe", Luna, func(c *Config) { c.DPU.PCIeBps = 0 }},
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
