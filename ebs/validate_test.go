package ebs

import (
	"strings"
	"testing"
)

// Every rejected composition is an error from Config.validate — the one
// place compositions are judged. New panics with exactly that error;
// ControlPlane returns it.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fn        StackKind
		mutate    func(*Config)
		ctrlPlane bool
		want      string
	}{
		{"no computes", Solar, func(c *Config) { c.ComputeServers = 0 }, false, "cluster needs computes"},
		{"two chunk servers", Solar, func(c *Config) { c.ChunkServers = 2 }, false, ">=3 chunk servers"},
		{"computes overflow pod", Solar, func(c *Config) { c.ComputeServers = 9 }, false, "9 compute servers exceed pod capacity 8"},
		{"storage overflows pod", Solar, func(c *Config) { c.ChunkServers = 7 }, false, "9 storage servers exceed pod capacity 8"},
		{"cross-DC on one DC", Solar, func(c *Config) { c.CrossDC = true }, false, "CrossDC requires >=2 DCs"},
		{"edge on luna", Luna, func(c *Config) { c.Edge = true }, false, "Edge mode integrates the Solar-era DPU"},
		{"unknown cc", RDMA, func(c *Config) { c.CC = 3 }, false, "unknown congestion controller 3"},
		{"no storage cores", Solar, func(c *Config) { c.StorageCores = 0 }, false, "StorageCores must be positive"},
		{"no stack cores on luna", Luna, func(c *Config) { c.StackCores = 0 }, false, "StackCores must be positive"},
		{"no PCIe on solar", Solar, func(c *Config) { c.DPU.PCIeBps = 0 }, false, "DPU.PCIeBps must be positive"},
		{"no PCIe on solar before BareMetal", Solar, func(c *Config) { c.BareMetal, c.DPU.PCIeBps = false, 0 }, false, "DPU.PCIeBps must be positive"},
		{"no host link rate", RDMA, func(c *Config) { c.Fabric.HostLinkBps = 0 }, false, "Fabric.HostLinkBps must be positive"},
		{"no fabric link rate", RDMA, func(c *Config) { c.Fabric.FabricLinkBps = 0 }, false, "Fabric.FabricLinkBps must be positive"},
		{"no spines", Solar, func(c *Config) { c.Fabric.SpinesPerPod = 0 }, false, "Fabric.SpinesPerPod must be positive"},
		{"no cores", Solar, func(c *Config) { c.Fabric.CoresPerDC = 0 }, false, "Fabric.CoresPerDC must be positive"},
		{"no SSD IOPS", Luna, func(c *Config) { c.SSD.IOPSCap = 0 }, false, "SSD.IOPSCap must be positive"},
		{"control plane on coupled", Solar, func(c *Config) { c.CoupledParts = 2 }, true, "control plane requires a serial cluster"},
		{"control plane on edge", Solar, func(c *Config) { c.Edge = true }, true, "control plane does not support Edge mode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.fn)
			tc.mutate(&cfg)
			err := cfg.validate(tc.ctrlPlane)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate = %v, want error containing %q", err, tc.want)
			}
			if tc.ctrlPlane {
				if verr := cfg.Validate(); verr != nil {
					t.Fatalf("cluster-only Validate rejected a control-plane precondition: %v", verr)
				}
			}
			if tc.ctrlPlane {
				if _, cerr := New(cfg).ControlPlane(); cerr == nil || cerr.Error() != err.Error() {
					t.Fatalf("ControlPlane returned %v, want %v", cerr, err)
				}
				return
			}
			defer func() {
				if r := recover(); r == nil || r.(error).Error() != err.Error() {
					t.Fatalf("New panicked with %v, want %v", r, err)
				}
			}()
			New(cfg)
		})
	}
	if err := smallConfig(Solar).validate(true); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// Host stack cores matter only off the DPU, PCIe only on it.
	for _, tc := range []struct {
		name   string
		fn     StackKind
		mutate func(*Config)
	}{
		{"solar without stack cores", Solar, func(c *Config) { c.BareMetal, c.StackCores = false, 0 }},
		{"luna without PCIe", Luna, func(c *Config) { c.DPU.PCIeBps = 0 }},
	} {
		cfg := smallConfig(tc.fn)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s rejected: %v", tc.name, err)
		}
		New(cfg)
	}
}
