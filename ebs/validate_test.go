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
		{"unknown fidelity", Solar, func(c *Config) { c.Fidelity = 2 }, false, "unknown fidelity 2"},
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
}
