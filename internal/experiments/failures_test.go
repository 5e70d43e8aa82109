package experiments

import (
	"testing"
	"time"

	"lunasolar/ebs"
	"lunasolar/internal/simnet"
)

// TestTable2ToRFailureHangsLunaNotSolar is Table 2's headline claim on its
// "ToR switch failure" row: a hung ToR (links up, no signal) leaves Luna
// I/Os unanswered for a second or more, and Solar fails over to the rack's
// other ToR before any I/O hangs. The criterion and the quick 1.5 s window
// are Table2's own; the load is smaller, to fit the tier-1 budget: only the
// disks of two compute hosts under the failed ToR carry traffic.
func TestTable2ToRFailureHangsLunaNotSolar(t *testing.T) {
	var tor table2Scenario
	for _, sc := range table2Scenarios() {
		if sc.name == "ToR switch failure" {
			tor = sc
		}
	}
	if tor.inject == nil {
		t.Fatal("no ToR switch failure scenario in table2Scenarios")
	}
	hangs := func(fn ebs.StackKind) int {
		c := ebs.New(clusterConfig(quickOpts(), fn))
		// The scenario fails ToR(0, 0, 0, 0), which serves rack 0 of pod 0.
		under := map[*simnet.Host]bool{c.Fabric.Host(0, 0, 0, 0): true, c.Fabric.Host(0, 0, 0, 1): true}
		var vds []*ebs.VDisk
		for ci := 0; ci < c.Computes(); ci++ {
			if under[c.Compute(ci).Host] {
				vds = append(vds, c.MustProvision(ci, 128<<20, ebs.DefaultQoS()))
			}
		}
		if len(vds) != len(under) {
			t.Fatalf("%v: %d of %d hosts under the failed ToR are compute hosts", fn, len(vds), len(under))
		}
		return table2Cell(c, vds, tor, 1500*time.Millisecond)
	}
	if n := hangs(ebs.Luna); n < 1 {
		t.Errorf("Luna: %d I/Os hung >= 1s under a ToR switch failure, want at least 1", n)
	}
	if n := hangs(ebs.Solar); n != 0 {
		t.Errorf("Solar: %d I/Os hung >= 1s under a ToR switch failure, want 0", n)
	}
}
