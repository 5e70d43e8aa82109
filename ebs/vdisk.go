package ebs

import (
	"fmt"
	"slices"

	"lunasolar/internal/sa"
)

// VDisk is a provisioned virtual disk attached to one compute server.
type VDisk struct {
	ID      uint32
	cluster *Cluster
	agent   *sa.Agent
}

// IOResult is the completion record of one I/O. Latency comes from the span
// the agent measures.
type IOResult = sa.Result

// Provision creates a virtual disk of sizeBytes on compute server idx,
// striping its segments across every block server the control plane has
// not evacuated, and installs its QoS service level. Failed provisions
// leave no trace: the segment table is rolled back, so a caller can retry.
func (c *Cluster) Provision(computeIdx int, sizeBytes uint64, qos sa.QoSSpec) (*VDisk, error) {
	if computeIdx < 0 || computeIdx >= len(c.computes) {
		return nil, fmt.Errorf("ebs: provision on compute %d of %d", computeIdx, len(c.computes))
	}
	return c.provisionOn(computeIdx, sizeBytes, qos, c.stripeSet())
}

// stripeSet is the block servers new segments may go to: every one the
// control plane has not evacuated.
func (c *Cluster) stripeSet() []uint32 {
	addrs := c.BlockServerAddrs()
	if c.ctrlPlane == nil {
		return addrs
	}
	return slices.DeleteFunc(addrs, func(a uint32) bool { return c.ctrlPlane.evacuated[a] })
}

// provisionOn creates a disk with an explicit segment placement: servers
// is either the stripe set (round-robin) or, from the control plane, one
// address per segment chosen by its failure-domain placement. Every disk
// draws its ID from the one cluster counter, and a failed provision gives
// its ID back.
func (c *Cluster) provisionOn(computeIdx int, sizeBytes uint64, qos sa.QoSSpec, servers []uint32) (*VDisk, error) {
	id := c.nextVD + 1
	if err := c.segs.Provision(id, sizeBytes, servers); err != nil {
		return nil, fmt.Errorf("ebs: provision vdisk on compute %d: %w", computeIdx, err)
	}
	agent := c.computes[computeIdx].Agent
	agent.SetQoS(id, qos)
	c.nextVD = id
	return &VDisk{ID: id, cluster: c, agent: agent}, nil
}

// MustProvision is Provision for experiment and test setup code, where a
// provisioning failure is a programming error: it panics instead of
// returning it.
func (c *Cluster) MustProvision(computeIdx int, sizeBytes uint64, qos sa.QoSSpec) *VDisk {
	vd, err := c.Provision(computeIdx, sizeBytes, qos)
	if err != nil {
		panic(err)
	}
	return vd
}

// Size returns the disk's provisioned size in bytes, as the segment table
// records it.
func (v *VDisk) Size() uint64 { return v.cluster.segs.Size(v.ID) }

// Write issues a write I/O; done runs at completion with the measured
// latency (excluding QoS policy delay, per the paper's methodology).
func (v *VDisk) Write(lba uint64, data []byte, done func(IOResult)) {
	v.agent.Write(v.ID, lba, data, done)
}

// Read issues a read I/O.
func (v *VDisk) Read(lba uint64, size int, done func(IOResult)) {
	v.agent.Read(v.ID, lba, size, done)
}
