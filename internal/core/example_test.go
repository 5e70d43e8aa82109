package core_test

import (
	"bytes"
	"fmt"

	"lunasolar/ebs"
)

// Example_integrity is the Fig. 11 mechanism, live. An FPGA whose CRC
// engine flips bits and whose datapath corrupts blocks writes through
// Solar; the software CRC aggregation (one XOR per block on the CPU)
// catches and repairs every corruption before it reaches storage, at a
// fraction of a full software checksum's cost.
func Example_integrity() {
	cfg := ebs.DefaultConfig(ebs.Solar)
	cfg.Fabric.RacksPerPod = 2
	cfg.ComputeServers = 1
	cfg.BlockServers = 3
	cfg.ChunkServers = 5
	// A spectacularly bad FPGA: a third of blocks corrupted in the
	// datapath, a third of CRC computations flipped.
	cfg.DPU.Faults.DataBitFlip = 0.33
	cfg.DPU.Faults.CRCBitFlip = 0.33

	c := ebs.New(cfg)
	vd := c.MustProvision(0, 256<<20, ebs.DefaultQoS())

	const ios = 200
	payloads := make([][]byte, ios)
	done := 0
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 8192)
		vd.Write(uint64(i)<<14, payloads[i], func(res ebs.IOResult) {
			if res.Err == nil {
				done++
			}
		})
	}
	c.Run()
	crcFlips, dataFlips, _ := c.Compute(0).DPU.InjectedFaults()
	fmt.Printf("wrote %d I/Os through a faulty FPGA: %d datapath corruptions, %d CRC-engine flips injected\n",
		done, dataFlips, crcFlips)

	// Read everything back and verify byte for byte.
	bad, verified := 0, 0
	for i := range payloads {
		vd.Read(uint64(i)<<14, 8192, func(res ebs.IOResult) {
			verified++
			if !bytes.Equal(res.Data, payloads[i]) {
				bad++
			}
		})
	}
	c.Run()
	fmt.Printf("read back %d I/Os: %d corrupted\n", verified, bad)
	// Output:
	// wrote 200 I/Os through a faulty FPGA: 117 datapath corruptions, 85 CRC-engine flips injected
	// read back 200 I/Os: 0 corrupted
}
