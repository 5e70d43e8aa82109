package ebs_test

import (
	"bytes"
	"fmt"

	"lunasolar/ebs"
	"lunasolar/internal/trace"
)

// Example builds a Solar-era EBS cluster, provisions a virtual disk, writes
// 16 KiB and reads it back, and prints the latency breakdown the paper's
// Fig. 6 reports. Everything runs in virtual time inside Run, so the
// numbers are the same on every machine.
func Example() {
	// A small cluster: compute pod + storage pod behind a Clos fabric,
	// Solar on the frontend, RDMA on the backend, 3-way replication.
	cfg := ebs.DefaultConfig(ebs.Solar)
	cluster := ebs.New(cfg)

	// An 8 GiB virtual disk on compute server 0 with an ESSD-class service
	// level.
	vd := cluster.MustProvision(0, 8<<30, ebs.DefaultQoS())
	fmt.Printf("provisioned vdisk %d: %d GiB on %s stack\n", vd.ID, vd.Size()>>30, cfg.FN)

	// 16 KiB is four blocks: four independent Solar packets.
	payload := bytes.Repeat([]byte("lunasolar rocks "), 1024)
	vd.Write(0x10000, payload, func(w ebs.IOResult) {
		if w.Err != nil {
			fmt.Println("write failed:", w.Err)
			return
		}
		fmt.Printf("write: %v total  [SA %v | FN %v | BN %v | SSD %v]\n", w.Latency,
			w.Span.Get(trace.SA), w.Span.Get(trace.FN), w.Span.Get(trace.BN), w.Span.Get(trace.SSD))

		vd.Read(0x10000, len(payload), func(r ebs.IOResult) {
			if r.Err != nil || !bytes.Equal(r.Data, payload) {
				fmt.Println("read failed:", r.Err)
				return
			}
			fmt.Printf("read:  %v total  [SA %v | FN %v | BN %v | SSD %v]\n", r.Latency,
				r.Span.Get(trace.SA), r.Span.Get(trace.FN), r.Span.Get(trace.BN), r.Span.Get(trace.SSD))
			fmt.Println("read-back verified: data intact across FN, replication and SSDs")
		})
	})
	cluster.Run()
	// Output:
	// provisioned vdisk 1: 8 GiB on solar stack
	// write: 71.582µs total  [SA 1.2µs | FN 20.978µs | BN 29.13µs | SSD 20.274µs]
	// read:  111.594µs total  [SA 1.2µs | FN 20.784µs | BN 17.97µs | SSD 71.64µs]
	// read-back verified: data intact across FN, replication and SSDs
}
