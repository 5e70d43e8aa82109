package p4_test

import (
	"fmt"

	"lunasolar/internal/crc"
	"lunasolar/internal/p4"
	"lunasolar/internal/sa"
	"lunasolar/internal/wire"
)

// Example is §4.6 of the paper made executable. The storage agent's data
// path is "essentially block reading, data computation, block writing, and
// table checking/maintaining", so it fits a P4-compatible packet pipeline —
// the property that makes Solar portable to commodity ASIC DPUs. This
// builds the write and read pipelines, loads the match-action tables from a
// real segment table, and pushes genuine Solar packets through them.
func Example() {
	// Management plane: provision a disk and mirror its segment table into
	// the hardware Block table.
	segs := sa.NewSegmentTable()
	if err := segs.Provision(7, 16<<20, []uint32{0xA1, 0xA2, 0xA3}); err != nil {
		panic(err)
	}
	write := p4.NewSolarWritePipeline()
	write.AdmitDisk(7)
	write.LoadSegmentTable(segs, 7, 16<<20)
	fmt.Print(write.Program.Describe())

	// Data plane: one 4 KiB block as one packet, straight through the
	// match-action stages.
	payload := make([]byte, 4096)
	copy(payload, "one block, one packet")
	rpc := wire.RPC{RPCID: 11, MsgType: wire.RPCWriteReq, NumPkts: 1}
	ebs := wire.EBS{Version: wire.EBSVersion, Op: wire.OpWrite, VDisk: 7, LBA: 5 << 20, BlockLen: 4096}
	pkt := make([]byte, wire.RPCSize+wire.EBSSize+len(payload))
	rpc.Encode(pkt)
	ebs.Encode(pkt[wire.RPCSize:])
	copy(pkt[wire.RPCSize+wire.EBSSize:], payload)

	out, ctx, err := write.Program.Run(pkt)
	if err != nil {
		panic(err)
	}
	var outEBS wire.EBS
	outEBS.Decode(out[wire.RPCSize:])
	fmt.Printf("\nwrite: lba %#x -> segment %d on server %#x, CRC %08x (stages: %v)\n",
		5<<20, outEBS.SegmentID, ctx.Meta["server"], outEBS.BlockCRC, ctx.Trace)
	fmt.Println("pipeline CRC matches software CRC:", outEBS.BlockCRC == crc.Raw(payload))

	// An unprovisioned disk never reaches the wire.
	bad := append([]byte(nil), pkt...)
	ebs.VDisk = 99
	ebs.Encode(bad[wire.RPCSize:])
	_, ctx, _ = write.Program.Run(bad)
	fmt.Printf("write to unknown disk: dropped=%v (stages: %v)\n", ctx.Dropped, ctx.Trace)

	// Read side: the Addr table is the only per-packet hardware state.
	read := p4.NewSolarReadPipeline()
	read.ExpectBlock(11, 0, 0xFEED0000)
	resp := wire.RPC{RPCID: 11, PktID: 0, MsgType: wire.RPCReadResp, NumPkts: 1}
	respEBS := wire.EBS{Version: wire.EBSVersion, Op: wire.OpRead, BlockLen: 4096, BlockCRC: crc.Raw(payload)}
	rpkt := make([]byte, wire.RPCSize+wire.EBSSize+len(payload))
	resp.Encode(rpkt)
	respEBS.Encode(rpkt[wire.RPCSize:])
	copy(rpkt[wire.RPCSize+wire.EBSSize:], payload)

	_, ctx, _ = read.Program.Run(rpkt)
	fmt.Printf("\nread response: dma to %#x, crc_ok=%d (stages: %v)\n",
		ctx.Meta["dma_addr"], ctx.Meta["crc_ok"], ctx.Trace)
	read.Release(11, 0)
	_, ctx, _ = read.Program.Run(rpkt)
	fmt.Printf("duplicate after release: dropped=%v — no reassembly state anywhere\n", ctx.Dropped)
	// Output:
	// program solar_write
	//   parser: rpc(16B) ebs(48B)
	//   table qos { key = ebs.vdisk; entries = 1 }
	//   extern seg_idx
	//   table block { key = ebs.vdisk, meta.segidx; entries = 8 }
	//   extern crc
	//
	// write: lba 0x500000 -> segment 3 on server 0xa3, CRC 63d7c06b (stages: [qos:hit extern:seg_idx block:hit extern:crc])
	// pipeline CRC matches software CRC: true
	// write to unknown disk: dropped=true (stages: [qos:miss])
	//
	// read response: dma to 0xfeed0000, crc_ok=1 (stages: [addr:hit extern:crc_check])
	// duplicate after release: dropped=true — no reassembly state anywhere
}
