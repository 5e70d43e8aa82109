// Package wire defines the on-the-wire formats of the EBS frontend network:
// Luna's TCP segment header, the RPC header, Solar's EBS header (Figs. 12–13
// of the paper: opcode, virtual-disk addressing and per-block CRC carried in
// every packet), the per-packet ACK, the RoCE CNP, and the in-band network
// telemetry (INT) stack that HPCC congestion control consumes. IPv4 and UDP
// have no codec: a frame's addressing (hosts, ports, Solar's path ID, ECN)
// rides on simnet.Packet fields, and the two headers enter only as frame
// overhead (IPv4Size, UDPSize).
//
// All types follow the zero-copy decode/serialize idiom: Encode writes into
// a caller-supplied slice at a fixed offset layout and Decode reads from one
// without retaining it. Sizes are compile-time constants so a full Solar
// data packet (headers + 4 KiB block) always fits a 9000-byte jumbo frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var (
	// ErrShort is returned when a buffer is too small for the header.
	ErrShort = errors.New("wire: buffer too short")
	// ErrVersion is returned on an unsupported header version.
	ErrVersion = errors.New("wire: unsupported version")
)

var be = binary.BigEndian

// IP protocol numbers (simnet.Packet.Proto).
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// ECN codepoints (simnet.Packet.ECN; the low two bits of the IPv4 TOS byte).
const (
	ECNNotECT = 0b00
	ECNECT0   = 0b10
	ECNCE     = 0b11 // congestion experienced, set by switches
)

// IPv4Size is the length of the (option-less) IPv4 header.
const IPv4Size = 20

// UDPSize is the UDP header length. Solar uses the UDP source port
// (simnet.Packet.SrcPort) as its multi-path path ID: ECMP's consistent hash
// over the 5-tuple sends distinct source ports down distinct, persistent
// fabric paths.
const UDPSize = 8

// TCPSegSize is the length of the (option-less) TCP segment header used by
// the kernel and Luna stacks.
const TCPSegSize = 20

// TCP flag bits.
const (
	TCPFlagRST = 1 << 2
	TCPFlagACK = 1 << 4
	TCPFlagECE = 1 << 6 // ECN echo, DCTCP-style feedback
)

// TCPSeg is the TCP segment header.
type TCPSeg struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
}

// Encode writes the header into b[:TCPSegSize].
func (h *TCPSeg) Encode(b []byte) error {
	if len(b) < TCPSegSize {
		return ErrShort
	}
	be.PutUint16(b[0:], h.SrcPort)
	be.PutUint16(b[2:], h.DstPort)
	be.PutUint32(b[4:], h.Seq)
	be.PutUint32(b[8:], h.Ack)
	b[12] = 5 << 4 // data offset
	b[13] = h.Flags
	be.PutUint16(b[14:], h.Window)
	be.PutUint16(b[16:], 0) // checksum (link CRC covers the frame in-sim)
	be.PutUint16(b[18:], 0) // urgent
	return nil
}

// Decode reads the header from b.
func (h *TCPSeg) Decode(b []byte) error {
	if len(b) < TCPSegSize {
		return ErrShort
	}
	h.SrcPort = be.Uint16(b[0:])
	h.DstPort = be.Uint16(b[2:])
	h.Seq = be.Uint32(b[4:])
	h.Ack = be.Uint32(b[8:])
	h.Flags = b[13]
	h.Window = be.Uint16(b[14:])
	return nil
}

// CNPSize is the congestion-notification payload length.
const CNPSize = 16

// CNP is the RoCE congestion notification packet the RDMA receiver emits
// when CE-marked data arrives and DCQCN is the active controller. It rides
// behind a BTH whose flags carry ACK|ECE (the RDMA stack reuses TCPSeg as
// its BTH) and tells the sender's rate state machine to decrease. The
// fields identify the triggering flow for diagnostics; the signal itself
// is the frame's arrival.
type CNP struct {
	QPN     uint16 // sender's queue pair (the one being throttled)
	PSN     uint32 // receiver's expected PSN when the mark was seen
	TSNanos uint64 // virtual time the mark was observed
}

// Encode writes the CNP into b[:CNPSize].
func (h *CNP) Encode(b []byte) error {
	if len(b) < CNPSize {
		return ErrShort
	}
	be.PutUint16(b[0:], h.QPN)
	be.PutUint16(b[2:], 0) // reserved
	be.PutUint32(b[4:], h.PSN)
	be.PutUint64(b[8:], h.TSNanos)
	return nil
}

// Decode reads the CNP from b.
func (h *CNP) Decode(b []byte) error {
	if len(b) < CNPSize {
		return ErrShort
	}
	h.QPN = be.Uint16(b[0:])
	h.PSN = be.Uint32(b[4:])
	h.TSNanos = be.Uint64(b[8:])
	return nil
}

// RPC message types.
const (
	RPCWriteReq  = 1 // carries one data block toward a block server
	RPCWriteResp = 2 // per-packet write acknowledgment
	RPCReadReq   = 3 // asks for blocks; responses arrive one per packet
	RPCReadResp  = 4 // carries one data block back
	RPCAck       = 5 // transport-level per-packet ACK (Solar)
	RPCProbe     = 7 // path-keepalive / INT probe
)

// RPCSize is the RPC header length.
const RPCSize = 16

// RPC identifies a request and the packet's position within it. Solar sends
// one block per packet, so (RPCID, PktID) uniquely addresses a block; the
// receiver needs no reassembly state beyond the Addr table entry the sender
// installed (§4.5, Fig. 13).
type RPC struct {
	RPCID    uint64
	PktID    uint16
	NumPkts  uint16 // packets in this RPC (1 for most I/O, Fig. 5)
	MsgType  uint8
	Flags    uint8
	ConnSalt uint16 // demultiplexes retransmitted generations
}

// Encode writes the header into b[:RPCSize].
func (h *RPC) Encode(b []byte) error {
	if len(b) < RPCSize {
		return ErrShort
	}
	be.PutUint64(b[0:], h.RPCID)
	be.PutUint16(b[8:], h.PktID)
	be.PutUint16(b[10:], h.NumPkts)
	b[12] = h.MsgType
	b[13] = h.Flags
	be.PutUint16(b[14:], h.ConnSalt)
	return nil
}

// Decode reads the header from b.
func (h *RPC) Decode(b []byte) error {
	if len(b) < RPCSize {
		return ErrShort
	}
	h.RPCID = be.Uint64(b[0:])
	h.PktID = be.Uint16(b[8:])
	h.NumPkts = be.Uint16(b[10:])
	h.MsgType = b[12]
	h.Flags = b[13]
	h.ConnSalt = be.Uint16(b[14:])
	return nil
}

// EBS opcodes.
const (
	OpWrite = 1
	OpRead  = 2
)

// EBS header flags.
const (
	EBSFlagEncrypted = 1 << 0 // payload passed through the SEC engine
	EBSFlagLastBlock = 1 << 1 // final block of the I/O
	// EBSFlagHasCRC marks BlockCRC as carrying one-touch CRC metadata
	// (computed once at ingress), distinguishing a genuine CRC of zero
	// from "no CRC attached" on transports where carriage is optional.
	EBSFlagHasCRC = 1 << 2
	// EBSFlagReject marks a response carrying no data: the server no
	// longer owns the requested segment (migration cutover). The client
	// fails the request with transport.ErrNotOwner instead of waiting for
	// blocks that will never arrive.
	EBSFlagReject = 1 << 3
	// EBSFlagError marks a response carrying no data because the server
	// failed the request for any other reason; the client fails it with
	// transport.ErrRemote.
	EBSFlagError = 1 << 4
)

// EBSSize is the EBS header length.
const EBSSize = 48

// EBS is the storage header each Solar packet carries: everything the FPGA
// pipeline needs to process the block with no other connection state. The
// block address has already been translated by the Block table on the
// sender, so the receiving block server can apply it directly.
type EBS struct {
	Version   uint8
	Op        uint8
	Flags     uint8
	VDisk     uint32 // virtual disk ID
	SegmentID uint64 // 2 MiB segment within the block server
	LBA       uint64 // logical block address within the virtual disk
	BlockLen  uint32 // payload bytes (4096 for a full block)
	BlockCRC  uint32 // raw CRC-32C of the payload, computed by the FPGA
	Gen       uint32 // segment generation, guards stale retransmits

	// Distributed-trace annotations, meaningful on responses only: total
	// block-server residence time and the media portion (Fig. 6's BN and
	// SSD attribution travels in-band, as production tracing does).
	ServerNS uint32
	SSDNS    uint32
}

// EBSVersion is the current header version.
const EBSVersion = 2

// Encode writes the header into b[:EBSSize].
func (h *EBS) Encode(b []byte) error {
	if len(b) < EBSSize {
		return ErrShort
	}
	b[0] = h.Version
	b[1] = h.Op
	b[2] = h.Flags
	b[3] = 0
	be.PutUint32(b[4:], h.VDisk)
	be.PutUint64(b[8:], h.SegmentID)
	be.PutUint64(b[16:], h.LBA)
	be.PutUint32(b[24:], h.BlockLen)
	be.PutUint32(b[28:], h.BlockCRC)
	be.PutUint32(b[32:], h.Gen)
	be.PutUint32(b[36:], 0) // reserved
	be.PutUint32(b[40:], h.ServerNS)
	be.PutUint32(b[44:], h.SSDNS)
	return nil
}

// Decode reads the header from b, checking the version.
func (h *EBS) Decode(b []byte) error {
	if len(b) < EBSSize {
		return ErrShort
	}
	if b[0] != EBSVersion {
		return ErrVersion
	}
	h.Version = b[0]
	h.Op = b[1]
	h.Flags = b[2]
	h.VDisk = be.Uint32(b[4:])
	h.SegmentID = be.Uint64(b[8:])
	h.LBA = be.Uint64(b[16:])
	h.BlockLen = be.Uint32(b[24:])
	h.BlockCRC = be.Uint32(b[28:])
	h.Gen = be.Uint32(b[32:])
	h.ServerNS = be.Uint32(b[40:])
	h.SSDNS = be.Uint32(b[44:])
	return nil
}

// AckSize is the ACK payload length.
const AckSize = 40

// Ack is Solar's per-packet acknowledgment. It echoes the sender timestamp
// for RTT measurement and carries the bottleneck INT summary the Path&CC
// module feeds to HPCC (§4.5: "per-packet ACK to perform a fine-grained
// congestion control algorithm (e.g., HPCC)").
type Ack struct {
	RPCID     uint64
	PktID     uint16
	PathID    uint16 // echoed UDP source port
	EchoTS    uint64 // sender timestamp, ns
	QLen      uint32 // bottleneck queue length, bytes
	TxRate    uint32 // bottleneck delivery rate, Mbit/s
	ECNMarked bool
	ServerNS  uint32 // block-server residence time, ns (distributed trace)
	SSDNS     uint32 // media portion, ns
}

// Encode writes the ACK into b[:AckSize].
func (h *Ack) Encode(b []byte) error {
	if len(b) < AckSize {
		return ErrShort
	}
	be.PutUint64(b[0:], h.RPCID)
	be.PutUint16(b[8:], h.PktID)
	be.PutUint16(b[10:], h.PathID)
	be.PutUint64(b[12:], h.EchoTS)
	be.PutUint32(b[20:], h.QLen)
	be.PutUint32(b[24:], h.TxRate)
	if h.ECNMarked {
		b[28] = 1
	} else {
		b[28] = 0
	}
	b[29], b[30], b[31] = 0, 0, 0
	be.PutUint32(b[32:], h.ServerNS)
	be.PutUint32(b[36:], h.SSDNS)
	return nil
}

// Decode reads the ACK from b.
func (h *Ack) Decode(b []byte) error {
	if len(b) < AckSize {
		return ErrShort
	}
	h.RPCID = be.Uint64(b[0:])
	h.PktID = be.Uint16(b[8:])
	h.PathID = be.Uint16(b[10:])
	h.EchoTS = be.Uint64(b[12:])
	h.QLen = be.Uint32(b[20:])
	h.TxRate = be.Uint32(b[24:])
	h.ECNMarked = b[28] == 1
	h.ServerNS = be.Uint32(b[32:])
	h.SSDNS = be.Uint32(b[36:])
	return nil
}

// INTHop is one switch's telemetry record, appended in-band as the packet
// traverses the fabric.
type INTHop struct {
	HopID   uint16
	QLenB   uint32 // queue occupancy at enqueue, bytes
	TxBytes uint64 // cumulative bytes transmitted on the egress port
	RateMbs uint32 // port line rate, Mbit/s
	TSNanos uint64 // switch-local timestamp
}

// INTHopSize is the per-hop record length.
const INTHopSize = 26

// INTStack is the variable-length telemetry stack. The first byte of its
// encoding is the hop count.
type INTStack struct {
	Hops []INTHop
}

// MaxINTHops bounds the stack (FN crosses at most ~8 switch hops).
const MaxINTHops = 8

// EncodedSize returns the bytes Encode will write.
func (s *INTStack) EncodedSize() int { return 1 + len(s.Hops)*INTHopSize }

// Push appends a hop record (no-op beyond MaxINTHops, mirroring hardware
// truncation).
func (s *INTStack) Push(h INTHop) {
	if len(s.Hops) < MaxINTHops {
		s.Hops = append(s.Hops, h)
	}
}

// Encode writes the stack into b.
func (s *INTStack) Encode(b []byte) error {
	if len(b) < s.EncodedSize() {
		return ErrShort
	}
	b[0] = byte(len(s.Hops))
	off := 1
	for _, h := range s.Hops {
		be.PutUint16(b[off:], h.HopID)
		be.PutUint32(b[off+2:], h.QLenB)
		be.PutUint64(b[off+6:], h.TxBytes)
		be.PutUint32(b[off+14:], h.RateMbs)
		be.PutUint64(b[off+18:], h.TSNanos)
		off += INTHopSize
	}
	return nil
}

// Decode reads the stack from b, returning the number of bytes consumed.
func (s *INTStack) Decode(b []byte) (int, error) {
	if len(b) < 1 {
		return 0, ErrShort
	}
	n := int(b[0])
	if n > MaxINTHops {
		return 0, fmt.Errorf("wire: INT stack claims %d hops", n)
	}
	need := 1 + n*INTHopSize
	if len(b) < need {
		return 0, ErrShort
	}
	s.Hops = s.Hops[:0]
	off := 1
	for i := 0; i < n; i++ {
		s.Hops = append(s.Hops, INTHop{
			HopID:   be.Uint16(b[off:]),
			QLenB:   be.Uint32(b[off+2:]),
			TxBytes: be.Uint64(b[off+6:]),
			RateMbs: be.Uint32(b[off+14:]),
			TSNanos: be.Uint64(b[off+18:]),
		})
		off += INTHopSize
	}
	return need, nil
}

// BlockSize is the storage data block size: 4 KiB, matching the SSD sector
// size, the unit of the one-block-one-packet design.
const BlockSize = 4096

// Blocks returns how many blocks n payload bytes span; the last may be
// short. n <= 0 spans none.
func Blocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// JumboFrame is the fabric MTU. The paper uses 4 KiB-payload jumbo frames
// ("we use 4K bytes instead of 8K bytes for the jumbo frame"); a Solar data
// packet with all headers comfortably fits.
const JumboFrame = 9000

// SolarDataPacketSize is the full size of a one-block Solar data packet.
const SolarDataPacketSize = IPv4Size + UDPSize + RPCSize + EBSSize + BlockSize
