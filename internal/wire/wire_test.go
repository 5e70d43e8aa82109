package wire

import (
	"testing"
	"testing/quick"
)

func TestShortBuffers(t *testing.T) {
	short := make([]byte, 3)
	if err := (&TCPSeg{}).Encode(short); err != ErrShort {
		t.Fatal("TCPSeg short")
	}
	if err := (&RPC{}).Encode(short); err != ErrShort {
		t.Fatal("RPC short")
	}
	if err := (&EBS{}).Encode(short); err != ErrShort {
		t.Fatal("EBS short")
	}
	if err := (&Ack{}).Encode(short); err != ErrShort {
		t.Fatal("Ack short")
	}
	if _, err := (&INTStack{}).Decode(nil); err != ErrShort {
		t.Fatal("INT short")
	}
}

func TestTCPSegRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16) bool {
		in := TCPSeg{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: win}
		var b [TCPSegSize]byte
		in.Encode(b[:])
		var out TCPSeg
		out.Decode(b[:])
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	f := func(id uint64, pkt, num uint16, mt, fl uint8, salt uint16) bool {
		in := RPC{RPCID: id, PktID: pkt, NumPkts: num, MsgType: mt, Flags: fl, ConnSalt: salt}
		var b [RPCSize]byte
		in.Encode(b[:])
		var out RPC
		out.Decode(b[:])
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEBSRoundTrip(t *testing.T) {
	f := func(op, flags uint8, vd uint32, seg, lba uint64, blen, bcrc, gen uint32) bool {
		in := EBS{Version: EBSVersion, Op: op, Flags: flags, VDisk: vd,
			SegmentID: seg, LBA: lba, BlockLen: blen, BlockCRC: bcrc, Gen: gen}
		var b [EBSSize]byte
		in.Encode(b[:])
		var out EBS
		if err := out.Decode(b[:]); err != nil {
			return false
		}
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEBSVersionCheck(t *testing.T) {
	in := EBS{Version: 99}
	var b [EBSSize]byte
	in.Encode(b[:])
	var out EBS
	if err := out.Decode(b[:]); err != ErrVersion {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	f := func(id uint64, pkt, path uint16, ts uint64, ql, rate uint32, ecn bool, srv, ssd uint32) bool {
		in := Ack{RPCID: id, PktID: pkt, PathID: path, EchoTS: ts, QLen: ql, TxRate: rate,
			ECNMarked: ecn, ServerNS: srv, SSDNS: ssd}
		var b [AckSize]byte
		in.Encode(b[:])
		var out Ack
		out.Decode(b[:])
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestINTStackRoundTrip(t *testing.T) {
	var s INTStack
	for i := 0; i < 5; i++ {
		s.Push(INTHop{HopID: uint16(i), QLenB: uint32(i * 1000), TxBytes: uint64(i) << 30,
			RateMbs: 25000, TSNanos: uint64(i) * 777})
	}
	b := make([]byte, s.EncodedSize())
	if err := s.Encode(b); err != nil {
		t.Fatal(err)
	}
	var out INTStack
	n, err := out.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d, want %d", n, len(b))
	}
	if len(out.Hops) != 5 {
		t.Fatalf("hops = %d", len(out.Hops))
	}
	for i, h := range out.Hops {
		if h != s.Hops[i] {
			t.Fatalf("hop %d mismatch: %+v vs %+v", i, h, s.Hops[i])
		}
	}
}

func TestINTStackCapsHops(t *testing.T) {
	var s INTStack
	for i := 0; i < MaxINTHops+5; i++ {
		s.Push(INTHop{HopID: uint16(i)})
	}
	if len(s.Hops) != MaxINTHops {
		t.Fatalf("hops = %d, want cap %d", len(s.Hops), MaxINTHops)
	}
}

func TestINTStackRejectsBogusCount(t *testing.T) {
	b := []byte{200}
	var s INTStack
	if _, err := s.Decode(b); err == nil {
		t.Fatal("bogus hop count accepted")
	}
}

func TestSolarPacketFitsJumboFrame(t *testing.T) {
	if SolarDataPacketSize > JumboFrame {
		t.Fatalf("solar packet %d exceeds jumbo frame %d", SolarDataPacketSize, JumboFrame)
	}
	// And with a maximal INT stack it must still fit.
	full := SolarDataPacketSize + 1 + MaxINTHops*INTHopSize
	if full > JumboFrame {
		t.Fatalf("solar packet with INT %d exceeds jumbo frame", full)
	}
}

func BenchmarkEBSEncodeDecode(b *testing.B) {
	h := EBS{Version: EBSVersion, Op: OpWrite, VDisk: 7, SegmentID: 9, LBA: 4096, BlockLen: 4096, BlockCRC: 0xabcd, Gen: 3}
	var buf [EBSSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Encode(buf[:])
		var out EBS
		if err := out.Decode(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBlocks(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{-BlockSize, 0}, {-1, 0}, {0, 0}, {1, 1}, {BlockSize, 1}, {BlockSize + 1, 2}, {128 << 10, 32},
	} {
		if got := Blocks(tc.n); got != tc.want {
			t.Errorf("Blocks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
