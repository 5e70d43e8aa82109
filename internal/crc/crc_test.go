package crc

import (
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// poly is the reversed Castagnoli polynomial, written out here so the
// reference below shares nothing with the engine under test.
const poly = 0x82f63b78

// rawBitwise is the bit-at-a-time definition of the raw CRC-32C that Raw
// is compared against.
func rawBitwise(p []byte) uint32 {
	var c uint32
	for _, b := range p {
		c ^= uint32(b)
		for i := 0; i < 8; i++ {
			c = c>>1 ^ poly&-(c&1)
		}
	}
	return c
}

// checksum is the standard (inverted) CRC-32C, the other form Combine
// must hold for.
func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// xor returns a⊕b for equal-length a and b.
func xor(a, b []byte) []byte {
	x := make([]byte, len(a))
	for i := range a {
		x[i] = a[i] ^ b[i]
	}
	return x
}

// FuzzRawMatchesBitwise holds Raw to the bitwise reference over arbitrary
// lengths and, through p[off:], over every start alignment mod 8, so the
// head and tail handling of hash/crc32's assembly is exercised.
func FuzzRawMatchesBitwise(f *testing.F) {
	pat := make([]byte, 4200)
	for i := range pat {
		pat[i] = byte(i*131 + 7)
	}
	// The index doubles as the start offset, so each length n is hashed
	// from a different alignment.
	for off, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 255, 1024, 4095, 4096, 4097} {
		f.Add(pat[:off%8+n], uint8(off))
	}
	f.Add([]byte("123456789"), uint8(0))
	f.Fuzz(func(t *testing.T, p []byte, off uint8) {
		o := int(off % 8)
		if o > len(p) {
			o = len(p)
		}
		p = p[o:]
		if got, want := Raw(p), rawBitwise(p); got != want {
			t.Fatalf("len=%d off=%d: Raw = %08x, bitwise = %08x", len(p), o, got, want)
		}
	})
}

func TestRawKnownVector(t *testing.T) {
	// iSCSI check value: CRC32C("123456789") = 0xE3069283. By linearity the
	// standard form is the raw CRC plus the all-ones init shifted across the
	// message, inverted.
	msg := []byte("123456789")
	if got := ^Combine(0xffffffff, Raw(msg), int64(len(msg))); got != 0xe3069283 {
		t.Fatalf("got %08x", got)
	}
}

// TestRawOfZerosIsZero pins the identity the chunk server's unwritten-space
// read relies on: a zero register stays zero across zero bytes.
func TestRawOfZerosIsZero(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096} {
		if got := Raw(make([]byte, n)); got != 0 {
			t.Fatalf("Raw(zeros(%d)) = %08x", n, got)
		}
	}
}

func TestRawDoesNotAllocate(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(8)).Read(data)
	if n := testing.AllocsPerRun(100, func() { sinkU32 = Raw(data) }); n != 0 {
		t.Fatalf("Raw(4 KiB) allocates %v times per call", n)
	}
}

func TestRawLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(4096)
		a := make([]byte, n)
		b := make([]byte, n)
		r.Read(a)
		r.Read(b)
		if Raw(xor(a, b)) != Raw(a)^Raw(b) {
			t.Fatalf("linearity violated at len %d", n)
		}
	}
}

func TestRawLinearityProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		return Raw(xor(a, b)) == Raw(a)^Raw(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStandardChecksumIsNotLinear(t *testing.T) {
	// Documents why the aggregation uses Raw, not the standard form: the
	// init/final inversions break linearity.
	a := []byte{1, 2, 3, 4}
	b := []byte{5, 6, 7, 8}
	if checksum(xor(a, b)) == checksum(a)^checksum(b) {
		t.Fatal("expected standard CRC to violate XOR linearity")
	}
}

func TestCombine(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		la, lb := r.Intn(2048), r.Intn(2048)
		a := make([]byte, la)
		b := make([]byte, lb)
		r.Read(a)
		r.Read(b)
		whole := checksum(append(append([]byte{}, a...), b...))
		got := Combine(checksum(a), checksum(b), int64(lb))
		if got != whole {
			t.Fatalf("combine(la=%d, lb=%d) = %08x, want %08x", la, lb, got, whole)
		}
	}
}

func TestCombineZeroLength(t *testing.T) {
	a := checksum([]byte("hello"))
	if got := Combine(a, checksum(nil), 0); got != a {
		t.Fatalf("combine with empty B changed CRC: %08x", got)
	}
}

func TestAggregatorDetectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const blockSize = 4096
	const blocks = 16

	payloads := make([][]byte, blocks)
	for i := range payloads {
		payloads[i] = make([]byte, blockSize)
		r.Read(payloads[i])
	}

	// Clean run: FPGA CRCs match expected.
	var agg Aggregator
	for _, p := range payloads {
		c := Raw(p)
		agg.AddBlockCRC(c) // what the FPGA reported
		agg.AddExpected(c) // trusted metadata
	}
	if !agg.Verify() {
		t.Fatal("clean segment failed verification")
	}

	// Corrupted run: flip one bit in one block after CRC was computed —
	// the FPGA reports the CRC of the corrupted data.
	agg = Aggregator{}
	for i, p := range payloads {
		agg.AddExpected(Raw(p))
		if i == 7 {
			corrupted := append([]byte{}, p...)
			corrupted[1234] ^= 0x10
			agg.AddBlockCRC(Raw(corrupted))
		} else {
			agg.AddBlockCRC(Raw(p))
		}
	}
	if agg.Verify() {
		t.Fatal("single-bit corruption not detected")
	}
}

func TestAggregatorEveryBitPosition(t *testing.T) {
	// Any single-bit flip in any block must be caught (CRC detects all
	// single-bit errors; XOR folding preserves a single block's error).
	p := make([]byte, 512)
	rand.New(rand.NewSource(5)).Read(p)
	clean := Raw(p)
	for byteIdx := 0; byteIdx < len(p); byteIdx += 37 {
		for bit := 0; bit < 8; bit++ {
			p[byteIdx] ^= 1 << bit
			var agg Aggregator
			agg.AddExpected(clean)
			agg.AddBlockCRC(Raw(p))
			if agg.Verify() {
				t.Fatalf("flip at %d.%d undetected", byteIdx, bit)
			}
			p[byteIdx] ^= 1 << bit
		}
	}
}

func BenchmarkRaw4K(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(6)).Read(data)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkU32 = Raw(data)
	}
}
