package crc

import (
	"math/rand"
	"testing"
)

// FuzzCRCCombine cross-checks Combine against a direct CRC of the
// concatenation, for both the standard (inverted) and raw (linear) CRC
// forms.
func FuzzCRCCombine(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte{0x5a})
	f.Add([]byte("123456789"), []byte{})
	f.Add([]byte{0}, []byte{0})
	f.Add([]byte("luna"), []byte("solar"))
	big := make([]byte, blockLen4K)
	for i := range big {
		big[i] = byte(i * 7)
	}
	f.Add(big[:1], big)
	f.Add(big, big[:117])
	f.Fuzz(func(t *testing.T, a, b []byte) {
		cat := append(append([]byte(nil), a...), b...)
		lenB := int64(len(b))

		if got, want := Combine(checksum(a), checksum(b), lenB), checksum(cat); got != want {
			t.Fatalf("Combine(checksum) lenA=%d lenB=%d: got %08x want %08x", len(a), len(b), got, want)
		}
		if got, want := Combine(Raw(a), Raw(b), lenB), Raw(cat); got != want {
			t.Fatalf("Combine(Raw) lenA=%d lenB=%d: got %08x want %08x", len(a), len(b), got, want)
		}
	})
}

func TestCombineEdgeLengths(t *testing.T) {
	a := []byte("the quick brown fox")
	crcA := checksum(a)

	// Zero-length part: appending nothing is the identity.
	if got := Combine(crcA, checksum(nil), 0); got != crcA {
		t.Fatalf("zero-length append changed the CRC: %08x != %08x", got, crcA)
	}
	if got := Combine(crcA, 0xdeadbeef, -4); got != crcA {
		t.Fatalf("negative length must be treated as empty, got %08x", got)
	}

	// 1-byte part against the direct checksum.
	b := []byte{0xa5}
	if got, want := Combine(crcA, checksum(b), 1), checksum(append(append([]byte(nil), a...), b...)); got != want {
		t.Fatalf("1-byte part: got %08x want %08x", got, want)
	}

	// Exact 4 KiB hits the memoized operator; it must agree with the raw
	// concatenation.
	blk := make([]byte, blockLen4K)
	r := rand.New(rand.NewSource(99))
	r.Read(blk)
	want := Raw(append(append([]byte(nil), a...), blk...))
	if got := Combine(Raw(a), Raw(blk), blockLen4K); got != want {
		t.Fatalf("4K fast path: got %08x want %08x", got, want)
	}
}

// TestCombineMultiGiBLength exercises int64 length arguments far beyond
// 2^31. Shifting a CRC across zero bytes is additive in the length
// (shift(c, m+n) == shift(shift(c, m), n)), so any integer truncation in
// the squaring chain breaks the identity. The lengths are anchored to real
// data by the fuzz corpus and the incremental check below.
func TestCombineMultiGiBLength(t *testing.T) {
	const c = uint32(0x1b0c2a35)
	shift := func(crc uint32, n int64) uint32 {
		// CRC of A||zeros(n): the zeros contribute a zero raw CRC.
		return Combine(crc, 0, n)
	}
	lengths := []int64{
		3 << 30,        // 3 GiB: past int32
		5 << 30,        // 5 GiB
		(1 << 35) + 7,  // 32 GiB + 7
		(1 << 40) + 13, // 1 TiB + 13
	}
	for _, n := range lengths {
		m := n/3 + 1
		if got, want := shift(c, n), shift(shift(c, m), n-m); got != want {
			t.Fatalf("shift additivity broken at n=%d: %08x != %08x", n, got, want)
		}
	}
	// Anchor the shift against genuinely hashed zeros at a length big
	// enough to cross several doubling steps.
	const zeros = 1 << 20
	if got, want := shift(Raw([]byte("anchor")), zeros), Raw(append([]byte("anchor"), make([]byte, zeros)...)); got != want {
		t.Fatalf("1 MiB zero shift: got %08x want %08x", got, want)
	}
}

func TestCombineBlocksMatchesConcatenation(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, blockLen := range []int64{blockLen4K, 512, 1} {
		for _, blocks := range []int{0, 1, 2, 3, 8} {
			var cat []byte
			var crcs []uint32
			for i := 0; i < blocks; i++ {
				b := make([]byte, blockLen)
				r.Read(b)
				cat = append(cat, b...)
				crcs = append(crcs, Raw(b))
			}
			if got, want := CombineBlocks(crcs, blockLen), Raw(cat); got != want {
				t.Fatalf("blockLen=%d blocks=%d: got %08x want %08x", blockLen, blocks, got, want)
			}
		}
	}
}

// BenchmarkCombine4K measures the memoized fast path the data path hits on
// every per-block fold at the blockserver boundary.
func BenchmarkCombine4K(b *testing.B) {
	crcA, crcB := Raw([]byte("a")), Raw([]byte("b"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crcA = Combine(crcA, crcB, blockLen4K)
	}
	sinkU32 = crcA
}

// BenchmarkCombineCold measures the unmemoized squaring-chain path for
// comparison (what every fold cost before the operator cache).
func BenchmarkCombineCold(b *testing.B) {
	crcA, crcB := Raw([]byte("a")), Raw([]byte("b"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crcA = Combine(crcA, crcB, blockLen4K+1)
	}
	sinkU32 = crcA
}

var sinkU32 uint32
