// Package crc holds the CRC-32C properties EBS relies on for end-to-end
// data integrity. The byte-walking engine is hash/crc32 (hardware CRC32C
// where the platform has it); this package adds the two things Solar's
// design exploits on top:
//
//  1. A "raw" (zero-init, no final inversion) CRC32 is linear over GF(2):
//     Raw(a XOR b) == Raw(a) XOR Raw(b) for equal-length inputs. Solar's
//     software integrity check verifies only the XOR-aggregate of the
//     per-block CRCs computed by the FPGA (§4.5, "CRC aggregation"),
//     catching FPGA bit flips at a fraction of full software CRC cost.
//  2. Combine folds the CRC of a concatenation from the CRCs of its parts,
//     so a segment-level expected CRC can be maintained incrementally.
//
// The polynomial is Castagnoli (CRC-32C), as used by storage systems (iSCSI,
// ext4, NVMe).
package crc

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Raw returns the linear CRC-32C of data: zero initial state and no final
// inversion. For equal-length blocks, Raw(a⊕b) == Raw(a)⊕Raw(b); this is
// the form the FPGA CRC engine emits per block and the CPU aggregates.
// crc32.Update inverts its state on the way in and on the way out, so
// inverting both again leaves the bare register.
func Raw(data []byte) uint32 {
	return ^crc32.Update(^uint32(0), castagnoli, data)
}

// combineOp is the GF(2) operator that advances a CRC register across a
// fixed number of zero bytes, flattened into one 32×32 matrix: op[i] is the
// image of basis vector e_i. Building it costs one squaring chain; applying
// it is a single matrix–vector product.
//
// The operator is valid for both CRC forms: the raw (zero-init, linear)
// CRC satisfies Raw(A||B) = M_lenB·Raw(A) ⊕ Raw(B) directly, and the zlib
// construction makes the same identity hold for the inverted form of
// hash/crc32.Checksum.
type combineOp [32]uint32

// times multiplies the operator by the register v over GF(2).
func (op *combineOp) times(v uint32) uint32 {
	var sum uint32
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			sum ^= op[i]
		}
	}
	return sum
}

// mul returns a·b over GF(2): column i of the product is a applied to
// column i of b.
func mul(a, b *combineOp) combineOp {
	var dst combineOp
	for i := range dst {
		dst[i] = a.times(b[i])
	}
	return dst
}

// makeCombineOp builds the operator for appending lenB bytes by square-and-
// multiply over the bits of lenB (the zlib crc32_combine construction
// specialised to CRC-32C). lenB <= 0 appends nothing: the identity.
func makeCombineOp(lenB int64) combineOp {
	var op, sq combineOp
	for i := range op {
		op[i] = 1 << i
	}
	if lenB <= 0 {
		return op
	}
	// sq starts as the operator for one zero bit (a right shift that feeds
	// the reversed polynomial back in); three squarings make it one byte.
	sq[0] = crc32.Castagnoli
	for i := 1; i < 32; i++ {
		sq[i] = 1 << (i - 1)
	}
	sq = mul(&sq, &sq)
	sq = mul(&sq, &sq)
	sq = mul(&sq, &sq)
	for n := lenB; n != 0; n >>= 1 {
		if n&1 != 0 {
			op = mul(&sq, &op)
		}
		sq = mul(&sq, &sq)
	}
	return op
}

// blockLen4K is the fixed EBS block length (wire.BlockSize; the literal
// avoids an import cycle). Its operator is built once, so per-block CRC
// folding at the blockserver/DPU boundary never runs the squaring chain.
const blockLen4K = 4096

var op4K = makeCombineOp(blockLen4K)

// Combine returns the CRC of the concatenation A||B given the CRCs of A and
// B (both raw, or both in the inverted hash/crc32.Checksum form) and lenB =
// len(B). lenB <= 0 appends nothing and returns crcA.
func Combine(crcA, crcB uint32, lenB int64) uint32 {
	if lenB <= 0 {
		return crcA
	}
	if lenB == blockLen4K {
		return op4K.times(crcA) ^ crcB
	}
	op := makeCombineOp(lenB)
	return op.times(crcA) ^ crcB
}

// CombineBlocks folds the raw CRCs of consecutive equal-length blocks into
// the raw CRC of their concatenation, reusing one precomputed operator for
// the whole fold (memoized for 4 KiB blocks). An empty slice folds to 0,
// the raw CRC of the empty payload.
func CombineBlocks(crcs []uint32, blockLen int64) uint32 {
	if len(crcs) == 0 {
		return 0
	}
	op := &op4K
	if blockLen != blockLen4K {
		fresh := makeCombineOp(blockLen)
		op = &fresh
	}
	agg := crcs[0]
	for _, c := range crcs[1:] {
		agg = op.times(agg) ^ c
	}
	return agg
}

// Aggregator implements Solar's software-side segment integrity check. The
// FPGA reports each block's raw CRC; the host folds them with XOR and
// periodically compares against an expected aggregate computed over the
// XOR of the block payloads. One 4-byte XOR per block replaces a full
// 4 KiB CRC per block on the CPU.
//
// The zero Aggregator is empty; assigning Aggregator{} clears one for the
// next segment.
type Aggregator struct {
	agg      uint32
	expected uint32
}

// AddBlockCRC folds one FPGA-reported raw block CRC into the aggregate.
func (a *Aggregator) AddBlockCRC(raw uint32) {
	a.agg ^= raw
}

// AddExpected folds the trusted raw CRC of the block's true payload into
// the expected aggregate. In production the expected value arrives from the
// block server's metadata; tests compute it directly.
func (a *Aggregator) AddExpected(raw uint32) {
	a.expected ^= raw
}

// Verify reports whether the FPGA-reported aggregate matches the expected
// aggregate. A false result means at least one block was corrupted by the
// hardware (or an odd number of identical corruptions occurred — the same
// residual risk the paper accepts).
func (a *Aggregator) Verify() bool { return a.agg == a.expected }
