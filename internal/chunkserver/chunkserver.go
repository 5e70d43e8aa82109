// Package chunkserver models the storage cluster's chunk servers: the
// processes that own physical SSDs and persist replicated 4 KiB blocks.
// The SSD model captures what Fig. 6 shows: writes land in the SSD's
// write cache in tens of microseconds without touching NAND (the log-
// structured write path turns random writes sequential), while reads that
// miss the server's memory cache pay the NAND read latency. Each disk has
// bounded internal parallelism and an IOPS ceiling, so overload produces
// queueing delay organically.
package chunkserver

import (
	"fmt"
	"slices"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/sim"
	"lunasolar/internal/trace"
	"lunasolar/internal/wire"
)

// SSDConfig models one physical SSD.
type SSDConfig struct {
	WriteCacheMedian time.Duration // write-cache commit latency
	WriteSigma       float64       // log-normal shape for the write tail
	NANDReadMedian   time.Duration // media read latency
	ReadSigma        float64
	CacheHitRate     float64 // server memory cache hit ratio for reads
	CacheHitMedian   time.Duration
	Parallelism      int // concurrent internal operations (channels × planes)
	IOPSCap          float64
}

// DefaultSSD returns the ESSD-class device model.
func DefaultSSD() SSDConfig {
	return SSDConfig{
		WriteCacheMedian: 12 * time.Microsecond,
		WriteSigma:       0.35,
		NANDReadMedian:   65 * time.Microsecond,
		ReadSigma:        0.30,
		CacheHitRate:     0.55,
		CacheHitMedian:   6 * time.Microsecond,
		Parallelism:      64, // NVMe internal queue depth
		IOPSCap:          800_000,
	}
}

type blockRec struct {
	data []byte
	crc  uint32
	gen  uint32
}

// Server is one chunk server: an SSD plus an in-memory block store keyed by
// (segment, LBA). Stored blocks carry their raw CRC so integrity is
// verifiable end to end.
type Server struct {
	eng  *sim.Engine
	name string
	cfg  SSDConfig
	rand *sim.Rand

	disk     *sim.Server
	nextSlot sim.Time // IOPS pacer: next admission slot
	blocks   map[uint64]map[uint64]blockRec
	// zero is what unwritten space reads as. Read-only and shared by every
	// miss, like the stored slices hits hand out uncopied.
	zero []byte

	// freeBlocks recycles the store's block buffers: an overwrite returns
	// the block it replaces, a CRC-rejected or stale-generation write the
	// copy it never stored. A LIFO slice, like every pool in the tree, so
	// reuse is deterministic. freeOps recycles the per-operation records.
	freeBlocks [][]byte
	freeOps    *sim.Pool[blockOp]

	writes, reads, crcErrors, misses uint64

	// rec is the flight recorder; CRC rejections — the paper's Fig. 11
	// corruption events — are its marquee customer.
	rec trace.Recorder
}

// New creates a chunk server.
func New(eng *sim.Engine, name string, cfg SSDConfig) *Server {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 8
	}
	return &Server{
		eng:    eng,
		name:   name,
		cfg:    cfg,
		rand:   eng.Rand.Fork(),
		disk:   sim.NewServer(eng, name+"-ssd", cfg.Parallelism),
		blocks: map[uint64]map[uint64]blockRec{},
		zero:   make([]byte, wire.BlockSize),

		freeOps: sim.NewPool[blockOp](eng),
	}
}

// Stats returns operation counters: writes, reads, CRC rejections, read
// misses (block never written).
func (s *Server) Stats() (writes, reads, crcErrors, misses uint64) {
	return s.writes, s.reads, s.crcErrors, s.misses
}

// admissionDelay reserves the next IOPS slot and returns how long the
// caller must wait for it, so overload shows up as queueing delay.
func (s *Server) admissionDelay() time.Duration {
	interval := time.Duration(float64(time.Second) / s.cfg.IOPSCap)
	now := s.eng.Now()
	if s.nextSlot < now {
		s.nextSlot = now
	}
	d := s.nextSlot.Sub(now)
	s.nextSlot = s.nextSlot.Add(interval)
	return d
}

// What a blockOp does at the media.
const (
	opWrite   = iota
	opRead    // a client read: draws the memory-cache lottery
	opMigrate // a rebuild read: always goes to the media
)

// blockOp is one block operation on its way through IOPS admission and the
// disk: the pooled record that replaces a closure per stage. It completes to
// exactly one owner: a Service request (req, and the block's index in it —
// the disk completes blocks out of order), or else the callback of its kind.
type blockOp struct {
	s            *Server
	kind         uint8
	segment, lba uint64
	gen, crc     uint32
	data         []byte // write: the device copy, taken at the call

	req       *request
	idx       int
	onWrite   func(err error)
	onRead    func(data []byte, rawCRC uint32, err error)
	onMigrate func(data []byte, rawCRC uint32, gen uint32, err error)
}

// submit queues an operation behind the IOPS pacer.
func (s *Server) submit(o *blockOp) {
	s.eng.ScheduleArg(s.admissionDelay(), opAdmit, o)
}

// write takes the operation's device copy of data and submits it.
func (s *Server) write(o *blockOp, gen uint32, data []byte, expectCRC uint32) {
	o.gen, o.crc = gen, expectCRC
	o.data = s.getBlock(len(data))
	copy(o.data, data)
	s.submit(o)
}

func (s *Server) getOp(kind uint8, segment, lba uint64) *blockOp {
	o := s.freeOps.Get()
	if o == nil {
		o = &blockOp{s: s}
	}
	o.kind, o.segment, o.lba = kind, segment, lba
	return o
}

func (s *Server) putOp(o *blockOp) {
	*o = blockOp{s: s}
	s.freeOps.Put(o)
}

// getBlock returns a buffer of length n for a stored block, recycled when
// one is free. Only whole-block-capacity buffers circulate.
func (s *Server) getBlock(n int) []byte {
	if n > wire.BlockSize {
		return make([]byte, n)
	}
	if k := len(s.freeBlocks); k > 0 {
		b := s.freeBlocks[k-1]
		s.freeBlocks[k-1] = nil
		s.freeBlocks = s.freeBlocks[:k-1]
		return b[:n]
	}
	return make([]byte, n, wire.BlockSize)
}

func (s *Server) putBlock(b []byte) {
	if cap(b) == wire.BlockSize {
		s.freeBlocks = append(s.freeBlocks, b)
	}
}

// opAdmit runs when the operation's IOPS slot comes up: it draws the media
// service time and queues the operation on the disk.
//
//lint:hotpath
func opAdmit(a any) {
	o := a.(*blockOp)
	s := o.s
	median, sigma := s.cfg.NANDReadMedian, s.cfg.ReadSigma
	if o.kind == opWrite {
		median, sigma = s.cfg.WriteCacheMedian, s.cfg.WriteSigma
	} else if o.kind == opRead && s.rand.Bernoulli(s.cfg.CacheHitRate) {
		median = s.cfg.CacheHitMedian
	}
	s.disk.SubmitArg(s.rand.LogNormal(median, sigma), opCommit, o)
}

// opCommit completes the operation when the disk has served it. The record
// is recycled before the completion runs, so the completion may issue again.
//
//lint:hotpath
func opCommit(a any) {
	o := a.(*blockOp)
	s := o.s
	var rec blockRec
	var err error
	if o.kind == opWrite {
		err = s.commitWrite(o)
	} else {
		rec, err = s.lookup(o)
	}
	c := *o
	s.putOp(o)
	switch {
	case c.req != nil:
		c.req.blockDone(c.idx, rec.data, rec.crc, err)
	case c.kind == opWrite:
		c.onWrite(err)
	case c.kind == opRead:
		c.onRead(rec.data, rec.crc, err)
	default:
		c.onMigrate(rec.data, rec.crc, rec.gen, err)
	}
}

// lookup serves a read from the store. To a client, unwritten space reads
// as zeros, like a fresh virtual disk (the raw CRC is linear, so the CRC of
// zeros is 0); to a rebuild it is an error.
func (s *Server) lookup(o *blockOp) (blockRec, error) {
	s.reads++
	if rec, ok := s.blocks[o.segment][o.lba]; ok {
		return rec, nil
	}
	s.misses++
	if o.kind == opMigrate {
		return blockRec{}, s.migrateMiss(o.segment, o.lba)
	}
	return blockRec{data: s.zero}, nil
}

// commitWrite verifies and stores a write's device copy. Whatever buffer
// the store does not keep — the rejected or stale copy, or the block an
// overwrite replaces — goes back to the free list.
//
//lint:hotpath
func (s *Server) commitWrite(o *blockOp) error {
	s.writes++
	if got := crc.Raw(o.data); got != o.crc {
		s.crcErrors++
		s.rec.Record(s.eng.Now().Duration(), trace.EvCRCError, o.segment, o.lba)
		s.putBlock(o.data)
		return s.crcMismatch(o, got)
	}
	seg := s.blocks[o.segment]
	if seg == nil {
		seg = s.newSegment(o.segment)
	}
	prev, exists := seg[o.lba]
	if exists && prev.gen > o.gen {
		// Stale retransmitted generation: keep the newer data but
		// still acknowledge (idempotent write).
		s.putBlock(o.data)
		return nil
	}
	if exists {
		s.putBlock(prev.data)
	}
	seg[o.lba] = blockRec{data: o.data, crc: o.crc, gen: o.gen}
	return nil
}

func (s *Server) newSegment(segment uint64) map[uint64]blockRec {
	seg := map[uint64]blockRec{}
	s.blocks[segment] = seg
	return seg
}

func (s *Server) crcMismatch(o *blockOp, got uint32) error {
	return fmt.Errorf("chunkserver %s: CRC mismatch at seg=%d lba=%#x: got %08x want %08x",
		s.name, o.segment, o.lba, got, o.crc)
}

func (s *Server) migrateMiss(segment, lba uint64) error {
	return fmt.Errorf("chunkserver %s: migrate read miss seg=%d lba=%#x", s.name, segment, lba)
}

// WriteBlock persists one block. expectCRC is the raw CRC the writer
// computed over the payload; the chunk server re-checksums on arrival and
// rejects mismatches (err != nil), which is how production detected the
// Fig. 11 corruption events. done fires when the block is durable in the
// write cache.
//
// data is copied before WriteBlock returns — the device boundary, the one
// copy a block must make — into a buffer recycled from the store, so the
// caller may reuse or release data at once. The copy cannot wait for the
// commit: a drain hands MigrateRead's stored slice straight to the
// destination's WriteBlock, and the source may overwrite (and recycle)
// that block before the destination's disk gets to it.
func (s *Server) WriteBlock(segment, lba uint64, gen uint32, data []byte, expectCRC uint32, done func(err error)) {
	o := s.getOp(opWrite, segment, lba)
	o.onWrite = done
	s.write(o, gen, data, expectCRC)
}

// ReadBlock fetches one block. done receives the payload, its stored raw
// CRC, and an error for missing blocks. The payload is the store's own
// slice, handed out uncopied: it is valid only inside done, because a later
// overwrite recycles the buffer.
func (s *Server) ReadBlock(segment, lba uint64, done func(data []byte, rawCRC uint32, err error)) {
	o := s.getOp(opRead, segment, lba)
	o.onRead = done
	s.submit(o)
}

// SegmentLBAs returns the sorted LBAs of every block stored for a segment
// — the manifest a replica rebuild copies. Sorting makes the copy order
// (and therefore the whole migration) independent of map iteration order.
func (s *Server) SegmentLBAs(segment uint64) []uint64 {
	seg := s.blocks[segment]
	if len(seg) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(seg))
	for lba := range seg {
		out = append(out, lba)
	}
	slices.Sort(out)
	return out
}

// MigrateRead fetches one block with its stored CRC and generation for a
// replica rebuild. It pays the same admission and media costs as a client
// read — migration traffic contends with foreground I/O on the source —
// but returns the stored generation so the destination commit preserves
// write-idempotency ordering. Like ReadBlock's, the slice is the store's
// own and valid only inside done.
func (s *Server) MigrateRead(segment, lba uint64, done func(data []byte, rawCRC uint32, gen uint32, err error)) {
	o := s.getOp(opMigrate, segment, lba)
	o.onMigrate = done
	s.submit(o)
}

// DropSegment discards a segment's blocks (the final step of draining
// this replica) and returns how many blocks were freed.
func (s *Server) DropSegment(segment uint64) int {
	n := len(s.blocks[segment])
	delete(s.blocks, segment)
	return n
}

// Utilization returns the SSD's busy-unit average (diagnostics).
func (s *Server) Utilization() float64 { return s.disk.Utilization() }

// Recorder returns the server's flight recorder: its last CRC rejections.
func (s *Server) Recorder() *trace.Recorder { return &s.rec }
