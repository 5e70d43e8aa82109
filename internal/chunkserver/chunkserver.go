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

// SSDConfig models one physical SSD. The latency model and the IOPS
// ceiling below are the same on every disk.
type SSDConfig struct {
	Parallelism int // concurrent internal operations (channels × planes)
}

// DefaultSSD returns the ESSD-class device model.
func DefaultSSD() SSDConfig {
	return SSDConfig{
		Parallelism: 64, // NVMe internal queue depth
	}
}

// The ESSD-class device's latency model and IOPS ceiling.
const (
	writeCacheMedian time.Duration = 12 * time.Microsecond // write-cache commit latency
	writeSigma       float64       = 0.35                  // log-normal shape for the write tail
	nandReadMedian   time.Duration = 65 * time.Microsecond // media read latency
	readSigma        float64       = 0.30
	cacheHitRate     float64       = 0.55 // server memory cache hit ratio for reads
	cacheHitMedian   time.Duration = 6 * time.Microsecond
	iopsCap          float64       = 800_000
)

const (
	pagesPerChunk = 32         // wire.BlockSize pages per arena allocation
	noPage        = ^uint32(0) // a write too big for a page: it stores nothing
)

// A blockKey addresses a stored block by its exact LBA, aligned or not; a
// blockRec is the block: the arena page holding its n bytes, its raw CRC and
// its generation. Neither holds a pointer, so the collector never scans the
// index.
type blockKey struct{ segment, lba uint64 }
type blockRec struct{ page, n, crc, gen uint32 }

// Server is one chunk server: an SSD plus an in-memory block store keyed by
// (segment, LBA). Stored blocks carry their raw CRC so integrity is
// verifiable end to end.
type Server struct {
	eng  *sim.Engine
	name string
	rand *sim.Rand

	disk     *sim.Server
	nextSlot sim.Time // IOPS pacer: next admission slot
	blocks   map[blockKey]blockRec
	// zero is what unwritten space reads as. Read-only and shared by every
	// miss, like the stored slices hits hand out uncopied.
	zero []byte

	// chunks is the page arena: every stored or in-flight block lives in a
	// page, numbered in carving order. freePages is a LIFO of page numbers,
	// so reuse is deterministic: an overwrite returns the page it replaces, a
	// CRC-rejected or stale write the copy it never stored, DropSegment its
	// segment's pages. freeOps recycles the per-operation records.
	chunks    []*[pagesPerChunk][wire.BlockSize]byte
	carved    uint32
	freePages []uint32
	freeOps   *sim.Pool[blockOp]

	writes, reads, crcErrors, misses uint64

	// rec is the flight recorder; CRC rejections — the paper's Fig. 11
	// corruption events — are its marquee customer.
	rec trace.Recorder
}

// New creates a chunk server.
func New(eng *sim.Engine, name string, cfg SSDConfig) *Server {
	return &Server{
		eng:     eng,
		name:    name,
		rand:    eng.Rand.Fork(),
		disk:    sim.NewServer(eng, name+"-ssd", cfg.Parallelism),
		blocks:  map[blockKey]blockRec{},
		zero:    make([]byte, wire.BlockSize),
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
	interval := time.Duration(float64(time.Second) / iopsCap)
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
	page, n      uint32 // write: the device copy's page and length

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
	o.gen, o.crc, o.page, o.n = gen, expectCRC, noPage, uint32(len(data))
	if len(data) <= wire.BlockSize {
		o.page = s.getPage()
		copy(s.page(o.page), data)
	}
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

// page returns arena page p, one whole block.
func (s *Server) page(p uint32) []byte { return s.chunks[p/pagesPerChunk][p%pagesPerChunk][:] }

// getPage takes a free page, or else carves the next one, chunk by chunk.
func (s *Server) getPage() uint32 {
	if k := len(s.freePages); k > 0 {
		p := s.freePages[k-1]
		s.freePages = s.freePages[:k-1]
		return p
	}
	if s.carved%pagesPerChunk == 0 {
		s.chunks = append(s.chunks, new([pagesPerChunk][wire.BlockSize]byte))
	}
	s.carved++
	return s.carved - 1
}

func (s *Server) putPage(p uint32) { s.freePages = append(s.freePages, p) }

// InFlightPages returns the pages WriteBlock has taken and the store has
// neither kept nor returned. Once the engine has drained, each is a leak.
func (s *Server) InFlightPages() int {
	return int(s.carved) - len(s.freePages) - len(s.blocks)
}

// opAdmit runs when the operation's IOPS slot comes up: it draws the media
// service time and queues the operation on the disk.
//
//lint:hotpath
func opAdmit(a any) {
	o := a.(*blockOp)
	s := o.s
	median, sigma := nandReadMedian, readSigma
	if o.kind == opWrite {
		median, sigma = writeCacheMedian, writeSigma
	} else if o.kind == opRead && s.rand.Bernoulli(cacheHitRate) {
		median = cacheHitMedian
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
	var data []byte
	var rec blockRec
	var err error
	if o.kind == opWrite {
		err = s.commitWrite(o)
	} else {
		data, rec, err = s.lookup(o)
	}
	c := *o
	s.putOp(o)
	switch {
	case c.req != nil:
		c.req.blockDone(c.idx, data, rec.crc, err)
	case c.kind == opWrite:
		c.onWrite(err)
	case c.kind == opRead:
		c.onRead(data, rec.crc, err)
	default:
		c.onMigrate(data, rec.crc, rec.gen, err)
	}
}

// lookup serves a read from the store. To a client, unwritten space reads
// as zeros, like a fresh virtual disk (the raw CRC is linear, so the CRC of
// zeros is 0); to a rebuild it is an error.
func (s *Server) lookup(o *blockOp) ([]byte, blockRec, error) {
	s.reads++
	if rec, ok := s.blocks[blockKey{o.segment, o.lba}]; ok {
		return s.page(rec.page)[:rec.n], rec, nil
	}
	s.misses++
	if o.kind == opMigrate {
		return nil, blockRec{}, s.migrateMiss(o.segment, o.lba)
	}
	return s.zero, blockRec{}, nil
}

// commitWrite verifies and stores a write's device copy. Whatever page the
// store does not keep — the rejected or stale copy, or the block an
// overwrite replaces — goes back to the free list.
//
//lint:hotpath
func (s *Server) commitWrite(o *blockOp) error {
	s.writes++
	if o.page == noPage {
		return s.oversize(o)
	}
	if got := crc.Raw(s.page(o.page)[:o.n]); got != o.crc {
		s.crcErrors++
		s.rec.Record(s.eng.Now().Duration(), trace.EvCRCError, o.segment, o.lba)
		s.putPage(o.page)
		return s.crcMismatch(o, got)
	}
	k := blockKey{o.segment, o.lba}
	prev, exists := s.blocks[k]
	if exists && prev.gen > o.gen {
		// Stale retransmitted generation: keep the newer data but
		// still acknowledge (idempotent write).
		s.putPage(o.page)
		return nil
	}
	if exists {
		s.putPage(prev.page)
	}
	s.blocks[k] = blockRec{page: o.page, n: o.n, crc: o.crc, gen: o.gen}
	return nil
}

func (s *Server) oversize(o *blockOp) error {
	return fmt.Errorf("chunkserver %s: write of %d bytes at seg=%d lba=%#x exceeds a %d-byte block",
		s.name, o.n, o.segment, o.lba, wire.BlockSize)
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
// copy a block must make — into a page of the store's arena, so the caller
// may reuse or release data at once. The copy cannot wait for the commit:
// a drain hands MigrateRead's stored slice straight to the destination's
// WriteBlock, and the source may overwrite (and recycle) that block before
// the destination's disk gets to it. Data longer than wire.BlockSize fits
// no page: done gets an error and nothing is stored.
func (s *Server) WriteBlock(segment, lba uint64, gen uint32, data []byte, expectCRC uint32, done func(err error)) {
	o := s.getOp(opWrite, segment, lba)
	o.onWrite = done
	s.write(o, gen, data, expectCRC)
}

// ReadBlock fetches one block. done receives the payload and its stored
// raw CRC; a block never written reads as zeros with CRC 0 and a nil
// error, like a fresh virtual disk (only MigrateRead fails on one). The
// payload is the store's own page, handed out uncopied: it is valid until
// done returns, because a later overwrite recycles the page.
func (s *Server) ReadBlock(segment, lba uint64, done func(data []byte, rawCRC uint32, err error)) {
	o := s.getOp(opRead, segment, lba)
	o.onRead = done
	s.submit(o)
}

// SegmentLBAs returns the sorted LBAs of every block stored for a segment
// — the manifest a replica rebuild copies. Sorting makes the copy order
// (and therefore the whole migration) independent of map iteration order.
// It scans the whole index; only a drain calls it.
func (s *Server) SegmentLBAs(segment uint64) []uint64 {
	var out []uint64
	for k := range s.blocks {
		if k.segment == segment {
			out = append(out, k.lba)
		}
	}
	slices.Sort(out)
	return out
}

// MigrateRead fetches one block with its stored CRC and generation for a
// replica rebuild. It pays the same admission and media costs as a client
// read — migration traffic contends with foreground I/O on the source —
// but returns the stored generation so the destination commit preserves
// write-idempotency ordering. Like ReadBlock's, the slice is the store's
// own and valid until done returns.
func (s *Server) MigrateRead(segment, lba uint64, done func(data []byte, rawCRC uint32, gen uint32, err error)) {
	o := s.getOp(opMigrate, segment, lba)
	o.onMigrate = done
	s.submit(o)
}

// DropSegment discards a segment's blocks (the final step of draining
// this replica), returning their pages to the arena in LBA order, and
// returns how many blocks were freed.
func (s *Server) DropSegment(segment uint64) int {
	lbas := s.SegmentLBAs(segment)
	for _, lba := range lbas {
		k := blockKey{segment, lba}
		s.putPage(s.blocks[k].page)
		delete(s.blocks, k)
	}
	return len(lbas)
}

// Utilization returns the SSD's busy-unit average (diagnostics).
func (s *Server) Utilization() float64 { return s.disk.Utilization() }

// Recorder returns the server's flight recorder: its last CRC rejections.
func (s *Server) Recorder() *trace.Recorder { return &s.rec }
