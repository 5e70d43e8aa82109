package workload

import (
	"encoding/binary"
	"fmt"
	"time"

	"lunasolar/internal/sa"
	"lunasolar/internal/sim"
)

// HangThreshold is the paper's Table 2 criterion: an I/O with no response
// for one second or longer has hung.
const HangThreshold = time.Second

// BlockSize is the stamp's granularity. A stamp is the first 24 bytes of a
// whole, aligned written block: stampMagic, the vdisk, the block's LBA and
// the write's sequence number. An unwritten block has zeros there.
const (
	BlockSize  = 4096
	stampMagic = 0x706d7473
	unchecked  = ^uint64(0) // the shadow of a block a write only partly covered
)

// Device is a guest's virtual disk (*ebs.VDisk); write data is reused once
// done returns.
type Device interface {
	Write(lba uint64, data []byte, done func(sa.Result))
	Read(lba uint64, size int, done func(sa.Result))
}

// Picker chooses a stream's next I/O: slot is the closed-loop slot asking
// (0 on an open loop), n the count the stream issued before; ok false ends
// the slot or the open loop. The caller owns it, so each workload keeps
// its random draws in its own order.
type Picker func(slot, n int) (write bool, lba uint64, size int, ok bool)

// Driver is the one place guest I/O is issued: closed- and open-loop
// streams whose writes are stamped and whose reads are checked. A whole
// block a read returns may hold any write to it issued before the read
// completed and not superseded before it was issued, or zeros if no write
// to it acked before then. Write w is superseded once a write w′ to the
// block acks, w′ issued after w acked or failed; a hung write never is.
// A block a write only partly covers goes unchecked. A mismatch goes to
// sim.Engine.Fail, which fails the run the way a leak does. "Before" is
// the driver's clock, ticked at every issue and every completion; all I/O
// to one vdisk must go through one driver.
type Driver struct {
	eng    *sim.Engine
	ios    []*IO // every record of every stream
	slow   int   // completions HangThreshold or more after issue
	clock  uint64
	ended  []uint64            // per write sequence - 1: the clock it acked or failed at (0: in flight)
	latest map[blockKey]uint64 // per block: the largest issue clock of an acked write to it
	Failed int                 // I/Os that completed with an error
}

type blockKey struct {
	vdisk uint32
	blk   uint64
}

// NewDriver returns a driver issuing on eng.
func NewDriver(eng *sim.Engine) *Driver {
	return &Driver{eng: eng, latest: map[blockKey]uint64{}}
}

// Stream is one stream of I/O against a device.
type Stream struct {
	d     *Driver
	vdisk uint32
	dev   Device
	pick  Picker
	hook  func(*IO)
	think time.Duration
	gap   func() time.Duration // an open loop's; nil on a closed one
	free  *sim.Pool[IO]        // an open loop's idle records
	tick  func()               // s.next, bound once

	Issued, Completed int // the stream's I/Os
}

// IO is one I/O as the completion hook sees it. The hook must not keep it:
// the record and its buffers serve the slot's next I/O.
type IO struct {
	Write  bool
	LBA    uint64
	Size   int
	Issued sim.Time
	Res    sa.Result

	s        *Stream
	slot     int
	buf      []byte   // a write's data
	seen     []uint64 // a read's copy of latest, per block, at issue
	seq      uint64   // a write's sequence
	clock    uint64   // the driver's clock at issue
	inflight bool
	done     func(sa.Result) // io.complete, bound once
	again    func()          // io.reissue, bound once
}

// Closed starts a closed loop of slots outstanding I/Os. A slot issues its
// next I/O think after the last completes, or inside the completion (no
// event) when think is zero. hook, if not nil, sees every completion.
func (d *Driver) Closed(vdisk uint32, dev Device, slots int, think time.Duration, pick Picker, hook func(*IO)) *Stream {
	s := &Stream{d: d, vdisk: vdisk, dev: dev, pick: pick, hook: hook, think: think}
	for i := 0; i < slots; i++ {
		s.newIO(i).reissue()
	}
	return s
}

// Open starts an open loop: it issues at once, and again gap() after each
// issue, until the picker ends it.
func (d *Driver) Open(vdisk uint32, dev Device, gap func() time.Duration, pick Picker, hook func(*IO)) *Stream {
	s := &Stream{d: d, vdisk: vdisk, dev: dev, pick: pick, hook: hook, gap: gap, free: sim.NewPool[IO](d.eng)}
	s.tick = s.next
	s.next()
	return s
}

// Fill writes [0, span) in 512 KiB pieces all at once: a read's prepopulate.
func (d *Driver) Fill(vdisk uint32, dev Device, span uint64) *Stream {
	const piece = 512 << 10
	return d.Closed(vdisk, dev, int(span/piece), 0, func(_, n int) (bool, uint64, int, bool) {
		return true, uint64(n) * piece, piece, uint64(n) < span/piece
	}, nil)
}

func (s *Stream) newIO(slot int) *IO {
	io := &IO{s: s, slot: slot}
	io.done, io.again = io.complete, io.reissue
	s.d.ios = append(s.d.ios, io)
	return io
}

// reissue runs a closed-loop slot's next I/O, if the picker has one.
//
//lint:hotpath
func (io *IO) reissue() {
	if write, lba, size, ok := io.s.pick(io.slot, io.s.Issued); ok {
		io.s.issue(io, write, lba, size)
	}
}

// next is an open loop's tick.
//
//lint:hotpath
func (s *Stream) next() {
	write, lba, size, ok := s.pick(0, s.Issued)
	if !ok {
		return
	}
	io := s.free.Get()
	if io == nil {
		io = s.newIO(0)
	}
	s.issue(io, write, lba, size)
	s.d.eng.Schedule(s.gap(), s.tick)
}

// issue stamps a write's whole blocks, or copies what a read may see.
//
//lint:hotpath
func (s *Stream) issue(io *IO, write bool, lba uint64, size int) {
	d := s.d
	d.clock++
	s.Issued++
	io.Write, io.LBA, io.Size, io.Issued, io.clock, io.inflight = write, lba, size, d.eng.Now(), d.clock, true
	first, end := blocks(lba, size)
	io.prepare(int(end - first))
	if !write {
		for b := first; b < end; b++ {
			io.seen[b-first] = d.latest[blockKey{s.vdisk, b}]
		}
		s.dev.Read(lba, size, io.done)
		return
	}
	for _, at := range [2]uint64{lba, lba + uint64(max(size, 0))} {
		if at%BlockSize != 0 {
			d.latest[blockKey{s.vdisk, at / BlockSize}] = unchecked
		}
	}
	for b := first; b < end; b++ {
		p := io.buf[b*BlockSize-lba:]
		binary.LittleEndian.PutUint32(p[0:], stampMagic)
		binary.LittleEndian.PutUint32(p[4:], s.vdisk)
		binary.LittleEndian.PutUint64(p[8:], b*BlockSize)
		binary.LittleEndian.PutUint64(p[16:], io.seq)
	}
	s.dev.Write(lba, io.buf[:max(size, 0)], io.done)
}

// prepare grows the record's buffers for its I/O over n whole blocks (they
// settle at the record's largest I/O), and gives a write its sequence and
// its entry in ended, a table that doubles as it fills.
func (io *IO) prepare(n int) {
	if !io.Write && cap(io.seen) < n {
		io.seen = make([]uint64, n)
	}
	if io.Write && cap(io.buf) < io.Size {
		io.buf = make([]byte, io.Size)
	}
	if d := io.s.d; io.Write {
		d.ended = append(d.ended, 0)
		io.seq = uint64(len(d.ended))
	}
}

// complete is every I/O's completion: hang tally, shadow or read check,
// hook, then the slot's next I/O or the record back on the free list.
//
//lint:hotpath
func (io *IO) complete(res sa.Result) {
	s, d := io.s, io.s.d
	d.clock++
	s.Completed++
	io.inflight, io.Res = false, res
	if d.eng.Now().Sub(io.Issued) >= HangThreshold {
		d.slow++
	}
	switch {
	case io.Write:
		d.ended[io.seq-1] = d.clock
		for b, end := blocks(io.LBA, io.Size); b < end && res.Err == nil; b++ {
			if k := (blockKey{s.vdisk, b}); d.latest[k] != unchecked {
				d.latest[k] = max(d.latest[k], io.clock)
			}
		}
	case res.Err == nil:
		d.check(s.vdisk, io)
	}
	if res.Err != nil {
		d.Failed++
	}
	if s.hook != nil {
		s.hook(io)
	}
	io.Res = sa.Result{}
	switch {
	case s.gap != nil:
		s.free.Put(io)
	case s.think > 0:
		d.eng.Schedule(s.think, io.again)
	default:
		io.reissue()
	}
}

// check holds every whole block a read returned to the shadow. seen is,
// per block, the largest issue clock of a write to it acked before the
// read was issued: a write that ended before that was superseded.
func (d *Driver) check(vdisk uint32, io *IO) {
	if len(io.Res.Data) != io.Size {
		d.eng.Fail(fmt.Errorf("read check: vdisk %d lba %#x: read returned %d bytes of %d", vdisk, io.LBA, len(io.Res.Data), io.Size))
		return
	}
	first, end := blocks(io.LBA, io.Size)
	for b := first; b < end; b++ {
		p, seen := io.Res.Data[b*BlockSize-io.LBA:], io.seen[b-first]
		vd, lba, seq := binary.LittleEndian.Uint32(p[4:]), binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint64(p[16:])
		var why string
		switch {
		case seen == unchecked || d.latest[blockKey{vdisk, b}] == unchecked:
		case [24]byte(p[:24]) == [24]byte{}:
			if seen != 0 {
				why = "read zeros, but a write had acked before the read was issued"
			}
		case binary.LittleEndian.Uint32(p) != stampMagic || vd != vdisk || lba != b*BlockSize || seq == 0 || seq > uint64(len(d.ended)):
			why = fmt.Sprintf("read write %d of vdisk %d lba %#x", seq, vd, lba)
		case d.ended[seq-1] != 0 && d.ended[seq-1] < seen:
			why = fmt.Sprintf("read write %d, superseded before the read was issued", seq)
		}
		if why != "" {
			d.eng.Fail(fmt.Errorf("read check: vdisk %d lba %#x: %s", vdisk, b*BlockSize, why))
		}
	}
}

// Hangs returns the I/Os that hung: those that completed HangThreshold or
// more after issue, and those in flight that long now.
func (d *Driver) Hangs() int {
	n := d.slow
	for _, io := range d.ios {
		if io.inflight && d.eng.Now().Sub(io.Issued) >= HangThreshold {
			n++
		}
	}
	return n
}

// blocks returns the first whole, aligned block of [lba, lba+size) and the
// one after the last.
func blocks(lba uint64, size int) (uint64, uint64) {
	first := (lba + BlockSize - 1) / BlockSize
	return first, max(first, (lba+uint64(max(size, 0)))/BlockSize)
}
