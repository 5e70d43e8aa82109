// Package sa implements the storage agent (Fig. 2): the hypervisor
// function that converts guest I/O into frontend-network RPCs. It owns the
// two match-action tables of the paper — the Segment Table (virtual-disk
// LBA → 2 MiB segment on a block server) and the QoS Table (per-disk IOPS
// and bandwidth service levels) — splits I/Os that cross segment
// boundaries, runs the per-block CRC/crypto work, and attributes latency to
// the SA/FN/BN/SSD trace components.
//
// The same Agent drives every stack: in software mode (kernel TCP, Luna,
// RDMA frontends) the data-path work is charged to host/DPU CPU cores with
// a log-normal tail — the bottleneck Fig. 6 shows once Luna removed the
// network stack from the critical path; in offloaded mode (Solar) the
// lookups happen in the FPGA tables and the agent's residual latency is the
// pipeline's, reproducing the 95% SA reduction of §4.7.
package sa

import (
	"errors"
	"fmt"
	"time"

	"lunasolar/internal/crc"
	"lunasolar/internal/seccrypto"
	"lunasolar/internal/sim"
	"lunasolar/internal/trace"
	"lunasolar/internal/transport"
	"lunasolar/internal/wire"
)

// SegmentBytes is the segment size: "each segment hosted in a block server
// contains relatively large (e.g., 2MB) and continuous LBA addresses".
const SegmentBytes = 2 << 20

// notOwnerRetries bounds how many times one I/O piece chases a migrating
// segment before surfacing the rejection; each retry requires the segment
// table to point somewhere new, so the bound only trips on churn.
const notOwnerRetries = 4

// SegmentRef locates one segment.
type SegmentRef struct {
	Server    uint32 // block-server fabric address
	SegmentID uint64
}

// diskEntry is one vdisk's mapping plus its generation number. The
// generation is bumped by every remap/resize, so clients holding a stale
// routing decision can tell whether a retry against a fresh lookup can
// make progress. bytes is the size the guest was sold and the one record
// of it: the mapping rounds it up to whole segments, and guest I/O must
// stay below bytes, not below the mapping's end.
type diskEntry struct {
	refs  []SegmentRef
	gen   uint32
	bytes uint64
}

// SegmentTable maps (vdisk, LBA) to segments. Entries are populated by the
// management plane at provisioning time and updated by live migration.
type SegmentTable struct {
	disks     map[uint32]*diskEntry
	nextSegID uint64
}

// NewSegmentTable returns an empty table.
func NewSegmentTable() *SegmentTable {
	return &SegmentTable{disks: map[uint32]*diskEntry{}}
}

// Provision creates a virtual disk of the given size, striping its segments
// round-robin across the block servers. sizeBytes 0 is legal and yields a
// segmentless disk: every Lookup misses until a Grow maps space.
func (t *SegmentTable) Provision(vdisk uint32, sizeBytes uint64, servers []uint32) error {
	if len(servers) == 0 {
		return fmt.Errorf("sa: provisioning vdisk %d with no block servers", vdisk)
	}
	if _, exists := t.disks[vdisk]; exists {
		return fmt.Errorf("sa: vdisk %d already provisioned", vdisk)
	}
	nSegs := int((sizeBytes + SegmentBytes - 1) / SegmentBytes)
	refs := make([]SegmentRef, nSegs)
	for i := range refs {
		t.nextSegID++
		refs[i] = SegmentRef{Server: servers[i%len(servers)], SegmentID: t.nextSegID}
	}
	t.disks[vdisk] = &diskEntry{refs: refs, bytes: sizeBytes}
	return nil
}

// Lookup resolves the segment containing lba.
func (t *SegmentTable) Lookup(vdisk uint32, lba uint64) (SegmentRef, bool) {
	e, ok := t.disks[vdisk]
	if !ok {
		return SegmentRef{}, false
	}
	idx := int(lba / SegmentBytes)
	if idx >= len(e.refs) {
		return SegmentRef{}, false
	}
	return e.refs[idx], true
}

// Size returns a vdisk's provisioned size in bytes, not rounded up to
// whole segments (0 if unknown).
func (t *SegmentTable) Size(vdisk uint32) uint64 {
	e, ok := t.disks[vdisk]
	if !ok {
		return 0
	}
	return e.bytes
}

// Generation returns the vdisk's mapping generation: 0 for a never-remapped
// (or unknown) disk, bumped by every Remap and Grow. Clients snapshot it at
// issue time; a not-owner rejection is only worth retrying if the
// generation has moved since.
func (t *SegmentTable) Generation(vdisk uint32) uint32 {
	e, ok := t.disks[vdisk]
	if !ok {
		return 0
	}
	return e.gen
}

// Refs returns a copy of the vdisk's segment references in LBA order (nil
// if unknown). The control plane walks this to plan drains.
func (t *SegmentTable) Refs(vdisk uint32) []SegmentRef {
	e, ok := t.disks[vdisk]
	if !ok {
		return nil
	}
	return append([]SegmentRef(nil), e.refs...)
}

// Remap moves segment segIdx of a vdisk to a new block server and bumps
// the disk's generation — the cutover step of a live segment migration.
func (t *SegmentTable) Remap(vdisk uint32, segIdx int, server uint32) error {
	e, ok := t.disks[vdisk]
	if !ok {
		return fmt.Errorf("sa: remap of unknown vdisk %d", vdisk)
	}
	if segIdx < 0 || segIdx >= len(e.refs) {
		return fmt.Errorf("sa: remap of vdisk %d segment %d out of range [0,%d)", vdisk, segIdx, len(e.refs))
	}
	e.refs[segIdx].Server = server
	e.gen++
	return nil
}

// Grow extends a vdisk to newSizeBytes, striping the added segments
// round-robin across the given servers, and returns the new references.
// Shrinking is refused: segments under live I/O cannot be unmapped safely.
func (t *SegmentTable) Grow(vdisk uint32, newSizeBytes uint64, servers []uint32) ([]SegmentRef, error) {
	e, ok := t.disks[vdisk]
	if !ok {
		return nil, fmt.Errorf("sa: grow of unknown vdisk %d", vdisk)
	}
	if len(servers) == 0 {
		return nil, fmt.Errorf("sa: growing vdisk %d with no block servers", vdisk)
	}
	want := int((newSizeBytes + SegmentBytes - 1) / SegmentBytes)
	if want < len(e.refs) {
		return nil, fmt.Errorf("sa: vdisk %d shrink %d -> %d segments refused", vdisk, len(e.refs), want)
	}
	var added []SegmentRef
	for i := len(e.refs); i < want; i++ {
		t.nextSegID++
		ref := SegmentRef{Server: servers[(i-len(e.refs))%len(servers)], SegmentID: t.nextSegID}
		added = append(added, ref)
	}
	e.refs = append(e.refs, added...)
	if len(added) > 0 {
		e.gen++
	}
	e.bytes = max(e.bytes, newSizeBytes)
	return added, nil
}

// Delete unmaps a vdisk entirely; later Lookups miss, so racing I/O fails
// with a provisioning error rather than touching freed segments.
func (t *SegmentTable) Delete(vdisk uint32) error {
	if _, ok := t.disks[vdisk]; !ok {
		return fmt.Errorf("sa: delete of unknown vdisk %d", vdisk)
	}
	delete(t.disks, vdisk)
	return nil
}

// QoSSpec is a virtual disk's purchased service level.
type QoSSpec struct {
	IOPS         float64
	BandwidthBps float64
	BurstWindow  time.Duration // how much rate credit may accumulate
}

// qosState is the admission pacer for one disk: slot-based reservation for
// both IOPS and bytes, with a bounded credit window.
type qosState struct {
	spec     QoSSpec
	ioSlot   sim.Time
	byteSlot sim.Time
}

// Params is the SA cost model.
type Params struct {
	Offloaded bool // Solar: tables in FPGA, no per-I/O CPU

	// Software mode costs. PerIOCPU is CPU busy time charged to cores;
	// PerIODelay is additional latency that holds no core (lock waits,
	// scheduling, batching) with a log-normal tail.
	PerIOCPU    time.Duration
	PerIODelay  time.Duration
	CRCPer4K    time.Duration
	CryptoPer4K time.Duration
	Sigma       float64

	// Offloaded mode: FPGA lookup/pipeline latency attributed to SA.
	OffloadLatency time.Duration

	Encrypted bool
}

// SoftwareParams is the software SA used with kernel/Luna/RDMA frontends.
// Calibrated so the SA component of a 4 KiB I/O has a median around
// 25–30 µs with a long tail (Fig. 6's Luna-era SA share).
func SoftwareParams() Params {
	return Params{
		PerIOCPU:   5 * time.Microsecond,
		PerIODelay: 15 * time.Microsecond,
		CRCPer4K:   1600 * time.Nanosecond,
		Sigma:      0.55,
	}
}

// OffloadedParams is the Solar-era SA: lookups in the FPGA pipeline.
func OffloadedParams() Params {
	return Params{
		Offloaded:      true,
		OffloadLatency: 1200 * time.Nanosecond,
		Sigma:          0.30,
	}
}

// tenantBucket is one tenant's aggregate admission state on this agent:
// token buckets for IOPS and bytes riding the engine's coarse timer class,
// layered above the per-disk slot pacing. A nil bucket means that
// dimension is uncapped. byteBurst is the capacity bytes was created with
// (the most one Wait may ask of it).
type tenantBucket struct {
	iops      *sim.TokenBucket
	bytes     *sim.TokenBucket
	byteBurst float64
}

// Agent is one compute server's storage agent.
type Agent struct {
	eng    *sim.Engine
	cores  *sim.Server
	fn     transport.Client
	segs   *SegmentTable
	qos    map[uint32]*qosState
	params Params
	rand   *sim.Rand

	collector *trace.Collector
	gen       uint32
	ciphers   map[uint32]*seccrypto.BlockCipher

	// Tenant QoS: vdisk → tenant name → shared buckets. Lookup-only maps
	// (never iterated), so ordering cannot leak into the simulation.
	tenantOf map[uint32]string
	tenants  map[string]*tenantBucket

	// Stats.
	IOs         uint64
	Splits      uint64
	Retries     uint64 // not-owner re-sends after a migration cutover
	QoSDelay    time.Duration
	TenantDelay time.Duration
}

// New creates an agent bound to a frontend client and a shared segment
// table (the management plane's view).
func New(eng *sim.Engine, cores *sim.Server, fn transport.Client, segs *SegmentTable, params Params) *Agent {
	return &Agent{
		eng:      eng,
		cores:    cores,
		fn:       fn,
		segs:     segs,
		qos:      map[uint32]*qosState{},
		ciphers:  map[uint32]*seccrypto.BlockCipher{},
		tenantOf: map[uint32]string{},
		tenants:  map[string]*tenantBucket{},
		params:   params,
		rand:     eng.Rand.Fork(),
	}
}

// SetCollector attaches a trace collector; every completed I/O is recorded.
func (a *Agent) SetCollector(c *trace.Collector) { a.collector = c }

// SetCipher installs the per-disk encryption key (software SA mode). When
// set and the agent is configured Encrypted, payloads are genuinely
// AES-CTR-encrypted per block before hitting the wire and decrypted on
// read completion, with block-independent counters so arrival order never
// matters.
func (a *Agent) SetCipher(vdisk uint32, c *seccrypto.BlockCipher) { a.ciphers[vdisk] = c }

// blockCRCs fills dst with the raw CRC-32C of each 4 KiB block of data (a
// short tail block hashed at its actual length).
func blockCRCs(dst []uint32, data []byte) {
	for i := range dst {
		off := i * wire.BlockSize
		dst[i] = crc.Raw(data[off:min(off+wire.BlockSize, len(data))])
	}
}

// cryptBlocks en/decrypts buf in place, one counter stream per block.
func (a *Agent) cryptBlocks(vdisk uint32, segment, lba uint64, buf []byte) {
	c := a.ciphers[vdisk]
	if c == nil {
		return
	}
	for off := 0; off < len(buf); off += wire.BlockSize {
		end := off + wire.BlockSize
		if end > len(buf) {
			end = len(buf)
		}
		c.EncryptBlock(buf[off:end], buf[off:end], segment, lba+uint64(off), 0)
	}
}

// SetQoS installs or updates a disk's service level.
func (a *Agent) SetQoS(vdisk uint32, spec QoSSpec) {
	if spec.BurstWindow <= 0 {
		spec.BurstWindow = 10 * time.Millisecond
	}
	a.qos[vdisk] = &qosState{spec: spec}
}

// ClearQoS removes a disk's service level (volume deletion).
func (a *Agent) ClearQoS(vdisk uint32) {
	delete(a.qos, vdisk)
	delete(a.tenantOf, vdisk)
}

// SetTenant binds a vdisk to a tenant: its I/Os draw from the tenant's
// aggregate buckets (SetTenantQoS) before the per-disk pacing. An empty
// tenant unbinds.
func (a *Agent) SetTenant(vdisk uint32, tenant string) {
	if tenant == "" {
		delete(a.tenantOf, vdisk)
		return
	}
	a.tenantOf[vdisk] = tenant
}

// SetTenantQoS installs or live-updates a tenant's aggregate service level
// on this agent: token buckets refilled on the coarse timer class, layered
// above the per-disk slot pacing. A dimension that has never been given a
// positive rate stays uncapped; once capped, an update to <= 0 pauses the
// bucket — parked I/Os stay parked until a later update raises the rate
// again (SetRate re-arms their wake timers). Burst capacity is sized at
// install time from BurstWindow, with floors of one I/O and 4 MiB; an I/O
// larger than the byte burst draws it in instalments (tenantBytes).
func (a *Agent) SetTenantQoS(tenant string, spec QoSSpec) {
	if spec.BurstWindow <= 0 {
		spec.BurstWindow = 10 * time.Millisecond
	}
	window := spec.BurstWindow.Seconds()
	byteRate := spec.BandwidthBps / 8
	tb := a.tenants[tenant]
	if tb == nil {
		tb = &tenantBucket{}
		a.tenants[tenant] = tb
	}
	iopsBurst := spec.IOPS * window
	if iopsBurst < 1 {
		iopsBurst = 1
	}
	byteBurst := byteRate * window
	if byteBurst < 4<<20 {
		byteBurst = 4 << 20
	}
	tb.iops = retuneBucket(a.eng, tb.iops, spec.IOPS, iopsBurst)
	if tb.bytes == nil {
		tb.byteBurst = byteBurst
	}
	tb.bytes = retuneBucket(a.eng, tb.bytes, byteRate, byteBurst)
}

// retuneBucket applies one QoS dimension to an optional bucket: nil stays
// nil (uncapped) unless the rate is positive, and an existing bucket is
// retuned in place so its parked waiters survive the update.
func retuneBucket(eng *sim.Engine, b *sim.TokenBucket, rate, burst float64) *sim.TokenBucket {
	if b == nil {
		if rate <= 0 {
			return nil
		}
		return sim.NewTokenBucket(eng, rate, burst)
	}
	b.SetRate(rate)
	return b
}

// TenantBucketWaiting reports how many I/Os a tenant has parked in this
// agent's buckets (diagnostics).
func (a *Agent) TenantBucketWaiting(tenant string) int {
	tb := a.tenants[tenant]
	if tb == nil {
		return 0
	}
	n := 0
	if tb.iops != nil {
		n += tb.iops.Waiting()
	}
	if tb.bytes != nil {
		n += tb.bytes.Waiting()
	}
	return n
}

// tenantBucketFor resolves the tenant buckets a vdisk draws from (nil when
// the disk has no tenant binding or the tenant has no service level).
func (a *Agent) tenantBucketFor(vdisk uint32) *tenantBucket {
	name := a.tenantOf[vdisk]
	if name == "" {
		return nil
	}
	return a.tenants[name]
}

// admit reserves QoS capacity for an I/O, returning the queueing delay
// (zero when within the service level). Per Fig. 6's methodology, this
// policy delay is excluded from the latency components.
func (a *Agent) admit(vdisk uint32, bytes int) time.Duration {
	q := a.qos[vdisk]
	if q == nil {
		return 0
	}
	now := a.eng.Now()
	floor := now.Add(-q.spec.BurstWindow)
	if q.ioSlot < floor {
		q.ioSlot = floor
	}
	if q.byteSlot < floor {
		q.byteSlot = floor
	}
	var d time.Duration
	if q.spec.IOPS > 0 {
		q.ioSlot = q.ioSlot.Add(time.Duration(float64(time.Second) / q.spec.IOPS))
		if wait := q.ioSlot.Sub(now); wait > d {
			d = wait
		}
	}
	if q.spec.BandwidthBps > 0 {
		q.byteSlot = q.byteSlot.Add(time.Duration(float64(bytes*8) / q.spec.BandwidthBps * float64(time.Second)))
		if wait := q.byteSlot.Sub(now); wait > d {
			d = wait
		}
	}
	if d < 0 {
		d = 0
	}
	a.QoSDelay += d
	return d
}

// saBusy returns the CPU busy time for an I/O of n bytes.
func (a *Agent) saBusy(bytes int) time.Duration {
	blocks := wire.Blocks(bytes)
	busy := a.params.PerIOCPU + time.Duration(blocks)*a.params.CRCPer4K
	if a.params.Encrypted {
		busy += time.Duration(blocks) * a.params.CryptoPer4K
	}
	return a.rand.Jitter(busy, 0.1)
}

// saDelay returns the non-busy latency adder with its log-normal tail.
func (a *Agent) saDelay() time.Duration {
	if a.params.PerIODelay == 0 {
		return 0
	}
	return a.rand.LogNormal(a.params.PerIODelay, a.params.Sigma)
}

// Result is the completion record of one I/O. It stays valid for as long as
// its holder keeps it: Span points into the I/O's own record, which is
// never recycled.
type Result struct {
	Data []byte // reads only
	Err  error
	// Latency is Span.Total(): measured on the agent's own engine, QoS
	// policy delay excluded per the paper's methodology.
	Latency time.Duration
	Span    *trace.Span
}

// ioReq is the one record of a guest I/O, from arrival to completion: the
// per-request metadata of the §4.6 table pipeline (p4/solar.go's ebs.vdisk,
// ebs.lba and meta.segidx → segment_id, server), plus what a software agent
// must remember between events. Every step below is a function of it, so
// "which stage, which attempt, waiting on what" is read off one value.
// Deliberately not pooled: Result.Span escapes to the guest.
type ioReq struct {
	a     *Agent
	op    uint8
	vdisk uint32
	gen   uint32
	size  int
	data  []byte       // write payload
	done  func(Result) // may be nil

	tb        *tenantBucket // nil: no tenant binding
	left      float64       // bytes still to draw from tb.bytes
	admission time.Duration // per-disk pacing wait, reserved at arrival
	mark      sim.Time      // start of the stage in progress: tenant wait, SA, FN
	span      trace.Span

	// Assembly of the pieces' responses.
	buf             []byte // read buffer
	remaining       int    // pieces not yet finished
	maxWall, maxSSD time.Duration
	err             error // first piece error

	first piece
	more  []*piece // the 2nd.. pieces of a segment-crossing I/O, in LBA order
}

// piece is the part of an I/O that falls in one segment: one RPC, re-sent
// when a migration moves the segment under it.
type piece struct {
	r       *ioReq
	msg     transport.Message
	off, n  int    // range within the I/O's payload or read buffer
	server  uint32 // block server of the attempt in flight
	attempt int    // not-owner re-sends so far
	crc1    [1]uint32
}

// Write performs a write I/O. done receives the completion record; the
// span's components follow Fig. 6's attribution.
func (a *Agent) Write(vdisk uint32, lba uint64, data []byte, done func(Result)) {
	a.io(wire.RPCWriteReq, vdisk, lba, len(data), data, done)
}

// Read performs a read I/O.
func (a *Agent) Read(vdisk uint32, lba uint64, size int, done func(Result)) {
	a.io(wire.RPCReadReq, vdisk, lba, size, nil, done)
}

func (a *Agent) io(op uint8, vdisk uint32, lba uint64, size int, data []byte, done func(Result)) {
	r := &ioReq{a: a, op: op, vdisk: vdisk, size: size, data: data, done: done,
		left: float64(size), span: trace.Span{Op: "read", Size: size}}
	if op == wire.RPCWriteReq {
		r.span.Op = "write"
	}
	e := a.segs.disks[vdisk]
	switch {
	case size <= 0:
		// Guest input: an empty I/O has no piece to wait for and would never
		// complete; a negative read size cannot be buffered.
		r.err = fmt.Errorf("sa: vdisk %d %s at %#x: invalid size %d", vdisk, r.span.Op, lba, size)
	case e == nil:
		r.err = fmt.Errorf("sa: vdisk %d range [%#x,+%d) not provisioned", vdisk, lba, size)
	case lba > e.bytes || uint64(size) > e.bytes-lba:
		// Guest input: the segment table maps whole segments, so the tail of
		// a disk's last one would otherwise be readable and writable.
		r.err = fmt.Errorf("sa: vdisk %d range [%#x,+%d) past the end of a %d-byte disk", vdisk, lba, size, e.bytes)
	}
	if r.err != nil {
		r.finish()
		return
	}
	a.IOs++
	a.gen++
	r.gen = a.gen
	r.split(e, lba)

	r.admission = a.admit(vdisk, size)
	r.tb = a.tenantBucketFor(vdisk)
	if r.tb == nil {
		// No tenant binding: identical event sequence to a tenant-free
		// build, so existing scenarios stay byte-for-byte unchanged.
		r.proceed()
		return
	}
	// Tenant admission layers above the per-disk pacing: one IOPS token,
	// then the I/O's bytes. A paused tenant (rate <= 0) parks here until
	// SetTenantQoS raises it.
	r.mark = a.eng.Now()
	if r.tb.iops == nil {
		r.tenantBytes()
		return
	}
	r.tb.iops.Wait(1, r.tenantBytes)
}

// split cuts [lba, lba+size) at segment boundaries into first and, for a
// segment-crossing I/O, more. io has checked the range against the disk's
// size, so every segment it touches is mapped.
func (r *ioReq) split(e *diskEntry, lba uint64) {
	for off := 0; off < r.size; {
		cur := lba + uint64(off)
		ref := e.refs[cur/SegmentBytes]
		n := r.size - off
		if room := SegmentBytes - cur%SegmentBytes; uint64(n) > room {
			n = int(room)
		}
		p := &r.first
		if off > 0 {
			p = new(piece)
			r.more = append(r.more, p)
		}
		*p = piece{r: r, off: off, n: n, server: ref.Server,
			msg: transport.Message{Op: r.op, VDisk: r.vdisk, SegmentID: ref.SegmentID, LBA: cur, Gen: r.gen}}
		off += n
	}
	r.remaining = 1 + len(r.more)
	if r.remaining > 1 {
		r.a.Splits++
	}
}

// tenantBytes draws the I/O's bytes from the tenant's byte bucket, then
// moves on to the disk's own pacing. A bucket refuses a Wait above its
// burst, and a multi-segment I/O may be larger than that: such an I/O draws
// burst-sized instalments, re-entering here after each, so the long-run cap
// still holds. An I/O within burst makes exactly one Wait.
func (r *ioReq) tenantBytes() {
	if r.tb.bytes != nil && r.left > 0 {
		n := min(r.left, r.tb.byteBurst)
		r.left -= n
		r.tb.bytes.Wait(n, r.tenantBytes)
		return
	}
	r.a.TenantDelay += r.a.eng.Now().Sub(r.mark)
	r.proceed()
}

// proceed waits out the disk's pacing delay.
//
//lint:hotpath
func (r *ioReq) proceed() {
	r.a.eng.ScheduleArg(r.admission, ioAdmitted, r)
}

// ioAdmitted starts the SA stage.
//
//lint:hotpath
func ioAdmitted(x any) {
	r := x.(*ioReq)
	a := r.a
	r.mark = a.eng.Now()
	if a.params.Offloaded {
		// Table lookups ride the FPGA pipeline; no CPU is consumed.
		a.eng.ScheduleArg(time.Duration(1+len(r.more))*a.params.OffloadLatency, ioIssue, r)
		return
	}
	a.cores.SubmitArg(a.saBusy(r.size), ioCPUDone, r)
}

// ioCPUDone adds the software agent's non-busy latency after its CPU time.
//
//lint:hotpath
func ioCPUDone(x any) {
	r := x.(*ioReq)
	r.a.eng.ScheduleArg(r.a.saDelay(), ioIssue, r)
}

// ioIssue closes the SA stage and sends one RPC per piece, in LBA order.
func ioIssue(x any) {
	r := x.(*ioReq)
	now := r.a.eng.Now()
	r.span.Add(trace.SA, now.Sub(r.mark))
	r.mark = now
	if r.op == wire.RPCReadReq {
		r.buf = make([]byte, r.size)
	}
	r.first.issue()
	for _, p := range r.more {
		p.issue()
	}
}

// issue attaches the piece's payload and makes its first attempt.
func (p *piece) issue() {
	r, a := p.r, p.r.a
	if a.params.Encrypted {
		p.msg.Flags |= wire.EBSFlagEncrypted
	}
	if r.op == wire.RPCWriteReq {
		p.msg.Data = r.data[p.off : p.off+p.n]
		if a.params.Encrypted && !a.params.Offloaded {
			enc := append([]byte(nil), p.msg.Data...)
			a.cryptBlocks(r.vdisk, p.msg.SegmentID, p.msg.LBA, enc)
			p.msg.Data = enc
		}
		// One-touch CRC: the per-block raw CRC is computed exactly
		// once, here at SA ingress, over the bytes that will cross the
		// wire; every downstream verification folds these values
		// instead of re-walking the payload. The CRCPer4K cost was
		// already charged in saBusy (or rides the FPGA pipeline), so
		// this changes who reads the bytes, not what the simulation
		// charges.
		// Attached only for the offloaded (Solar) stacks, whose wire
		// format carries a per-block CRC; skipped when the DPU's SEC
		// engine will re-encrypt: the wire bytes are not ours to hash.
		if a.params.Offloaded && !a.params.Encrypted {
			p.msg.BlockCRCs = p.crc1[:]
			if blocks := wire.Blocks(p.n); blocks > 1 {
				p.msg.BlockCRCs = make([]uint32, blocks)
			}
			blockCRCs(p.msg.BlockCRCs, p.msg.Data)
		}
	} else {
		p.msg.ReadLen = p.n
	}
	p.send()
}

// send makes one attempt at the piece's RPC.
func (p *piece) send() {
	p.r.a.fn.Call(p.server, &p.msg, p.response)
}

// response ends one attempt; the last piece to finish completes the I/O.
func (p *piece) response(resp *transport.Response) {
	r, a := p.r, p.r.a
	// A not-owner rejection means a live migration cut the segment over
	// while this RPC was in flight. Re-resolve the (generation-bumped)
	// segment table; if it now points at a different server, retry there.
	if resp.Err != nil && errors.Is(resp.Err, transport.ErrNotOwner) && p.attempt < notOwnerRetries {
		if ref, ok := a.segs.Lookup(r.vdisk, p.msg.LBA); ok && ref.Server != p.server {
			a.Retries++
			p.server = ref.Server
			p.attempt++
			p.send()
			return
		}
	}
	if resp.Err != nil && r.err == nil {
		r.err = resp.Err
	}
	if r.op == wire.RPCReadReq && resp.Data != nil {
		copy(r.buf[p.off:], resp.Data)
		if a.params.Encrypted && !a.params.Offloaded {
			a.cryptBlocks(r.vdisk, p.msg.SegmentID, p.msg.LBA, r.buf[p.off:p.off+p.n])
		}
	}
	r.maxWall = max(r.maxWall, resp.ServerWall)
	r.maxSSD = max(r.maxSSD, resp.SSDTime)
	r.remaining--
	if r.remaining > 0 {
		return
	}
	// All pieces done: attribute. Span.Add clamps a negative share to zero.
	r.span.Add(trace.FN, a.eng.Now().Sub(r.mark)-r.maxWall)
	r.span.Add(trace.BN, r.maxWall-r.maxSSD)
	r.span.Add(trace.SSD, r.maxSSD)
	if a.collector != nil {
		a.collector.Record(&r.span)
	}
	r.finish()
}

// finish hands the completion record to the guest.
func (r *ioReq) finish() {
	if r.done != nil {
		r.done(Result{Data: r.buf, Err: r.err, Latency: r.span.Total(), Span: &r.span})
	}
}
