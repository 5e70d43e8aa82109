// Package sa implements the storage agent (Fig. 2): the hypervisor
// function that converts guest I/O into frontend-network RPCs. It owns the
// two match-action tables of the paper — the Segment Table (virtual-disk
// LBA → 2 MiB segment on a block server) and the QoS Table (per-disk IOPS
// and bandwidth service levels) — splits I/Os that cross segment
// boundaries, runs the per-block CRC work, and attributes latency to
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
	"math"
	"slices"
	"time"

	"lunasolar/internal/crc"
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

// diskEntry is one vdisk's mapping. bytes is the size the guest was sold
// and the one record of it: the mapping rounds it up to whole segments, and
// guest I/O must stay below bytes, not below the mapping's end.
type diskEntry struct {
	refs  []SegmentRef
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
// segmentless disk: every Lookup misses.
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

// Refs returns a copy of the vdisk's segment references in LBA order (nil
// if unknown). The control plane walks this to plan drains.
func (t *SegmentTable) Refs(vdisk uint32) []SegmentRef {
	e, ok := t.disks[vdisk]
	if !ok {
		return nil
	}
	return append([]SegmentRef(nil), e.refs...)
}

// Remap moves segment segIdx of a vdisk to a new block server — the
// cutover step of a live segment migration.
func (t *SegmentTable) Remap(vdisk uint32, segIdx int, server uint32) error {
	e, ok := t.disks[vdisk]
	if !ok {
		return fmt.Errorf("sa: remap of unknown vdisk %d", vdisk)
	}
	if segIdx < 0 || segIdx >= len(e.refs) {
		return fmt.Errorf("sa: remap of vdisk %d segment %d out of range [0,%d)", vdisk, segIdx, len(e.refs))
	}
	e.refs[segIdx].Server = server
	return nil
}

// QoSSpec is a purchased service level: a virtual disk's (SetQoS) or a
// tenant's across its disks on one agent (SetTenantQoS). A rate <= 0 leaves
// that dimension uncapped.
type QoSSpec struct {
	IOPS         float64
	BandwidthBps float64
	BurstWindow  time.Duration // how much rate credit may accumulate
}

// tenantBurstBytes is the least byte credit a tenant holds, whatever its
// rate and window: one large I/O's worth.
const tenantBurstBytes = 4 << 20

// never is where a pacer slot saturates. A rate so small that one I/O's
// step overflows a Duration books the I/O here and holds it for good,
// instead of wrapping to a slot in the past that admits it at once. Half of
// sim.Time's range, so a slot a window behind the clock, or a delay up to
// never added to it, cannot overflow.
const never = sim.Time(math.MaxInt64 / 2)

// qosState is the admission pacer of the QoS table, one per disk and one
// per tenant: a slot reservation for IOPS and for bytes, each slot allowed
// to fall at most its credit window behind the clock.
type qosState struct {
	spec                 QoSSpec
	ioWindow, byteWindow time.Duration
	ioSlot, byteSlot     sim.Time
}

// reserve books an I/O of the given bytes arriving at now into each capped
// dimension's next slot and returns when the last of them comes due (now if
// none is in the future).
func (q *qosState) reserve(now sim.Time, bytes int) sim.Time {
	q.ioSlot = max(q.ioSlot, now.Add(-q.ioWindow))
	q.byteSlot = max(q.byteSlot, now.Add(-q.byteWindow))
	at := now
	if q.spec.IOPS > 0 {
		q.ioSlot = advance(q.ioSlot, float64(time.Second)/q.spec.IOPS)
		at = max(at, q.ioSlot)
	}
	if q.spec.BandwidthBps > 0 {
		q.byteSlot = advance(q.byteSlot, float64(bytes*8)/q.spec.BandwidthBps*float64(time.Second))
		at = max(at, q.byteSlot)
	}
	return at
}

// settle records that the I/O reserve booked was admitted at at: a capped
// slot left more than its window behind at is pulled up to it. The I/O
// waited through that credit on another dimension or in the other pacer,
// and the I/Os queued behind it must not spend it again.
func (q *qosState) settle(at sim.Time) {
	if q.spec.IOPS > 0 {
		q.ioSlot = max(q.ioSlot, at.Add(-q.ioWindow))
	}
	if q.spec.BandwidthBps > 0 {
		q.byteSlot = max(q.byteSlot, at.Add(-q.byteWindow))
	}
}

// advance moves slot on by step nanoseconds, saturating at never.
func advance(slot sim.Time, step float64) sim.Time {
	if step >= float64(never-slot) {
		return never
	}
	return slot.Add(time.Duration(step))
}

// Params is the SA cost model.
type Params struct {
	Offloaded bool // Solar: tables in FPGA, no per-I/O CPU

	// Software mode costs. PerIOCPU is CPU busy time charged to cores;
	// PerIODelay is additional latency that holds no core (lock waits,
	// scheduling, batching) with a log-normal tail.
	PerIOCPU   time.Duration
	PerIODelay time.Duration
	CRCPer4K   time.Duration
	Sigma      float64

	// Offloaded mode: FPGA lookup/pipeline latency attributed to SA.
	OffloadLatency time.Duration
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

	// The I/O records and the 2nd.. pieces of segment-crossing ones, each
	// back on its pool once its I/O completes.
	reqs   *sim.Pool[ioReq]
	pieces *sim.Pool[piece]

	// Tenant QoS: vdisk → tenant name → the tenant's pacer. Lookup-only
	// maps (never iterated), so ordering cannot leak into the simulation.
	tenantOf map[uint32]string
	tenants  map[string]*qosState

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
		tenantOf: map[uint32]string{},
		tenants:  map[string]*qosState{},
		params:   params,
		rand:     eng.Rand.Fork(),
		reqs:     sim.NewPool[ioReq](eng),
		pieces:   sim.NewPool[piece](eng),
	}
}

// SetCollector attaches a trace collector; every completed I/O is recorded.
func (a *Agent) SetCollector(c *trace.Collector) { a.collector = c }

// blockCRCs fills dst with the raw CRC-32C of each 4 KiB block of data (a
// short tail block hashed at its actual length).
func blockCRCs(dst []uint32, data []byte) {
	for i := range dst {
		off := i * wire.BlockSize
		dst[i] = crc.Raw(data[off:min(off+wire.BlockSize, len(data))])
	}
}

// SetQoS installs or updates a disk's service level. Both of its credit
// windows are BurstWindow.
func (a *Agent) SetQoS(vdisk uint32, spec QoSSpec) {
	if spec.BurstWindow <= 0 {
		spec.BurstWindow = 10 * time.Millisecond
	}
	a.qos[vdisk] = &qosState{spec: spec, ioWindow: spec.BurstWindow, byteWindow: spec.BurstWindow}
}

// SetTenant binds a vdisk to a tenant: its I/Os are paced by the tenant's
// service level (SetTenantQoS) as well as the disk's own. An empty tenant
// unbinds.
func (a *Agent) SetTenant(vdisk uint32, tenant string) {
	if tenant == "" {
		delete(a.tenantOf, vdisk)
		return
	}
	a.tenantOf[vdisk] = tenant
}

// SetTenantQoS installs or live-updates a tenant's aggregate service level
// on this agent, paced like a disk's but over every disk bound to the
// tenant. Its credit windows are BurstWindow with floors of one I/O and
// tenantBurstBytes. A new tenant starts with full credit; an update keeps
// the slots already booked, so I/Os admitted under the old rate keep their
// instants.
func (a *Agent) SetTenantQoS(tenant string, spec QoSSpec) {
	if spec.BurstWindow <= 0 {
		spec.BurstWindow = 10 * time.Millisecond
	}
	q := a.tenants[tenant]
	if q == nil {
		q = &qosState{ioSlot: -never, byteSlot: -never}
		a.tenants[tenant] = q
	}
	q.spec, q.ioWindow, q.byteWindow = spec, spec.BurstWindow, spec.BurstWindow
	if spec.IOPS > 0 {
		q.ioWindow = max(q.ioWindow, window(float64(time.Second)/spec.IOPS))
	}
	if spec.BandwidthBps > 0 {
		q.byteWindow = max(q.byteWindow, window(tenantBurstBytes*8/spec.BandwidthBps*float64(time.Second)))
	}
}

// window converts a credit window of ns nanoseconds, saturating at never.
func window(ns float64) time.Duration {
	return time.Duration(min(ns, float64(never)))
}

// admit books an I/O with its disk's pacer and, for a disk bound to a
// tenant with a service level, with the tenant's, and returns how long it
// waits: until both have credit for it. Both are settled at that instant,
// so each cap holds over the I/Os as admitted. Per Fig. 6's methodology,
// this policy delay is excluded from the latency components.
func (a *Agent) admit(vdisk uint32, bytes int) time.Duration {
	now := a.eng.Now()
	at := now
	disk := a.qos[vdisk]
	if disk != nil {
		at = disk.reserve(now, bytes)
	}
	a.QoSDelay += at.Sub(now)
	if name := a.tenantOf[vdisk]; name != "" && a.tenants[name] != nil {
		q := a.tenants[name]
		due := max(at, q.reserve(now, bytes))
		a.TenantDelay += due.Sub(at)
		at = due
		q.settle(at)
	}
	if disk != nil {
		disk.settle(at)
	}
	return at.Sub(now)
}

// saBusy returns the CPU busy time for an I/O of n bytes.
func (a *Agent) saBusy(bytes int) time.Duration {
	blocks := wire.Blocks(bytes)
	busy := a.params.PerIOCPU + time.Duration(blocks)*a.params.CRCPer4K
	return a.rand.Jitter(busy, 0.1)
}

// saDelay returns the non-busy latency adder with its log-normal tail.
func (a *Agent) saDelay() time.Duration {
	if a.params.PerIODelay == 0 {
		return 0
	}
	return a.rand.LogNormal(a.params.PerIODelay, a.params.Sigma)
}

// Result is the completion record of one I/O. It is self-contained and
// stays valid for as long as its holder keeps it: Span is a copy, and Data
// is the guest's. Nothing in it points into the agent's pooled record.
type Result struct {
	// Data is a read's bytes (nil for a write, or a read that failed
	// before any piece answered). A read within one segment — nearly every
	// read — gets the buffer its response arrived in, unless the FN stack
	// recycles that buffer (the response carries a Payload), in which case
	// it gets a copy of its own; a segment-crossing read gets a buffer the
	// agent assembles its pieces in.
	Data []byte
	Err  error
	// Latency is Span.Total(): measured on the agent's own engine, QoS
	// policy delay excluded per the paper's methodology.
	Latency time.Duration
	Span    trace.Span
}

// ioReq is the one record of a guest I/O, from arrival to completion: the
// per-request metadata of the §4.6 table pipeline (the vdisk and LBA a
// request carries, and the segment ID and block server the segment table
// resolves them to), plus what a software agent must remember between
// events. Every step below is a function of it, so "which stage, which
// attempt, waiting on what" is read off one value. Records are pooled:
// finish hands the guest a self-contained Result and recycles the record
// before done runs.
type ioReq struct {
	a     *Agent
	op    uint8
	vdisk uint32
	gen   uint32
	size  int
	data  []byte       // write payload
	done  func(Result) // may be nil

	mark sim.Time // start of the stage in progress: SA, FN
	span trace.Span

	// Assembly of the pieces' responses.
	buf             []byte // read buffer: the response's or a copy of it, or assembled across segments
	remaining       int    // pieces not yet finished
	maxWall, maxSSD time.Duration
	err             error // first piece error

	first piece
	more  []*piece // the 2nd.. pieces of a segment-crossing I/O, in LBA order
}

// piece is the part of an I/O that falls in one segment: one RPC, re-sent
// when a migration moves the segment under it. crcs backs the write's
// per-block CRC list and keeps its array across reuse; responseFn is bound
// once per record.
type piece struct {
	r          *ioReq
	msg        transport.Message
	off, n     int    // range within the I/O's payload or read buffer
	server     uint32 // block server of the attempt in flight
	attempt    int    // not-owner re-sends so far
	crcs       []uint32
	responseFn func(*transport.Response)
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
	r := a.getReq()
	r.op, r.vdisk, r.size, r.data, r.done = op, vdisk, size, data, done
	r.span.Op, r.span.Size = "read", size
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

	a.eng.ScheduleArg(a.admit(vdisk, size), ioAdmitted, r)
}

// getReq hands out a record finish wiped, or builds one on a pool miss:
// its callbacks are bound here, once per record.
func (a *Agent) getReq() *ioReq {
	r := a.reqs.Get()
	if r == nil {
		r = &ioReq{a: a}
		r.first.responseFn = r.first.response
	}
	return r
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
			if p = r.a.pieces.Get(); p == nil {
				p = new(piece)
				p.responseFn = p.response
			}
			r.more = append(r.more, p)
		}
		p.r, p.off, p.n, p.server = r, off, n, ref.Server
		p.msg = transport.Message{Op: r.op, VDisk: r.vdisk, SegmentID: ref.SegmentID, LBA: cur, Gen: r.gen}
		off += n
	}
	r.remaining = 1 + len(r.more)
	if r.remaining > 1 {
		r.a.Splits++
	}
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

// ioIssue closes the SA stage and sends one RPC per piece, in LBA order. A
// segment-crossing read gets the buffer its pieces are assembled in; a
// one-piece read's comes with its response (see land).
func ioIssue(x any) {
	r := x.(*ioReq)
	now := r.a.eng.Now()
	r.span.Add(trace.SA, now.Sub(r.mark))
	r.mark = now
	if r.op == wire.RPCReadReq && len(r.more) > 0 {
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
	if r.op == wire.RPCWriteReq {
		p.msg.Data = r.data[p.off : p.off+p.n]
		// One-touch CRC: the per-block raw CRC is computed exactly
		// once, here at SA ingress, over the bytes that will cross the
		// wire; every downstream verification folds these values
		// instead of re-walking the payload. The CRCPer4K cost was
		// already charged in saBusy (or rides the FPGA pipeline), so
		// this changes who reads the bytes, not what the simulation
		// charges.
		// Attached only for the offloaded (Solar) stacks, whose wire
		// format carries a per-block CRC.
		if a.params.Offloaded {
			blocks := wire.Blocks(p.n)
			p.crcs = slices.Grow(p.crcs[:0], blocks)[:blocks]
			blockCRCs(p.crcs, p.msg.Data)
			p.msg.BlockCRCs = p.crcs
		}
	} else {
		p.msg.ReadLen = p.n
	}
	p.send()
}

// send makes one attempt at the piece's RPC.
//
//lint:hotpath
func (p *piece) send() {
	p.r.a.fn.Call(p.server, &p.msg, p.responseFn)
}

// response ends one attempt; the last piece to finish completes the I/O.
func (p *piece) response(resp *transport.Response) {
	r, a := p.r, p.r.a
	// A not-owner rejection means a live migration cut the segment over
	// while this RPC was in flight. Re-resolve the (remapped) segment
	// table; if it now points at a different server, retry there.
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
	if r.op == wire.RPCReadReq && resp.Err == nil {
		p.land(resp)
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

// land places a read piece's response Data, which is valid until the
// response callback returns and, when the response carries a Payload, is
// pooled memory the FN stack recycles then. A segment-crossing read copies
// it into its piece's range. A one-piece read copies a pooled response into
// a buffer of its own and keeps any other as the guest's buffer: Result.Data
// outlives done. Data that is not exactly the piece's length fails the I/O.
func (p *piece) land(resp *transport.Response) {
	r, data := p.r, resp.Data
	if len(data) != p.n {
		if r.err == nil {
			r.err = fmt.Errorf("sa: vdisk %d read at %#x: %d-byte response for a %d-byte piece", r.vdisk, p.msg.LBA, len(data), p.n)
		}
		return
	}
	switch {
	case r.buf != nil:
		copy(r.buf[p.off:p.off+p.n], data)
	case resp.Payload != nil:
		r.buf = slices.Clone(data)
	default:
		r.buf = data
	}
}

// finish ends the I/O: it builds the guest's self-contained Result, wipes
// the pieces and the record — nothing of this I/O may pin the guest's
// payload, callback or buffer, or carry into the next one — keeping only
// the bound callbacks and CRC arrays, and returns them to their pools. done
// runs last, so a done that issues the next I/O at once gets a clean record.
//
//lint:hotpath
func (r *ioReq) finish() {
	a, done := r.a, r.done
	res := Result{Data: r.buf, Err: r.err, Latency: r.span.Total(), Span: r.span}
	for i, p := range r.more {
		*p = piece{crcs: p.crcs, responseFn: p.responseFn}
		a.pieces.Put(p)
		r.more[i] = nil
	}
	*r = ioReq{a: a, more: r.more[:0],
		first: piece{crcs: r.first.crcs, responseFn: r.first.responseFn}}
	a.reqs.Put(r)
	if done != nil {
		done(res)
	}
}
