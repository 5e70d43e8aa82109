package sim

import (
	"math"
	"math/bits"
	"time"
)

// Hierarchical timing wheel: the engine's second scheduling class.
//
// The binary heap is exact but costs O(log n) per arm/cancel, which is the
// wrong trade for retransmit timers: they are armed on every send, re-armed
// on every ACK, and almost always cancelled before firing. The wheel gives
// those timers O(1) arm and cancel by parking them in a slot keyed by their
// due tick; a slot is only touched again when virtual time reaches it, at
// which point its events cascade down a level or move into the heap carrying
// their original (at, seq) key. Firing therefore always happens from the
// heap in exact (at, seq) order: a ScheduleCoarse timer fires exactly when
// and where the same Schedule call would — the wheel changes the cost of
// waiting, never the order of firing.
//
// Geometry: 4 levels × 64 slots, 4096 ns per tick. Level 0 spans ~262 µs at
// tick resolution, level 1 ~16.8 ms, level 2 ~1.07 s, level 3 ~68.7 s —
// comfortably covering RTO backoff, probe intervals, and failover timers.
// Events past the top level clamp into the furthest slot and re-cascade.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	tickShift   = 12 // 2^12 ns = 4.096 µs per tick

	// wheelIndex is the Event.index sentinel for "parked in the wheel"
	// (heap events have index >= 0, idle events -1).
	wheelIndex = -2
)

// wheel is the per-engine hierarchical timing wheel. Slots are intrusive
// doubly-linked event lists (heads only; Events carry the links), with one
// occupancy bit per slot so finding the earliest pending slot is a handful
// of rotate/TrailingZeros operations per level.
type wheel struct {
	slot  [wheelLevels][wheelSlots]*Event
	occ   [wheelLevels]uint64
	cur   int64 // current tick; all parked events are due at or after it
	count int
}

// ScheduleCoarse runs fn after delay d using the coarse scheduling class:
// O(1) arm and cancel, exact same firing order as Schedule. Use it for
// cancellable, latency-tolerant timers (retransmit, probe, refill); keep
// Schedule for exact-time simulation events. A negative delay is zero.
func (e *Engine) ScheduleCoarse(d time.Duration, fn func()) Timer {
	return e.ScheduleCoarseArg(d, callFunc, fn)
}

// ScheduleCoarseArg runs fn(arg) after delay d on the coarse scheduling
// class; the arg-based variant avoids closure allocations (see ScheduleArg).
func (e *Engine) ScheduleCoarseArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	t := e.now.Add(d)
	if t < e.now {
		panic("sim: scheduling coarse event before now")
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.arg = arg
	if e.wheel.count == 0 {
		// Empty wheel: snap its clock forward so long-idle engines don't
		// cascade through stale slots. Only new events may snap — during a
		// cascade the clock must never move backward, or a re-placed event
		// could land back in the slot being flushed and loop forever.
		e.wheel.cur = int64(e.now) >> tickShift
	}
	if !e.wheelPlace(ev) {
		e.push(ev)
	}
	return Timer{e: ev, gen: ev.gen}
}

// wheelPlace parks ev in the wheel, or reports false if it belongs in the
// heap (due within the current tick). Used both for new
// coarse events and for cascading events out of a flushed higher-level slot.
func (e *Engine) wheelPlace(ev *Event) bool {
	w := &e.wheel
	evTick := int64(ev.at) >> tickShift
	if evTick-w.cur < 1 {
		return false // due within the current tick: heap handles it exactly
	}
	lvl := wheelLevels - 1
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * l)
		// Slot-distance check per level (not a delta range): avoids the
		// ring ambiguity where distance exactly wheelSlots aliases to 0.
		if evTick>>shift-w.cur>>shift < wheelSlots {
			lvl = l
			break
		}
	}
	// Beyond the top level's horizon the event clamps into the furthest
	// top-level slot and re-cascades when that slot flushes.
	shift := uint(wheelBits * lvl)
	slotAbs := evTick >> shift
	if slotAbs-w.cur>>shift >= wheelSlots {
		slotAbs = w.cur>>shift + wheelMask
	}
	s := int(slotAbs & wheelMask)
	head := w.slot[lvl][s]
	ev.wnext = head
	ev.wprev = nil
	if head != nil {
		head.wprev = ev
	}
	w.slot[lvl][s] = ev
	w.occ[lvl] |= 1 << uint(s)
	ev.index = wheelIndex
	ev.wpos = int32(lvl<<wheelBits | s)
	w.count++
	return true
}

// wheelRemove unlinks a parked event (Timer.Cancel on a coarse timer).
func (e *Engine) wheelRemove(ev *Event) {
	w := &e.wheel
	lvl := int(ev.wpos) >> wheelBits
	s := int(ev.wpos) & wheelMask
	if ev.wprev != nil {
		ev.wprev.wnext = ev.wnext
	} else {
		w.slot[lvl][s] = ev.wnext
		if ev.wnext == nil {
			w.occ[lvl] &^= 1 << uint(s)
		}
	}
	if ev.wnext != nil {
		ev.wnext.wprev = ev.wprev
	}
	ev.wnext = nil
	ev.wprev = nil
	ev.index = -1
	w.count--
}

// wheelNextDue returns the earliest slot-start time among occupied slots —
// a lower bound on every parked event's due time — plus the slot to flush.
func (e *Engine) wheelNextDue() (Time, int, int64) {
	w := &e.wheel
	best := Time(math.MaxInt64)
	bestLvl, bestSlot := -1, int64(0)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		occ := w.occ[lvl]
		if occ == 0 {
			continue
		}
		shift := uint(wheelBits * lvl)
		curSlotAbs := w.cur >> shift
		// Rotate so bit k means "slot (cur+k) mod 64": the first set bit is
		// the next occupied slot in ring order from the current position.
		rot := bits.RotateLeft64(occ, -int(curSlotAbs&wheelMask))
		dist := int64(bits.TrailingZeros64(rot))
		slotAbs := curSlotAbs + dist
		t := Time((slotAbs << shift) << tickShift)
		if t < best {
			best, bestLvl, bestSlot = t, lvl, slotAbs
		}
	}
	return best, bestLvl, bestSlot
}

// settle moves every parked event that could fire before (or tied with) the
// heap head into the heap, advancing the wheel clock slot by slot. Events
// keep their original (at, seq), so the heap restores exact order; level>0
// slots cascade their events down through wheelPlace.
func (e *Engine) settle() {
	w := &e.wheel
	for w.count > 0 {
		due, lvl, slotAbs := e.wheelNextDue()
		if len(e.heap) > 0 && e.heap[0].at < due {
			return // heap head fires strictly before any parked event can
		}
		shift := uint(wheelBits * lvl)
		if start := slotAbs << shift; start > w.cur {
			w.cur = start
		}
		s := int(slotAbs & wheelMask)
		head := w.slot[lvl][s]
		w.slot[lvl][s] = nil
		w.occ[lvl] &^= 1 << uint(s)
		for ev := head; ev != nil; {
			next := ev.wnext
			ev.wnext = nil
			ev.wprev = nil
			ev.index = -1
			w.count--
			if lvl == 0 || !e.wheelPlace(ev) {
				e.push(ev)
			}
			ev = next
		}
	}
}
