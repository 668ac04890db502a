package des

import (
	"fmt"
	"sort"
	"time"
)

// Kernel-neutral checkpoint support (DESIGN.md §15).
//
// A simulation checkpoint must capture the pending-event set so a
// restored kernel reproduces the exact (time, seq) fire order. Rather
// than serializing backend internals (heap arrays, wheel buckets,
// occupancy bitmaps), ExportPending flattens the pending events of either
// backend into one canonical (at, seq)-sorted slice, and Restore
// re-admits such a slice through the ScheduleBatch path. Sequence
// numbers need not survive the round trip: ScheduleBatch assigns fresh
// ascending seqs in slice order, which preserves the exported relative
// order, and any event scheduled *after* the restore receives a larger
// seq — exactly the tie-break position it would have had in the
// uninterrupted run, where it would also have been scheduled later.
// That is what makes the export format kernel-neutral: a heap
// checkpoint restores onto a wheel (and vice versa) bit-identically.

// ExportedEvent is one pending event in canonical exported form. The
// Fn value must be mapped to a serializable identity by the caller,
// which owns the (small, fixed) set of handler functions it schedules
// with.
type ExportedEvent struct {
	At  time.Duration
	Fn  ArgHandler
	Arg int
}

// ExportPending returns every pending event in (at, seq) fire order —
// the canonical kernel-neutral checkpoint of the queue.
func (s *Simulator) ExportPending() []ExportedEvent {
	evs := make([]event, 0, s.Pending())
	if s.kind == KernelWheel {
		w := &s.wheel
		evs = append(evs, w.due...)
		evs = append(evs, w.overflow...)
		for _, c := range w.slots {
			for ; c != nil; c = c.next {
				evs = append(evs, c.evs[:c.n]...)
			}
		}
	} else {
		evs = append(evs, s.heap...)
	}
	sort.Slice(evs, func(i, j int) bool { return less(evs[i], evs[j]) })
	out := make([]ExportedEvent, len(evs))
	for i, e := range evs {
		out[i] = ExportedEvent{At: e.at, Fn: e.fn, Arg: e.arg}
	}
	return out
}

// Restore reinitializes the simulator to a checkpointed position: clock
// at now, fired events executed so far, and the given pending set
// (canonically ordered or not — ScheduleBatch order only needs to match
// the exported order for bit-identical continuation). The kernel
// configuration (Configure) is unchanged; queue capacities are retained.
func (s *Simulator) Restore(now time.Duration, fired uint64, evs []BatchEvent) {
	if now < 0 {
		panic(fmt.Sprintf("des: restore to negative time %v", now))
	}
	s.Reset()
	s.now = now
	if s.kind == KernelWheel {
		s.wheel.cur = uint64(now) >> s.tickShift
	}
	s.fired = fired
	s.ScheduleBatch(evs)
}

// NextEventAt reports the timestamp of the earliest pending event;
// ok is false when the queue holds none. It is the public peek used by
// checkpoint-driven run loops to find cut points between events.
func (s *Simulator) NextEventAt() (at time.Duration, ok bool) {
	return s.peek()
}

// Stopped reports whether Stop has been called since the last Run,
// RunUntil or Restore — the state a Step-driven loop checks to honor
// in-handler Stop requests the way Run does.
func (s *Simulator) Stopped() bool { return s.stopped }

// ClearStop resets the Stop latch. Run and RunUntil clear it on entry;
// a Step-driven loop calls this once at its own entry to mirror them
// (it matters when event admission before the loop — outbreak seeding,
// say — already tripped a Stop).
func (s *Simulator) ClearStop() { s.stopped = false }

// AdvanceTo moves the clock forward to t without firing any events,
// mirroring RunUntil's deadline semantics for Step-driven loops: a
// checkpointing runner that stops stepping (deadline reached, or a
// handler called Stop) uses it to land the clock exactly where
// RunUntil would have. Earlier times are a no-op; pending events are
// untouched, even ones with timestamps <= t.
func (s *Simulator) AdvanceTo(t time.Duration) {
	if t > s.now {
		s.now = t
	}
}
