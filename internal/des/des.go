// Package des is a minimal deterministic discrete-event simulation
// kernel: a virtual clock and a priority queue of timestamped events.
// The worm simulator (package sim) schedules every scan as an event, so
// the paper's continuous-time propagation dynamics (Figs. 9–10) run
// with no wall-clock dependence and bit-exact reproducibility.
//
// Determinism contract: events fire in (time, scheduling order). Two
// events at the same virtual instant fire in the order they were
// scheduled, so a simulation is a pure function of its inputs and RNG
// seed. Both kernel backends honor the same contract bit-for-bit.
//
// Two backends implement the pending-event set (DESIGN.md §14):
//
//   - KernelHeap: a hand-rolled binary (time, seq) min-heap of inline
//     event records (no container/heap, no interface boxing). O(log n)
//     per event; the reference backend.
//
//   - KernelWheel: a hierarchical timing wheel (bucketed calendar
//     queue) — power-of-two tick granularity, 4096-slot levels with
//     occupancy bitmaps, buckets of chunked event records drawn from a
//     pooled chunk free list, cascading overflow levels for far-future
//     events. O(1) amortized per event, independent of the pending-set
//     size, which is what lets internet-scale populations (10M+ hosts)
//     simulate at full speed. See wheel.go.
//
// Every event has one form: a fire-and-forget (at, seq, ArgHandler,
// arg) record, admitted through Emit, EmitAt or ScheduleBatch. Events
// cannot be canceled; a simulation that no longer wants an event lets
// its handler find nothing to do. The kernel is engineered for zero
// steady-state allocation (DESIGN.md §9): one handler function value is
// shared by many events, each carrying its own integer argument, so
// admission allocates no closure and no node, and batched admission
// (ScheduleBatch) seeds whole populations of events in one amortized
// pass.
package des

import (
	"fmt"
	"math"
	"time"

	"wormcontain/internal/telemetry"
)

// ArgHandler is the callback invoked when an event fires. It runs on
// the simulator's single logical thread and may admit further events.
// One function value (typically a method value bound once per
// simulation) is shared by many events, each carrying its own integer
// argument — a host index in the worm simulator — so admitting an
// event allocates no closure.
type ArgHandler func(arg int)

// Kind selects the kernel's pending-event backend.
type Kind uint8

const (
	// KernelHeap is the binary (time, seq) min-heap: O(log n) per
	// event, the reference backend and the zero value.
	KernelHeap Kind = iota
	// KernelWheel is the hierarchical timing wheel: O(1) amortized per
	// event regardless of pending-set depth. Event delivery order is
	// byte-identical to KernelHeap.
	KernelWheel
)

// String implements fmt.Stringer with the names ParseKind accepts.
func (k Kind) String() string {
	switch k {
	case KernelHeap:
		return "heap"
	case KernelWheel:
		return "wheel"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind parses a backend name as accepted on CLI flags.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "heap":
		return KernelHeap, nil
	case "wheel":
		return KernelWheel, nil
	default:
		return 0, fmt.Errorf("des: unknown kernel %q (heap, wheel)", s)
	}
}

// DefaultWheelTick is the wheel granularity used when Config.WheelTick
// is zero: fine enough that enterprise-scale runs keep O(1) buckets,
// coarse enough that a far-future event cascades only a handful of
// times.
const DefaultWheelTick = 16384 * time.Nanosecond

// Config parameterizes a Simulator's kernel backend.
type Config struct {
	// Kernel selects the pending-event backend; the zero value is the
	// reference binary heap.
	Kernel Kind
	// WheelTick is the timing wheel's level-0 bucket width. It is
	// rounded down to a power of two nanoseconds; zero selects
	// DefaultWheelTick. Pick it near (mean event delay) / (pending-set
	// size) so level-0 buckets hold O(1) events; correctness never
	// depends on it. Ignored by the heap backend.
	WheelTick time.Duration
}

// event is one queued event: the (at, seq) ordering key and the
// handler with its argument, all inline. Both backends store these
// records by value — the heap backend in its queue, the wheel in its
// bucket chunks and its due and overflow heaps — so no queued event
// owns a separate node and firing touches nothing but the record.
type event struct {
	at  time.Duration
	seq uint64
	fn  ArgHandler
	arg int
}

// less orders records by (at, seq): virtual time first, admission order
// as the deterministic tie-break. seq is unique, so the order is a
// strict total order — pop sequences depend only on the multiset of
// queued records, never on internal heap arrangement. That is what
// makes bulk heapify (ScheduleBatch) observationally identical to
// sequential pushes, and the wheel identical to the heap.
func less(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of records ordered by (at, seq): the
// heap backend's queue, and the wheel backend's due and overflow
// stages.
type eventHeap []event

// push appends e and restores the heap invariant (sift-up).
func (h *eventHeap) push(e event) {
	s := *h
	i := len(s)
	s = append(s, e)
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// pop removes and returns the heap's minimum record.
func (h *eventHeap) pop() event {
	s := *h
	root := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the handler reference
	s = s[:n]
	*h = s
	if n > 0 {
		s[0] = last
		s.siftDown(0)
	}
	return root
}

// siftDown re-seats the record at position i against its descendants.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && less(h[right], h[left]) {
			child = right
		}
		if !less(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// heapify restores the heap invariant over the whole slice in O(n):
// the bulk-admission path for ScheduleBatch on the heap backend.
func (h eventHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Simulator is the event loop. The zero value is not usable; construct
// with New or NewWithConfig. A Simulator is not safe for concurrent
// use: the entire simulation runs on one goroutine, which is what
// makes it deterministic.
type Simulator struct {
	now       time.Duration
	seq       uint64
	kind      Kind
	tickShift uint // log2 of the wheel tick in nanoseconds
	heap      eventHeap
	wheel     wheelState
	fired     uint64
	stopped   bool
	metrics   *kernelMetrics
}

// kernelMetrics is the kernel's optional telemetry wiring. The
// instruments are atomic, so a scraper on another goroutine reads them
// safely even though the Simulator itself is single-threaded.
type kernelMetrics struct {
	events *telemetry.Counter
	depth  *telemetry.Gauge
}

// Instrument registers the kernel's metric families into reg and
// enables per-event updates: des_events_executed_total counts fired
// events and des_queue_depth tracks the pending-event count. Without
// Instrument the kernel touches no instruments at all, so simulations
// that don't scrape pay only a nil check per event. A nil reg removes
// previously installed instruments (for Simulators reused across runs
// with different telemetry wiring).
func (s *Simulator) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		s.metrics = nil
		return
	}
	s.metrics = &kernelMetrics{
		events: reg.Counter("des_events_executed_total",
			"Discrete events executed by the simulation kernel."),
		depth: reg.Gauge("des_queue_depth",
			"Events pending in the kernel's priority queue."),
	}
	s.metrics.depth.Set(float64(s.Pending()))
}

// New returns a simulator with the clock at zero, using the reference
// heap backend.
func New() *Simulator {
	return &Simulator{}
}

// NewWithConfig returns a simulator with the clock at zero using the
// configured kernel backend.
func NewWithConfig(cfg Config) *Simulator {
	s := &Simulator{}
	s.Configure(cfg)
	return s
}

// Configure switches the kernel backend. It may only be called while
// no events are pending (freshly constructed or after Reset/drain);
// configuring a loaded simulator panics. Queue and chunk capacities
// survive, so a Monte-Carlo arena can flip backends between
// replications without reallocating.
func (s *Simulator) Configure(cfg Config) {
	if s.Pending() != 0 {
		panic("des: Configure with pending events")
	}
	if cfg.WheelTick < 0 {
		panic(fmt.Sprintf("des: negative wheel tick %v", cfg.WheelTick))
	}
	switch cfg.Kernel {
	case KernelHeap, KernelWheel:
	default:
		panic(fmt.Sprintf("des: unknown kernel %v", cfg.Kernel))
	}
	s.kind = cfg.Kernel
	if s.kind == KernelWheel {
		tick := cfg.WheelTick
		if tick == 0 {
			tick = DefaultWheelTick
		}
		s.tickShift = log2floor(uint64(tick))
		s.wheel.cur = uint64(s.now) >> s.tickShift
		if s.wheel.slots == nil {
			s.wheel.slots = make([]*wheelChunk, wheelLevels*wheelSlots)
		}
	}
}

// Kernel returns the active backend.
func (s *Simulator) Kernel() Kind { return s.kind }

// WheelTick returns the wheel backend's effective (power-of-two)
// bucket width, or zero under the heap backend.
func (s *Simulator) WheelTick() time.Duration {
	if s.kind != KernelWheel {
		return 0
	}
	return time.Duration(1) << s.tickShift
}

// Reset returns the simulator to its initial state — clock at zero, no
// pending events — while keeping queue and chunk capacities and the
// kernel configuration, so a Monte-Carlo replication loop can reuse
// one Simulator per worker with zero per-replication allocation.
// Pending events are discarded.
func (s *Simulator) Reset() {
	s.heap = s.heap[:0]
	s.wheelReset()
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
	if m := s.metrics; m != nil {
		m.depth.Set(0)
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events waiting in the queue.
func (s *Simulator) Pending() int {
	if s.kind == KernelWheel {
		return s.wheel.count
	}
	return len(s.heap)
}

// Emit enqueues fn(arg) to run after delay of virtual time. A negative
// delay is a programming error and panics; a zero delay fires at the
// current instant, after already-queued events at that instant.
func (s *Simulator) Emit(delay time.Duration, fn ArgHandler, arg int) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.EmitAt(s.now+delay, fn, arg)
}

// EmitAt enqueues fn(arg) to run at absolute virtual time at, which must
// not be in the past.
func (s *Simulator) EmitAt(at time.Duration, fn ArgHandler, arg int) {
	if fn == nil {
		panic("des: nil handler")
	}
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v is before now %v", at, s.now))
	}
	s.admit(at, fn, arg)
}

// admit files a validated event in the active backend under the next
// sequence number.
func (s *Simulator) admit(at time.Duration, fn ArgHandler, arg int) {
	e := event{at: at, seq: s.seq, fn: fn, arg: arg}
	s.seq++
	if s.kind == KernelWheel {
		s.wheel.count++
		s.wheelPlace(e)
	} else {
		s.heap.push(e)
	}
}

// BatchEvent is one entry of a ScheduleBatch admission: fn(Arg) fires
// at absolute virtual time At.
type BatchEvent struct {
	At  time.Duration
	Fn  ArgHandler
	Arg int
}

// ScheduleBatch enqueues every event of evs, assigning sequence numbers
// in slice order — the fire order is byte-identical to calling EmitAt
// in a loop over evs. The batch pays the admission cost once: the heap
// backend bulk-loads and heapifies in O(k + n) instead of n sift-ups,
// and the wheel backend's O(1) inserts skip the per-call validation.
// This is how the sim engine seeds an outbreak's initial events and a
// whole population's countermeasure fires without n scheduler
// round-trips.
func (s *Simulator) ScheduleBatch(evs []BatchEvent) {
	for i := range evs {
		if evs[i].Fn == nil {
			panic("des: nil handler in batch")
		}
		if evs[i].At < s.now {
			panic(fmt.Sprintf("des: batch event at %v is before now %v", evs[i].At, s.now))
		}
	}
	// Heap backend: when the batch rivals the standing queue, append
	// everything and heapify once (O(k+n)); for small top-ups the
	// incremental sift-up is cheaper.
	bulk := s.kind == KernelHeap && len(evs) > len(s.heap)
	for i := range evs {
		if bulk {
			s.heap = append(s.heap, event{at: evs[i].At, seq: s.seq, fn: evs[i].Fn, arg: evs[i].Arg})
			s.seq++
		} else {
			s.admit(evs[i].At, evs[i].Fn, evs[i].Arg)
		}
	}
	if bulk {
		s.heap.heapify()
	}
	if m := s.metrics; m != nil {
		m.depth.Set(float64(s.Pending()))
	}
}

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes. Pending events stay queued; a subsequent Run resumes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the single earliest pending event and advances the clock
// to it. It reports whether an event fired.
func (s *Simulator) Step() bool {
	var e event
	if s.kind == KernelWheel {
		if !s.wheelDue() {
			return false
		}
		s.wheel.count--
		e = s.wheel.due.pop()
	} else {
		if len(s.heap) == 0 {
			return false
		}
		e = s.heap.pop()
	}
	s.now = e.at
	s.fired++
	e.fn(e.arg)
	if m := s.metrics; m != nil {
		// After the handler, so the depth reflects events it
		// scheduled.
		m.events.Inc()
		m.depth.Set(float64(s.Pending()))
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline (if it has not passed it already). Events scheduled
// beyond the deadline stay queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peek returns the timestamp of the earliest pending event.
func (s *Simulator) peek() (time.Duration, bool) {
	if s.kind == KernelWheel {
		if !s.wheelDue() {
			return 0, false
		}
		return s.wheel.due[0].at, true
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// MaxTime is the largest representable virtual time, usable as an
// effectively infinite deadline.
const MaxTime = time.Duration(math.MaxInt64)
