package des

import (
	"fmt"
	"testing"
	"time"
)

// newWheel returns a wheel-backed simulator with a deliberately coarse
// tick so tests exercise multi-event buckets and cascades.
func newWheel(tick time.Duration) *Simulator {
	return NewWithConfig(Config{Kernel: KernelWheel, WheelTick: tick})
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"heap", KernelHeap, true},
		{"wheel", KernelWheel, true},
		{"", KernelHeap, true},
		{"Wheel", 0, false},
		{"calendar", 0, false},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseKind(%q) succeeded; want error", c.in)
		}
	}
	if KernelHeap.String() != "heap" || KernelWheel.String() != "wheel" {
		t.Errorf("Kind.String round-trip broken: %v %v", KernelHeap, KernelWheel)
	}
}

func TestConfigureRejectsPendingEvents(t *testing.T) {
	s := New()
	s.Emit(time.Second, noop, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Configure with pending events did not panic")
		}
	}()
	s.Configure(Config{Kernel: KernelWheel})
}

func TestWheelTickRoundsDownToPowerOfTwo(t *testing.T) {
	s := newWheel(3 * time.Microsecond) // 3000ns -> 2048ns
	if got := s.WheelTick(); got != 2048 {
		t.Fatalf("WheelTick = %v, want 2048ns", got)
	}
	if New().WheelTick() != 0 {
		t.Fatal("heap backend should report zero wheel tick")
	}
	if d := NewWithConfig(Config{Kernel: KernelWheel}).WheelTick(); d != DefaultWheelTick {
		t.Fatalf("default wheel tick = %v, want %v", d, DefaultWheelTick)
	}
}

// TestWheelOrderWithinBucket packs many events into one coarse bucket
// in scrambled insertion order: delivery must still be (time, seq)
// sorted, exactly like the heap.
func TestWheelOrderWithinBucket(t *testing.T) {
	s := newWheel(time.Millisecond) // all events below share buckets
	var got []int
	record := recorder(&got)
	// Scrambled times within a handful of ticks, several exact ties.
	delays := []time.Duration{700, 100, 400, 100, 900, 400, 50, 700}
	for i, d := range delays {
		s.Emit(d*time.Microsecond, record, i)
	}
	s.Run()
	want := []int{6, 1, 3, 2, 5, 0, 7, 4} // by (at, insertion order)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

// TestWheelFarFutureOverflow schedules events beyond the wheel's 48-bit
// tick horizon (the overflow heap) interleaved with near events, and
// checks both order and clock.
func TestWheelFarFutureOverflow(t *testing.T) {
	s := newWheel(time.Nanosecond) // shift 0: 2^48 ns horizon ≈ 3.2 days
	far := 10 * 24 * time.Hour     // well past the horizon
	var got []int
	record := recorder(&got)
	s.EmitAt(far+time.Hour, record, 3)
	s.EmitAt(time.Second, record, 1)
	s.EmitAt(far, record, 2)
	s.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("fire order = %v", got)
	}
	if s.Now() != far+time.Hour {
		t.Fatalf("Now = %v, want %v", s.Now(), far+time.Hour)
	}
}

// TestWheelResetRecyclesNodes loads every wheel structure, resets, and
// verifies the simulator is reusable with its chunks returned to the
// pool.
func TestWheelResetRecyclesNodes(t *testing.T) {
	s := newWheel(time.Microsecond)
	for i := 0; i < 100; i++ {
		s.Emit(time.Duration(i)*time.Millisecond, noop, i)
	}
	s.EmitAt(MaxTime/2, noop, 0) // overflow resident
	s.Step()                     // populate the due heap mid-flight
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Fired() != 0 {
		t.Fatalf("Reset left pending=%d now=%v fired=%d", s.Pending(), s.Now(), s.Fired())
	}
	if s.wheel.freeChunks == nil {
		t.Fatal("Reset did not return bucket chunks to the pool")
	}
	n := 0
	s.Emit(time.Second, func(int) { n++ }, 0)
	s.Run()
	if n != 1 {
		t.Fatalf("post-Reset run fired %d events, want 1", n)
	}
}

// TestWheelSteadyStateChurnDoesNotAllocate mirrors the heap's
// zero-alloc guarantee: a self-rescheduling chain on the wheel backend,
// drained to empty and restarted, must run allocation-free once the
// chunk pool and heaps are warm.
func TestWheelSteadyStateChurnDoesNotAllocate(t *testing.T) {
	s := newWheel(time.Microsecond)
	var chain ArgHandler
	chain = func(n int) {
		if n < 100 {
			s.Emit(37*time.Microsecond, chain, n+1)
		}
	}
	s.Emit(time.Microsecond, chain, 0)
	s.Run() // warm the chunk pool and due heap
	allocs := testing.AllocsPerRun(50, func() {
		s.Emit(time.Microsecond, chain, 0)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocated %.1f allocs/run, want 0", allocs)
	}
}

// TestScheduleBatchMatchesSequential verifies that batch admission
// fires byte-identically to a loop of EmitAt on both backends,
// including bulk-heapify (batch larger than the standing queue) and
// incremental (small top-up) paths.
func TestScheduleBatchMatchesSequential(t *testing.T) {
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg % n
	}
	mkEvents := func(count int, record *[]int) []BatchEvent {
		evs := make([]BatchEvent, count)
		fn := func(arg int) { *record = append(*record, arg) }
		for i := range evs {
			evs[i] = BatchEvent{
				At:  time.Duration(next(1_000_000)) * time.Microsecond,
				Fn:  fn,
				Arg: i,
			}
		}
		return evs
	}
	for _, kind := range []Kind{KernelHeap, KernelWheel} {
		for _, standing := range []int{0, 500} { // exercise both heap paths
			lcg = 12345
			var seqOrder, batchOrder []int
			seqEvs := mkEvents(200, &seqOrder)
			seq := NewWithConfig(Config{Kernel: kind, WheelTick: time.Microsecond})
			for i := 0; i < standing; i++ {
				seq.EmitAt(time.Duration(next(1_000_000))*time.Microsecond, noop, 0)
			}
			for _, ev := range seqEvs {
				seq.EmitAt(ev.At, ev.Fn, ev.Arg)
			}
			seq.Run()

			lcg = 12345
			batchEvs := mkEvents(200, &batchOrder)
			bat := NewWithConfig(Config{Kernel: kind, WheelTick: time.Microsecond})
			for i := 0; i < standing; i++ {
				bat.EmitAt(time.Duration(next(1_000_000))*time.Microsecond, noop, 0)
			}
			bat.ScheduleBatch(batchEvs)
			bat.Run()

			if fmt.Sprint(seqOrder) != fmt.Sprint(batchOrder) {
				t.Fatalf("kind=%v standing=%d: batch order diverges from sequential",
					kind, standing)
			}
		}
	}
}

func TestScheduleBatchValidates(t *testing.T) {
	s := New()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil handler", func() {
		s.ScheduleBatch([]BatchEvent{{At: time.Second}})
	})
	s2 := New()
	s2.Emit(time.Second, noop, 0)
	s2.Run()
	mustPanic("past event", func() {
		s2.ScheduleBatch([]BatchEvent{{At: time.Millisecond, Fn: func(int) {}}})
	})
}

// TestEmitInterleavesWithSchedule pins the ordering contract across
// admission forms on both backends: Emit, EmitAt and ScheduleBatch
// take sequence numbers from one counter, so ties at one instant fire
// in admission order regardless of which form admitted them, even
// when each form uses its own handler.
func TestEmitInterleavesWithSchedule(t *testing.T) {
	for _, kind := range []Kind{KernelHeap, KernelWheel} {
		s := NewWithConfig(Config{Kernel: kind, WheelTick: time.Microsecond})
		var order []int
		fn := recorder(&order)
		other := func(arg int) { order = append(order, arg) }
		s.Emit(time.Millisecond, fn, 0)
		s.EmitAt(time.Millisecond, other, 1)
		s.ScheduleBatch([]BatchEvent{{At: time.Millisecond, Fn: fn, Arg: 2}})
		s.Emit(time.Millisecond, other, 3)
		s.Emit(0, fn, 4) // immediate, still after nothing queued at t=0
		s.Run()
		want := []int{4, 0, 1, 2, 3}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("%v: fire order %v, want %v", kind, order, want)
		}
	}
}

// TestEmitValidates pins Emit and EmitAt argument checking on both
// backends.
func TestEmitValidates(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	for _, kind := range []Kind{KernelHeap, KernelWheel} {
		s := NewWithConfig(Config{Kernel: kind})
		mustPanic("nil handler", func() { s.Emit(time.Second, nil, 0) })
		mustPanic("negative delay", func() { s.Emit(-1, noop, 0) })
		s.Emit(time.Second, noop, 0)
		s.Run()
		mustPanic("past event", func() { s.EmitAt(time.Millisecond, noop, 0) })
	}
}

// TestWheelEmitChurnDoesNotAllocate proves the wheel's admission path
// is allocation-free in steady state: after the chunk pool warms, an
// Emit-per-fire churn loop performs zero allocations.
func TestWheelEmitChurnDoesNotAllocate(t *testing.T) {
	s := NewWithConfig(Config{Kernel: KernelWheel, WheelTick: time.Microsecond})
	var fn ArgHandler
	fn = func(arg int) { s.Emit(time.Duration(1+arg%7)*time.Millisecond, fn, arg+1) }
	for i := 0; i < 512; i++ {
		s.Emit(time.Duration(i)*time.Microsecond, fn, i)
	}
	for i := 0; i < 4096; i++ { // warm the chunk and heap pools
		s.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			s.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Emit churn allocates %.1f allocs per 64 events", allocs)
	}
}

// TestKernelEquivalenceRandomized drives both backends through an
// identical randomized workload — mixed delays spanning bucket, wheel
// and overflow ranges, exact-tie timestamps, handlers that admit
// follow-up events, RunUntil slices, and a Reset midway — and requires
// the byte-identical fire sequence.
func TestKernelEquivalenceRandomized(t *testing.T) {
	type fire struct {
		at  time.Duration
		arg int
	}
	run := func(kind Kind, seed uint64) []fire {
		lcg := seed
		next := func(n uint64) uint64 {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return (lcg >> 11) % n
		}
		s := NewWithConfig(Config{Kernel: kind, WheelTick: 4 * time.Microsecond})
		var fires []fire
		fn := func(arg int) { fires = append(fires, fire{s.Now(), arg}) }
		// echo fires like fn and admits one follow-up at an exact tie
		// with its own instant or shortly after.
		echo := func(arg int) {
			fn(arg)
			s.Emit(time.Duration(next(3))*time.Microsecond, fn, arg+1_000_000)
		}
		inject := func(base int) {
			for i := 0; i < 400; i++ {
				var at time.Duration
				switch next(10) {
				case 0: // far future: deep cascades, and past the ~36-year
					// horizon of a 4µs tick into the overflow heap
					at = s.Now() + time.Duration(1+next(60))*time.Hour*24*365
				case 1, 2: // exact ties
					at = s.Now() + time.Duration(next(5))*time.Millisecond
				default: // dense near-term
					at = s.Now() + time.Duration(next(2_000_000))*time.Nanosecond
				}
				if next(4) == 0 {
					s.EmitAt(at, echo, base+i)
				} else {
					s.EmitAt(at, fn, base+i)
				}
			}
		}
		inject(0)
		s.RunUntil(time.Millisecond)
		inject(10_000)
		s.RunUntil(500 * time.Hour * 24)
		inject(20_000)
		s.Run()
		fires = append(fires, fire{s.Now(), -1})
		inject(25_000)
		s.RunUntil(s.Now() + time.Millisecond)
		s.Reset()
		inject(30_000)
		s.RunUntil(2 * time.Millisecond)
		s.Run()
		return fires
	}
	for _, seed := range []uint64{1, 7, 1905} {
		heapFires := run(KernelHeap, seed)
		wheelFires := run(KernelWheel, seed)
		if len(heapFires) != len(wheelFires) {
			t.Fatalf("seed %d: heap fired %d events, wheel %d",
				seed, len(heapFires), len(wheelFires))
		}
		for i := range heapFires {
			if heapFires[i] != wheelFires[i] {
				t.Fatalf("seed %d: divergence at event %d: heap %v wheel %v",
					seed, i, heapFires[i], wheelFires[i])
			}
		}
	}
}
