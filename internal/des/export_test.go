package des

import (
	"testing"
	"time"

	"wormcontain/internal/rng"
)

// exportRecorder drives a randomized self-scheduling workload whose
// fire trace (time, arg) pins the exact delivery order.
type exportRecorder struct {
	sim   *Simulator
	src   *rng.PCG64
	trace []exportFire
	fn    ArgHandler
	limit int
}

type exportFire struct {
	at  time.Duration
	arg int
}

func newExportRecorder(sim *Simulator, seed uint64) *exportRecorder {
	r := &exportRecorder{sim: sim, src: rng.NewPCG64(seed, 0xeecc), limit: 4000}
	r.fn = r.fire
	return r
}

// fire records the event and reschedules up to two follow-ups at
// random offsets (including zero: same-instant tie-breaks).
func (r *exportRecorder) fire(arg int) {
	r.trace = append(r.trace, exportFire{at: r.sim.Now(), arg: arg})
	if len(r.trace) >= r.limit {
		return
	}
	for k := 0; k < int(rng.Uint64n(r.src, 3)); k++ {
		delay := time.Duration(rng.Uint64n(r.src, 5_000_000))
		r.sim.Emit(delay, r.fn, arg*10+k)
	}
}

// seedExportWorkload loads an initial event population spanning due,
// wheel and (on fine ticks) overflow placements, including timestamp
// collisions.
func seedExportWorkload(sim *Simulator, r *exportRecorder, n int) {
	src := rng.NewPCG64(7, 0xabcd)
	batch := make([]BatchEvent, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Uint64n(src, 2_000_000))
		if i%17 == 0 {
			at = time.Duration(rng.Uint64n(src, 3)) * 250_000 // forced collisions
		}
		if i%29 == 0 {
			at = time.Duration(rng.Uint64n(src, uint64(time.Hour))) // far future
		}
		if i%53 == 0 {
			// Past the 2^48 ns (~78 h) horizon of a 1 ns tick: overflow
			// heap resident on wheel-fine.
			at = 100*time.Hour + time.Duration(rng.Uint64n(src, uint64(time.Hour)))
		}
		batch = append(batch, BatchEvent{At: at, Fn: r.fn, Arg: i})
	}
	sim.ScheduleBatch(batch)
}

func exportKernelConfigs() map[string]Config {
	return map[string]Config{
		"heap":       {Kernel: KernelHeap},
		"wheel":      {Kernel: KernelWheel},
		"wheel-fine": {Kernel: KernelWheel, WheelTick: 1},
	}
}

// TestExportRestoreKernelEquivalence checkpoints a randomized workload
// at several cut points and checks that a restored simulator — on the
// same backend or any other — finishes with the byte-identical fire
// trace of the uninterrupted run.
func TestExportRestoreKernelEquivalence(t *testing.T) {
	for srcName, srcCfg := range exportKernelConfigs() {
		// Uninterrupted reference on the source backend.
		ref := NewWithConfig(srcCfg)
		refRec := newExportRecorder(ref, 1905)
		seedExportWorkload(ref, refRec, 300)
		ref.Run()

		for _, cut := range []int{0, 1, 37, 500, 2000} {
			// Partial run to the cut, then export.
			part := NewWithConfig(srcCfg)
			partRec := newExportRecorder(part, 1905)
			seedExportWorkload(part, partRec, 300)
			for i := 0; i < cut && part.Step(); i++ {
			}
			pending := part.ExportPending()
			if len(pending) != part.Pending() {
				t.Fatalf("%s cut %d: exported %d of %d pending events",
					srcName, cut, len(pending), part.Pending())
			}
			for i := 1; i < len(pending); i++ {
				if pending[i].At < pending[i-1].At {
					t.Fatalf("%s cut %d: export out of order at %d", srcName, cut, i)
				}
			}

			for dstName, dstCfg := range exportKernelConfigs() {
				dst := NewWithConfig(dstCfg)
				dstRec := newExportRecorder(dst, 1905)
				// The restored recorder must resume the partial trace and
				// RNG position, exactly as a real checkpoint would restore
				// them.
				dstRec.trace = append(dstRec.trace[:0], partRec.trace...)
				dstRec.src.SetState(partRec.src.State())
				batch := make([]BatchEvent, len(pending))
				for i, e := range pending {
					batch[i] = BatchEvent{At: e.At, Fn: dstRec.fn, Arg: e.Arg}
				}
				dst.Restore(part.Now(), part.Fired(), batch)
				if got, want := dst.Now(), part.Now(); got != want {
					t.Fatalf("%s->%s cut %d: restored clock %v != %v", srcName, dstName, cut, got, want)
				}
				if got, want := dst.Fired(), part.Fired(); got != want {
					t.Fatalf("%s->%s cut %d: restored fired %d != %d", srcName, dstName, cut, got, want)
				}
				dst.Run()
				if len(dstRec.trace) != len(refRec.trace) {
					t.Fatalf("%s->%s cut %d: trace length %d != %d",
						srcName, dstName, cut, len(dstRec.trace), len(refRec.trace))
				}
				for i := range dstRec.trace {
					if dstRec.trace[i] != refRec.trace[i] {
						t.Fatalf("%s->%s cut %d: trace[%d] = %+v, want %+v",
							srcName, dstName, cut, i, dstRec.trace[i], refRec.trace[i])
					}
				}
			}
		}
	}
}

// TestNextEventAtAndAdvanceTo pins the Step-loop support surface:
// NextEventAt matches the fire time Step delivers, Stopped reflects
// in-handler Stop, and AdvanceTo lands the clock like RunUntil without
// touching pending events.
func TestNextEventAtAndAdvanceTo(t *testing.T) {
	for name, cfg := range exportKernelConfigs() {
		sim := NewWithConfig(cfg)
		var fired []int
		fn := func(arg int) {
			fired = append(fired, arg)
			if arg == 2 {
				sim.Stop()
			}
		}
		sim.Emit(time.Millisecond, fn, 1)
		sim.Emit(2*time.Millisecond, fn, 2)
		sim.Emit(time.Hour, fn, 3)

		at, ok := sim.NextEventAt()
		if !ok || at != time.Millisecond {
			t.Fatalf("%s: NextEventAt = %v %v", name, at, ok)
		}
		sim.Run()
		if !sim.Stopped() {
			t.Fatalf("%s: Stopped() false after in-handler Stop", name)
		}
		if len(fired) != 2 {
			t.Fatalf("%s: fired %v, want [1 2]", name, fired)
		}
		sim.AdvanceTo(time.Minute)
		if sim.Now() != time.Minute {
			t.Fatalf("%s: AdvanceTo: now = %v", name, sim.Now())
		}
		sim.AdvanceTo(time.Second) // backwards: no-op
		if sim.Now() != time.Minute {
			t.Fatalf("%s: AdvanceTo moved backwards to %v", name, sim.Now())
		}
		if got := sim.Pending(); got != 1 {
			t.Fatalf("%s: pending = %d after AdvanceTo, want 1", name, got)
		}
		// The far event still fires in order afterwards.
		sim.Run()
		if len(fired) != 3 || fired[2] != 3 {
			t.Fatalf("%s: final trace %v", name, fired)
		}
	}
}
