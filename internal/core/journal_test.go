package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"wormcontain/internal/rng"
)

// recJournal records the logical input stream.
type recJournal struct {
	kinds  []byte // 'o', 'r', 'f' or 'a'
	srcs   []uint32
	dsts   []uint32
	times  []int64
	alerts []Alert // indexed by position among 'a' records
}

func (j *recJournal) RecordObserve(src, dst uint32, unixMs int64) {
	j.kinds = append(j.kinds, 'o')
	j.srcs = append(j.srcs, src)
	j.dsts = append(j.dsts, dst)
	j.times = append(j.times, unixMs)
}

func (j *recJournal) RecordReinstate(src uint32) {
	j.kinds = append(j.kinds, 'r')
	j.srcs = append(j.srcs, src)
	j.dsts = append(j.dsts, 0)
	j.times = append(j.times, 0)
}

func (j *recJournal) RecordFailure(src, dst uint32, unixMs int64) {
	j.kinds = append(j.kinds, 'f')
	j.srcs = append(j.srcs, src)
	j.dsts = append(j.dsts, dst)
	j.times = append(j.times, unixMs)
}

func (j *recJournal) RecordAlert(a Alert) {
	j.kinds = append(j.kinds, 'a')
	j.srcs = append(j.srcs, a.Src)
	j.dsts = append(j.dsts, 0)
	j.times = append(j.times, a.UnixMs)
	j.alerts = append(j.alerts, a)
}

// replay applies the recorded stream to l.
func (j *recJournal) replay(l *Limiter) {
	ai := 0
	for i, k := range j.kinds {
		switch k {
		case 'o':
			l.Observe(j.srcs[i], j.dsts[i], time.UnixMilli(j.times[i]).UTC())
		case 'r':
			l.Reinstate(j.srcs[i])
		case 'a':
			l.ApplyAlert(j.alerts[ai])
			ai++
		}
	}
}

func msAligned(t time.Time) time.Time { return time.UnixMilli(t.UnixMilli()).UTC() }

func TestJournalRecordsEveryObserve(t *testing.T) {
	start := msAligned(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	l, err := NewLimiter(LimiterConfig{M: 2, Cycle: time.Hour, CheckFraction: 0.5}, start)
	if err != nil {
		t.Fatal(err)
	}
	j := &recJournal{}
	l.SetJournal(j)

	// New dst, repeat dst, over-budget deny: all three must be journaled
	// (replay needs the full input stream to reproduce totalObserved).
	l.Observe(1, 10, start)
	l.Observe(1, 10, start.Add(time.Second))
	l.Observe(1, 11, start.Add(2*time.Second))
	l.Observe(1, 12, start.Add(3*time.Second)) // deny: budget 2 exhausted
	if len(j.kinds) != 4 {
		t.Fatalf("journal has %d records, want 4 (repeats and denies included)", len(j.kinds))
	}
	// Reinstate of a removed host is journaled; no-op reinstates are not.
	if !l.Reinstate(1) {
		t.Fatal("Reinstate(1) = false, want true")
	}
	l.Reinstate(1) // no longer removed: no-op
	l.Reinstate(9) // unknown host: no-op
	if len(j.kinds) != 5 || j.kinds[4] != 'r' {
		t.Fatalf("journal kinds = %q, want 4 observes + 1 reinstate", j.kinds)
	}
}

func TestJournalReplayReproducesState(t *testing.T) {
	// Drive a randomized history with cycle rolls, denials and
	// reinstates; replaying the journal against a fresh limiter from the
	// same start must reproduce byte-identical state. Observation times
	// carry sub-millisecond noise on the live path: the journal's
	// millisecond flooring must not change any cycle-roll decision
	// because the epoch is millisecond-aligned and the cycle a
	// millisecond multiple.
	for _, seed := range []uint64{1, 7, 1905} {
		start := msAligned(time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC))
		cfg := LimiterConfig{M: 5, Cycle: 10 * time.Second, CheckFraction: 0.6}
		live, err := NewLimiter(cfg, start)
		if err != nil {
			t.Fatal(err)
		}
		j := &recJournal{}
		live.SetJournal(j)

		r := rng.NewPCG64(seed, 0)
		now := start
		for i := 0; i < 2000; i++ {
			now = now.Add(time.Duration(r.Uint64()%40_000_000) * time.Nanosecond)
			src := uint32(r.Uint64() % 8)
			dst := uint32(r.Uint64() % 12)
			live.Observe(src, dst, now)
			if r.Uint64()%50 == 0 {
				live.Reinstate(src)
			}
		}

		fresh, err := NewLimiter(cfg, start)
		if err != nil {
			t.Fatal(err)
		}
		j.replay(fresh)

		want, err := live.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: replayed state differs from live state:\nlive:   %s\nreplay: %s",
				seed, want, got)
		}
	}
}

func TestCheckpointStateCutUnderLock(t *testing.T) {
	start := msAligned(time.Unix(1000, 0))
	cfg := LimiterConfig{M: 4, Cycle: time.Hour}
	exact, err := NewLimiter(cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	sketch, err := NewSketchLimiter(SketchConfig{LimiterConfig: cfg, Bits: 128}, start)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []ContainmentLimiter{exact, sketch} {
		j := &recJournal{}
		l.SetJournal(j)
		l.Observe(1, 1, start)
		l.Observe(1, 2, start)

		var cutAt int
		data, err := l.CheckpointState(func() { cutAt = len(j.kinds) })
		if err != nil {
			t.Fatal(err)
		}
		if cutAt != 2 {
			t.Fatalf("%T: cut saw %d journal records, want 2", l, cutAt)
		}
		// The snapshot restores to exactly the cut-point state, on the
		// same backend.
		restored, err := RestoreAnyLimiter(data)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%T", restored) != fmt.Sprintf("%T", l) {
			t.Fatalf("%T restored as %T", l, restored)
		}
		if got := restored.DistinctCount(1); got != 2 {
			t.Fatalf("%T: restored DistinctCount = %d, want 2", l, got)
		}
		// CheckpointState with nil cut degrades to MarshalState.
		again, err := l.CheckpointState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%T: CheckpointState(nil) differs from prior checkpoint of unchanged state", l)
		}
	}
}
