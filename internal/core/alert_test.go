package core

import (
	"bytes"
	"testing"
	"time"

	"wormcontain/internal/rng"
)

func alertTestLimiter(t *testing.T, start time.Time) *Limiter {
	t.Helper()
	l, err := NewLimiter(LimiterConfig{M: 3, Cycle: time.Hour, CheckFraction: 0.5}, start)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestApplyAlertRemovesAndDedups(t *testing.T) {
	start := msAligned(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	for _, backend := range []string{"exact", "sketch"} {
		t.Run(backend, func(t *testing.T) {
			var l ContainmentLimiter
			if backend == "exact" {
				l = alertTestLimiter(t, start)
			} else {
				sk, err := NewSketchLimiter(SketchConfig{
					LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour},
					Bits:          128,
				}, start)
				if err != nil {
					t.Fatal(err)
				}
				l = sk
			}
			a := Alert{Origin: 0xabcd, Seq: 1, Src: 42, UnixMs: start.UnixMilli()}
			if !l.ApplyAlert(a) {
				t.Fatal("first ApplyAlert = false, want true")
			}
			if !l.Removed(42) {
				t.Fatal("host 42 not removed after alert")
			}
			if l.ApplyAlert(a) {
				t.Fatal("duplicate ApplyAlert = true, want false")
			}
			if got := l.Alerts(); len(got) != 1 || got[0] != a {
				t.Fatalf("Alerts() = %+v, want [%+v]", got, a)
			}
			if got := l.Observe(42, 7, start.Add(time.Second)); got != Deny {
				t.Fatalf("Observe on alert-removed host = %v, want Deny", got)
			}
			s := l.Snapshot()
			if s.TotalAlerts != 1 || s.AlertRemovals != 1 {
				t.Fatalf("Stats alerts = %d/%d, want 1/1", s.TotalAlerts, s.AlertRemovals)
			}
			if s.TotalRemovals != 0 {
				t.Fatalf("TotalRemovals = %d, want 0 (alert removals are accounted separately)", s.TotalRemovals)
			}
		})
	}
}

func TestApplyAlertOnAlreadyRemovedHost(t *testing.T) {
	start := msAligned(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	l := alertTestLimiter(t, start)
	// Exhaust the budget so the host is removed locally first.
	for d := uint32(0); d < 4; d++ {
		l.Observe(9, d, start)
	}
	if !l.Removed(9) {
		t.Fatal("host 9 should be removed by budget")
	}
	if !l.ApplyAlert(Alert{Origin: 1, Seq: 1, Src: 9, UnixMs: start.UnixMilli()}) {
		t.Fatal("alert on already-removed host should still be fresh")
	}
	s := l.Snapshot()
	if s.TotalAlerts != 1 || s.AlertRemovals != 0 {
		t.Fatalf("alerts = %d, alert removals = %d; want 1, 0 (host was already removed)",
			s.TotalAlerts, s.AlertRemovals)
	}
}

func TestAlertsSurviveCycleRollButRemovalDoesNot(t *testing.T) {
	start := msAligned(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	l := alertTestLimiter(t, start)
	a := Alert{Origin: 5, Seq: 1, Src: 42, UnixMs: start.UnixMilli()}
	if !l.ApplyAlert(a) {
		t.Fatal("fresh alert rejected")
	}
	// Next cycle: the host re-enters with a fresh counter (paper step 4)...
	if got := l.Observe(42, 1, start.Add(2*time.Hour)); got != Allow {
		t.Fatalf("post-roll Observe = %v, want Allow", got)
	}
	// ...but the ledger still remembers the alert, so stale gossip
	// cannot re-remove the host.
	if l.ApplyAlert(a) {
		t.Fatal("stale alert re-applied after cycle roll")
	}
	if len(l.Alerts()) != 1 {
		t.Fatalf("Alerts() = %d entries, want 1", len(l.Alerts()))
	}
}

func TestAlertsCanonicalOrderAndSnapshotRoundTrip(t *testing.T) {
	start := msAligned(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	alerts := []Alert{
		{Origin: 2, Seq: 1, Src: 10, UnixMs: start.UnixMilli()},
		{Origin: 1, Seq: 2, Src: 11, UnixMs: start.UnixMilli()},
		{Origin: 1, Seq: 1, Src: 12, UnixMs: start.UnixMilli()},
		{Origin: 2, Seq: 2, Src: 13, UnixMs: start.UnixMilli()},
	}
	// Two peers hear the same alerts along different gossip paths.
	fwd, rev := alertTestLimiter(t, start), alertTestLimiter(t, start)
	for _, a := range alerts {
		fwd.ApplyAlert(a)
	}
	for i := len(alerts) - 1; i >= 0; i-- {
		rev.ApplyAlert(alerts[i])
	}
	fb, err := fwd.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := rev.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, rb) {
		t.Fatalf("application order leaked into the serialized state:\n%s\n%s", fb, rb)
	}

	restored, err := RestoreLimiter(fb)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Alerts(); len(got) != len(alerts) {
		t.Fatalf("restored %d alerts, want %d", len(got), len(alerts))
	}
	for _, a := range alerts {
		if restored.ApplyAlert(a) {
			t.Fatalf("restored limiter re-applied alert %+v", a)
		}
		if !restored.Removed(a.Src) {
			t.Fatalf("restored limiter refunded removal of host %d", a.Src)
		}
	}
	rs, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rs, fb) {
		t.Fatal("restore → marshal is not a fixed point with alerts present")
	}
}

func TestSketchAlertSnapshotRoundTrip(t *testing.T) {
	start := msAligned(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	sk, err := NewSketchLimiter(SketchConfig{
		LimiterConfig: LimiterConfig{M: 100, Cycle: time.Hour},
		Bits:          128,
	}, start)
	if err != nil {
		t.Fatal(err)
	}
	sk.Observe(7, 1, start)
	sk.ApplyAlert(Alert{Origin: 3, Seq: 1, Src: 99, UnixMs: start.UnixMilli()})
	data, err := sk.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSketchLimiter(data)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Removed(99) {
		t.Fatal("restored sketch refunded the alert removal")
	}
	if restored.ApplyAlert(Alert{Origin: 3, Seq: 1, Src: 99, UnixMs: start.UnixMilli()}) {
		t.Fatal("restored sketch re-applied a known alert")
	}
	rs, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rs, data) {
		t.Fatal("sketch restore → marshal is not a fixed point with alerts present")
	}
}

// TestJournalReplayReproducesAlertState mirrors
// TestJournalReplayReproducesState with alerts mixed into the input
// stream: replaying the journal must rebuild the immunization ledger
// byte-for-byte.
func TestJournalReplayReproducesAlertState(t *testing.T) {
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
		seqs := map[uint64]uint64{}
		for i := 0; i < 2000; i++ {
			now = now.Add(time.Duration(r.Uint64()%40_000_000) * time.Nanosecond)
			src := uint32(r.Uint64() % 8)
			dst := uint32(r.Uint64() % 12)
			live.Observe(src, dst, now)
			switch r.Uint64() % 40 {
			case 0:
				live.Reinstate(src)
			case 1:
				origin := r.Uint64()%3 + 1
				seqs[origin]++
				live.ApplyAlert(Alert{
					Origin: origin, Seq: seqs[origin],
					Src: src, UnixMs: now.UnixMilli(),
				})
			case 2:
				// Duplicate of an already-applied alert: must not journal.
				if origin := r.Uint64()%3 + 1; seqs[origin] > 0 {
					live.ApplyAlert(Alert{
						Origin: origin, Seq: 1 + r.Uint64()%seqs[origin],
						Src: src, UnixMs: now.UnixMilli(),
					})
				}
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
