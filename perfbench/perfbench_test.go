package main

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/experiments"
	"wormcontain/internal/sim"
	"wormcontain/internal/telemetry"
)

// smallSim is sim-internet at 1/100 scale: same densities, seconds to run.
var smallSim = simParams{
	V: 100_000, I0: 100, MaxInfected: 20_000,
	ScanRate: 10, PatchRate: 0.02,
	Interval: 10 * time.Second,
}

func testCtx(t *testing.T, seconds time.Duration, traced bool) *runCtx {
	c := &runCtx{seed: 7, seconds: seconds, work: t.TempDir()}
	if traced {
		c.tracer = newTracer()
	}
	return c
}

func TestSimChecksPass(t *testing.T) {
	c := testCtx(t, time.Millisecond, true)
	o, err := simWorkload(c, smallSim)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.tracer.SelfTimes()["simstate.fsync"]; !ok {
		t.Error("no simstate.fsync span recorded")
	}
	if len(o.problems) != 0 || o.failed != 0 {
		t.Fatalf("clean run failed its checks: %v", o.problems)
	}
	for _, name := range []string{"sim.events", "sim.ckpt_encode_s", "simstate.save_s", "addr.lookups"} {
		if o.layers[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, o.layers[name].Value)
		}
	}
}

// flipSink corrupts one byte of every checkpoint on its way to disk.
type flipSink struct{ inner sim.CheckpointSink }

func (f flipSink) Save(payload []byte) (uint64, error) {
	bad := append([]byte(nil), payload...)
	bad[len(bad)/2] ^= 0x40
	return f.inner.Save(bad)
}

func TestSimChecksCatchFlippedCheckpointByte(t *testing.T) {
	p := smallSim
	p.wrapSink = func(s sim.CheckpointSink) sim.CheckpointSink { return flipSink{s} }
	o, err := simWorkload(testCtx(t, time.Millisecond, false), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) == 0 || o.failed == 0 {
		t.Fatal("a flipped checkpoint byte passed the checks")
	}
}

// The Stop poll fires once per event, so the traced run's sim.events
// is the kernel's own event counter.
func TestTracedEventsMatchKernelCounter(t *testing.T) {
	c := testCtx(t, time.Millisecond, true)
	r, err := runSim(smallSim, c.seed, c.path("ckpt"), c.tracer, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := smallSim.config(c.seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = telemetry.NewRegistry()
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	events, ok := cfg.Metrics.Snapshot().Value("des_events_executed_total")
	if !ok {
		t.Fatal("des_events_executed_total not registered")
	}
	if float64(r.events) != events {
		t.Fatalf("sim.events %d != des_events_executed_total %v", r.events, events)
	}
}

func TestGatewayChecksPass(t *testing.T) {
	for name, p := range map[string]gwParams{"legit": gatewayLegit, "worm": gatewayWorm} {
		p.SetupTime = 50 * time.Millisecond
		o, err := gatewayWorkload(testCtx(t, 2*time.Second, true), p)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.problems) != 0 || o.failed != 0 {
			t.Errorf("%s: clean run failed its checks: %v", name, o.problems)
		}
		if o.attempted == 0 || o.layers["core.observes"].Value == 0 {
			t.Errorf("%s: no traffic measured", name)
		}
	}
}

// neverDeny lets every connection through while keeping the failure
// observer, so the backend still removes scanners it cannot stop.
type neverDeny struct{ core.ContainmentLimiter }

func (n neverDeny) Observe(src, dst uint32, t time.Time) core.Decision {
	if d := n.ContainmentLimiter.Observe(src, dst, t); d != core.Deny {
		return d
	}
	return core.Allow
}

func (n neverDeny) ObserveFailure(src, dst uint32, t time.Time) core.Decision {
	return n.ContainmentLimiter.(core.FailureObserver).ObserveFailure(src, dst, t)
}

func TestGatewayChecksCatchLimiterThatNeverDenies(t *testing.T) {
	p := gatewayWorm
	p.SetupTime = 0
	p.wrapLimiter = func(l core.ContainmentLimiter) core.ContainmentLimiter { return neverDeny{l} }
	o, err := gatewayWorkload(testCtx(t, 2*time.Second, false), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) == 0 {
		t.Fatal("a limiter that never denies passed the containment check")
	}
}

func TestGatewayChecksCatchDroppedEcho(t *testing.T) {
	p := gatewayLegit
	p.SetupTime = 0
	p.echo = func(c net.Conn) { _, _ = io.Copy(io.Discard, c) }
	o, err := gatewayWorkload(testCtx(t, time.Second, false), p)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || len(o.problems) == 0 {
		t.Fatal("an upstream that drops the echo passed the checks")
	}
}

func TestTimedLimiterKeepsFailureObserver(t *testing.T) {
	start := time.Unix(0, 0)
	cfg := core.LimiterConfig{M: 10, Cycle: time.Hour}
	sk, err := core.NewSketchLimiter(core.SketchConfig{LimiterConfig: cfg, FailureM: 4}, start)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapLimiter(sk, &limiterStats{}, nil).(core.FailureObserver); !ok {
		t.Error("wrapped sketch limiter lost core.FailureObserver")
	}
	exact, err := core.NewLimiter(cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapLimiter(exact, &limiterStats{}, nil).(core.FailureObserver); ok {
		t.Error("wrapped exact limiter gained core.FailureObserver")
	}
}

func TestPaperChecksPass(t *testing.T) {
	o, err := paperWorkload(testCtx(t, 0, true), []string{"fig3", "claims"}, experiments.Run)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) != 0 || o.attempted != 2*minUnits {
		t.Fatalf("attempted %d, problems %v", o.attempted, o.problems)
	}
	if o.layers["experiments.fig3_s"].Value <= 0 {
		t.Error("experiments.fig3_s not measured")
	}
}

func TestPaperChecksCatchBadArtifacts(t *testing.T) {
	calls := 0
	fake := func(id string, _ experiments.Options) (*experiments.Result, error) {
		calls++
		switch id {
		case "broken":
			return nil, errors.New("boom")
		case "empty":
			return &experiments.Result{ID: id}, nil
		default: // output changes from one suite to the next
			return &experiments.Result{ID: id, Notes: []string{string(rune('a' + calls))}}, nil
		}
	}
	o, err := paperWorkload(testCtx(t, 0, false), []string{"broken", "empty", "drifting"}, fake)
	if err != nil {
		t.Fatal(err)
	}
	// Broken and empty fail in every suite, drifting in all but the first.
	if want := int64(3*minUnits - 1); o.failed != want {
		t.Fatalf("failed = %d, want %d (problems %v)", o.failed, want, o.problems)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add(1, -1, "root", at(0), at(100))
	tr.Add(1, root, "a", at(10), at(40))
	tr.Add(1, root, "b", at(30), at(50)) // overlaps a
	self := tr.SelfTimes()
	if got := self["root"]; got < 0.0599 || got > 0.0601 {
		t.Errorf("root self time %v, want 0.060", got)
	}
	if self["a"] < 0.0299 || self["b"] < 0.0199 {
		t.Errorf("leaf self times %v", self)
	}
}

func TestBlockStats(t *testing.T) {
	done := []int64{3e9, 1e9, 2e9, 4e9, 5e9}
	lat := []float64{30, 10, 20, 40, 50}
	wall, p50, _ := blockStats(done, lat, 2, 5*time.Second)
	if len(wall) != 2 || wall[0] != 2 || wall[1] != 2 {
		t.Errorf("blocks %v, want [2 2]", wall)
	}
	if len(p50) != 2 || p50[0] != 15 || p50[1] != 35 {
		t.Errorf("block medians %v, want [15 35]", p50)
	}
	// Two latencies a block measure no tail: p90 falls back to the median.
	if _, _, p90s := blockStats(done, lat, 2, 5*time.Second); p90s[0] != 15 {
		t.Errorf("p90 of a 2-sample block %v, want its median 15", p90s[0])
	}
	if wall, _, _ := blockStats([]int64{1e9}, []float64{1}, 4, 2*time.Second); len(wall) != 1 || wall[0] != 8 {
		t.Errorf("short run %v, want [8]", wall)
	}
}
