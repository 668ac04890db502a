// Package sim implements the paper's worm propagation simulator
// (Section V): V susceptible hosts at random IPv4 addresses, I0 initial
// infections, infected hosts scanning random addresses at a configurable
// rate, a pluggable defense deciding the fate of each scan, and
// generation-labelled infections ("it is marked a generation number that
// equals to its source's generation number plus one").
//
// Two execution engines are provided:
//
//   - Run: a full discrete-event simulation over virtual time, producing
//     the sample paths of Figs. 9–10 and driving the defense-comparison
//     ablations (time matters for rate throttles and quarantines).
//
//   - FastTotals: a generational Monte-Carlo engine for the total-
//     infection distribution under the M-limit (Figs. 7, 8, 11, 12).
//     For uniform scanning it is statistically identical to the full
//     simulation (see fast.go) and orders of magnitude faster, making
//     the paper's 1000-replication experiments instantaneous.
package sim

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/rng"
	"wormcontain/internal/stats"
	"wormcontain/internal/telemetry"
	"wormcontain/internal/topo"
)

// Status is a vulnerable host's epidemiological state.
type Status uint8

const (
	// Susceptible hosts can be infected by a successful scan.
	Susceptible Status = iota + 1
	// Infected hosts actively scan.
	Infected
	// Removed hosts have been taken out by the defense and neither scan
	// nor accept infection ("a host is removed if it has sent M scans").
	Removed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Susceptible:
		return "susceptible"
	case Infected:
		return "infected"
	case Removed:
		return "removed"
	default:
		return "Status(?)"
	}
}

// Releaser is an optional defense capability: defenses whose blocks
// expire (dynamic quarantine) report when a blocked host is released, so
// the simulator can resume its scanning instead of retiring it.
type Releaser interface {
	// ReleaseAt returns the virtual time at which src's current block
	// expires. ok is false when the host is not blocked or the block is
	// permanent.
	ReleaseAt(src addr.IP, t time.Duration) (time.Duration, bool)
}

// Config parameterizes one simulation run.
type Config struct {
	// V is the number of vulnerable hosts.
	V int
	// I0 is the number of initially infected hosts (indices 0..I0-1).
	I0 int
	// ScanRate is each infected host's scan rate in scans/second;
	// inter-scan times are exponential (Poisson scanning process).
	ScanRate float64
	// Scanner picks targets; nil means uniform scanning. Stateless
	// scanners (Uniform, SubnetPreference) can be shared; for stateful
	// strategies set ScannerFactory instead.
	Scanner addr.Scanner
	// ScannerFactory, when non-nil, supplies a fresh scanner per
	// infected host (needed for stateful strategies such as hit lists).
	ScannerFactory func() addr.Scanner
	// Topology, when non-nil, switches target selection from address-
	// space scanning to graph-neighbor scanning: host i's scans each
	// probe a uniform random neighbor of vertex i in the graph
	// (resolved to that host's address, so defenses still see real
	// src/dst pairs). Requires Topology.N() == V and excludes Scanner/
	// ScannerFactory. The graph is read-only during the run and may be
	// shared across concurrent replications.
	Topology *topo.Graph
	// EdgeScanRate, in topology mode, scales each host's scan rate by
	// its degree so every incident edge is probed at rate ScanRate.
	// This is the contact-process parameterization of Draief/Ganesh/
	// Massoulié: with per-edge rate β = ScanRate and recovery rate
	// δ = PatchRate, the epidemic threshold sits at β/δ·λ₁ = 1.
	EdgeScanRate bool
	// Defense decides each scan's fate; nil means no defense.
	Defense defense.Defense
	// Horizon stops the simulation at this virtual time; 0 means run
	// until no events remain (every infected host retired).
	Horizon time.Duration
	// MaxInfected stops the run early once this many hosts have ever
	// been infected (0 = no cap). Used to bound uncontained baselines.
	MaxInfected int
	// MaxEvents bounds total event count as a runaway guard
	// (0 = default of 50 million).
	MaxEvents uint64
	// ClusterPrefix, when non-nil, places the vulnerable population
	// inside one prefix (enterprise scenario) instead of the full space.
	ClusterPrefix *addr.Prefix
	// Background, when non-nil, adds legitimate traffic through the
	// same defense and reports its fate in Result.Background. Requires
	// Horizon > 0.
	Background *BackgroundConfig
	// DutyCycle, when non-nil, makes the worm stealthy: infected hosts
	// alternate between an active scanning phase and a dormant phase
	// ("stealth worms that may turn themselves off at times"). Rate
	// detectors lose the signal during dormancy; the M-limit does not
	// care, because dormancy never refunds scan budget.
	DutyCycle *DutyCycleConfig
	// PatchRate, when > 0, removes each infected host independently at
	// this rate (events/second): the stochastic counterpart of the
	// two-factor model's human countermeasure dR/dt = γ·I (patching and
	// cleaning infected machines).
	PatchRate float64
	// ImmunizeRate, when > 0, removes each susceptible host
	// independently at this rate: the counterpart of the two-factor
	// model's dQ/dt immunization of not-yet-infected machines.
	ImmunizeRate float64
	// ScanObserver, when non-nil, is invoked for every scan the defense
	// lets through (at delivery time). Detection experiments tap the
	// exact monitor-visible scan stream here instead of reconstructing
	// it from aggregate series.
	ScanObserver func(src, dst addr.IP, t time.Duration)
	// Metrics, when non-nil, wires the run into a telemetry registry:
	// the DES kernel's event counter and queue-depth gauge plus
	// scan-fate and infection counters. Counters are safe to share
	// across concurrent replications, where they aggregate. Nil (the
	// default) adds no instrumentation at all.
	Metrics *telemetry.Registry
	// Kernel selects the event-kernel backend: des.KernelHeap (the
	// zero value, the reference binary heap) or des.KernelWheel (the
	// hierarchical timing wheel, O(1) per event — the backend for
	// internet-scale populations). Event delivery is (time, seq)-
	// deterministic on both, so results are byte-identical either way.
	Kernel des.Kind
	// Seed and Stream select the deterministic random stream.
	Seed, Stream uint64
	// Invariants, when non-nil, audits the run as it executes: monotone
	// event clock, no scan executed by a removed host, infected+removed
	// never exceeding V, and (at every checkpoint cut and at the end of
	// the run) counters consistent with the packed bitsets. Violations
	// are collected on the checker and surfaced as an error when the
	// run finishes. The checker consumes no randomness and schedules no
	// events, so enabling it never changes a trajectory.
	Invariants *InvariantChecker
	// RecordPaths enables the time-series sample paths (Figs. 9–10);
	// leave off for Monte-Carlo throughput.
	RecordPaths bool
	// RecordTree enables infection-lineage recording (Result.Tree), the
	// parent→child structure of Fig. 1.
	RecordTree bool
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	switch {
	case c.V < 1:
		return fmt.Errorf("sim: V = %d, must be >= 1", c.V)
	case c.I0 < 1 || c.I0 > c.V:
		return fmt.Errorf("sim: I0 = %d, must be in [1, V]", c.I0)
	case c.ScanRate <= 0:
		return fmt.Errorf("sim: scan rate %v, must be > 0", c.ScanRate)
	case c.Horizon < 0:
		return fmt.Errorf("sim: horizon %v, must be >= 0", c.Horizon)
	case c.MaxInfected < 0:
		return fmt.Errorf("sim: max infected %v, must be >= 0", c.MaxInfected)
	case c.PatchRate < 0:
		return fmt.Errorf("sim: patch rate %v, must be >= 0", c.PatchRate)
	case c.ImmunizeRate < 0:
		return fmt.Errorf("sim: immunize rate %v, must be >= 0", c.ImmunizeRate)
	}
	if c.DutyCycle != nil {
		if err := c.DutyCycle.validate(); err != nil {
			return err
		}
	}
	if c.Background != nil {
		if err := c.Background.validate(); err != nil {
			return err
		}
		if c.Horizon <= 0 {
			return fmt.Errorf("sim: background traffic requires a positive horizon")
		}
	}
	if c.Topology != nil {
		if got := c.Topology.N(); got != c.V {
			return fmt.Errorf("sim: topology has %d vertices, population has %d", got, c.V)
		}
		if c.Scanner != nil || c.ScannerFactory != nil {
			return fmt.Errorf("sim: topology mode excludes Scanner/ScannerFactory")
		}
	} else if c.EdgeScanRate {
		return fmt.Errorf("sim: EdgeScanRate requires a Topology")
	}
	if c.Scanner == nil && c.ScannerFactory == nil {
		c.Scanner = addr.Uniform{}
	}
	if c.Defense == nil {
		c.Defense = defense.Null{}
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 50_000_000
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	// TotalInfected is the cumulative number of hosts ever infected,
	// including the I0 seeds — the paper's quantity I.
	TotalInfected int
	// TotalRemoved is the number of infected hosts retired by the
	// defense by the end of the run.
	TotalRemoved int
	// PeakActive is the maximum simultaneous count of actively scanning
	// infected hosts.
	PeakActive int
	// EndTime is the virtual time the run finished.
	EndTime time.Duration
	// Extinct reports that the outbreak ended with no active infected
	// hosts (the worm died).
	Extinct bool
	// Truncated reports the run stopped on MaxInfected or MaxEvents
	// rather than completing naturally.
	Truncated bool
	// Generations[g] is the number of hosts infected in generation g
	// (generation 0 = the seeds), the view of Figs. 1–2.
	Generations []int
	// TotalScans counts scan attempts; Delivered, Delayed and Dropped
	// split them by defense verdict.
	TotalScans, Delivered, Delayed, Dropped uint64
	// Patched counts infected hosts removed by the patching process;
	// Immunized counts susceptible hosts removed before infection.
	Patched, Immunized int
	// InfectedSeries, RemovedSeries and ActiveSeries are the sample
	// paths of Figs. 9–10 (nil unless Config.RecordPaths).
	InfectedSeries, RemovedSeries, ActiveSeries *stats.TimeSeries
	// Background reports the fate of legitimate traffic (zero value
	// unless Config.Background was set).
	Background BackgroundStats
	// Tree holds one InfectionEdge per non-seed infection (nil unless
	// Config.RecordTree): the lineage structure of Fig. 1. Seeds have
	// no edge; a host's generation is its depth from a seed.
	Tree []InfectionEdge
}

// InfectionEdge records that Parent infected Child at time At.
type InfectionEdge struct {
	Parent, Child int
	At            time.Duration
}

// engine carries one run's mutable state.
type engine struct {
	cfg        Config
	sim        *des.Simulator
	src        *rng.PCG64
	pop        *addr.Population
	state      hostState
	gen        []int32
	infectedAt []time.Duration // per-host infection instant (duty-cycle phase anchor)
	scanner    []addr.Scanner  // per-host when factory set; else shared at [0]
	res        *Result
	metrics    *simMetrics

	// Batched admission: while batching is set (outbreak seeding and
	// countermeasure start-up), scan/patch/immunize events accumulate
	// in batch and are admitted through one des.ScheduleBatch call —
	// sequence numbers are assigned in append order, so the fire order
	// is byte-identical to individual EmitAt calls.
	batching bool
	batch    []des.BatchEvent

	// Bound method values, created once per engine (not per event):
	// scheduling a scan, patch or immunization passes one of these plus
	// a host index through des.EmitAt, so no per-event closure is
	// allocated.
	scanFn     des.ArgHandler // scanAttempt
	patchFn    des.ArgHandler // patchFire
	immunizeFn des.ArgHandler // immunizeFire
	deliverFn  des.ArgHandler // deliverFire

	// In-flight delayed deliveries (the throttle's Delay verdict): the
	// event carries a slot index into pendDeliv instead of capturing
	// (src, dst, parent) in a closure, so delayed deliveries are
	// argument-form events too — allocation-free and exportable by
	// checkpoints. freeDeliv recycles fired slots;
	// its order is part of the simulation state (it decides which slot
	// the next delay occupies), so checkpoints capture both.
	pendDeliv []pendingDelivery
	freeDeliv []int32
}

// pendingDelivery is one delayed scan in flight between the defense's
// Delay verdict and its deliverFire event.
type pendingDelivery struct {
	src, dst addr.IP
	parent   int32
}

// Scratch is the reusable arena for RunWith: the event-kernel queues,
// the population's address storage, and the per-host state slices, all
// retained across runs so a replication loop allocates only the Result
// it hands back. One Scratch serves one goroutine at a time; pair it
// with parallel.ScratchPool to run replications across workers.
type Scratch struct {
	eng engine
}

// NewScratch returns an empty arena. The first run sizes it; later runs
// with the same or smaller configuration reuse every buffer.
func NewScratch() *Scratch {
	s := &Scratch{}
	s.init()
	return s
}

// init wires the arena's engine: the event kernel and the bound method
// values. It must run against the Scratch's own embedded engine — the
// method values capture that exact pointer — which is why Scratch
// values are initialized in place, never copied.
func (s *Scratch) init() {
	e := &s.eng
	e.sim = des.New()
	e.scanFn = e.scanAttempt
	e.patchFn = e.patchFire
	e.immunizeFn = e.immunizeFire
	e.deliverFn = e.deliverFire
}

// grow returns s resized to n zeroed elements, reallocating only when
// capacity is insufficient.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// simMetrics mirrors the Result scan-fate counters into a telemetry
// registry so a live scrape can watch an in-flight run (or a whole
// Monte-Carlo sweep, when replications share the registry).
type simMetrics struct {
	delivered  *telemetry.Counter
	delayed    *telemetry.Counter
	dropped    *telemetry.Counter
	infections *telemetry.Counter
}

// newSimMetrics registers the simulator's families into reg.
func newSimMetrics(reg *telemetry.Registry) *simMetrics {
	scans := reg.CounterVec("sim_scans_total",
		"Worm scans by defense verdict.", "fate")
	return &simMetrics{
		delivered: scans.With("delivered"),
		delayed:   scans.With("delayed"),
		dropped:   scans.With("dropped"),
		infections: reg.Counter("sim_infections_total",
			"Hosts infected, including the I0 seeds."),
	}
}

// Run executes one full discrete-event simulation.
func Run(cfg Config) (*Result, error) {
	return RunWith(cfg, nil)
}

// RunWith is Run drawing its working memory — event-kernel queues,
// population storage, per-host state — from scratch. A nil scratch
// allocates a fresh arena (identical to Run). Results are bit-identical
// with and without arena reuse: every buffer is fully reset before use
// and the RNG draw sequence does not depend on the arena's history.
func RunWith(cfg Config, scratch *Scratch) (*Result, error) {
	res := &Result{}
	if err := RunInto(cfg, scratch, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is RunWith writing into a caller-owned Result, reusing its
// Generations and Tree capacity, so a replication loop that recycles
// both the Scratch and the Result runs with zero steady-state
// allocation — the regime the SimRun10M benchmark gates. All other
// fields of res are overwritten.
func RunInto(cfg Config, scratch *Scratch, res *Result) error {
	e, background, err := setupRun(cfg, scratch, res)
	if err != nil {
		return err
	}
	if e.cfg.Horizon > 0 {
		e.sim.RunUntil(e.cfg.Horizon)
	} else {
		e.sim.Run()
	}
	return e.finishRun(background)
}

// setupRun validates the configuration and prepares the engine for
// event execution: arena wiring, RNG seeding, population draw, kernel
// configuration, host state, outbreak seeding and countermeasure
// start-up — everything RunInto does before the event loop, shared with
// the checkpointing runner. On success the engine holds res and is
// ready to fire events.
func setupRun(cfg Config, scratch *Scratch, res *Result) (*engine, *backgroundDriver, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if scratch == nil {
		scratch = NewScratch()
	} else if scratch.eng.sim == nil {
		scratch.init() // zero-value Scratch: wire it in place
	}
	e := &scratch.eng
	if e.src == nil {
		e.src = rng.NewPCG64(cfg.Seed, cfg.Stream)
	} else {
		e.src.Reseed(cfg.Seed, cfg.Stream)
	}
	src := e.src
	if e.pop == nil {
		pop, err := addr.NewPopulation(cfg.V, cfg.ClusterPrefix, src)
		if err != nil {
			return nil, nil, err
		}
		e.pop = pop
	} else if err := e.pop.Repopulate(cfg.V, cfg.ClusterPrefix, src); err != nil {
		return nil, nil, err
	}
	e.cfg = cfg
	e.sim.Reset()
	e.configureKernel()
	e.state.reset(cfg.V)
	e.gen = grow(e.gen, cfg.V)
	if cfg.DutyCycle != nil {
		// The per-host infection instant anchors dormancy phases; no
		// other path reads it, so the 8-bytes-per-host slab is only
		// paid in stealth-worm scenarios.
		e.infectedAt = grow(e.infectedAt, cfg.V)
	} else {
		e.infectedAt = e.infectedAt[:0]
	}
	*res = Result{Generations: res.Generations[:0], Tree: res.Tree[:0]}
	e.res = res
	e.metrics = nil
	if cfg.Metrics != nil {
		e.sim.Instrument(cfg.Metrics)
		e.metrics = newSimMetrics(cfg.Metrics)
	} else {
		e.sim.Instrument(nil) // drop instruments a previous run installed
	}
	if cfg.RecordPaths {
		e.res.InfectedSeries = stats.NewTimeSeries()
		e.res.RemovedSeries = stats.NewTimeSeries()
		e.res.ActiveSeries = stats.NewTimeSeries()
	}
	if cfg.ScannerFactory == nil {
		e.scanner = grow(e.scanner, 1)
		e.scanner[0] = cfg.Scanner
	} else {
		e.scanner = grow(e.scanner, cfg.V)
	}
	e.pendDeliv = e.pendDeliv[:0]
	e.freeDeliv = e.freeDeliv[:0]

	// Seed the outbreak (hosts 0..I0-1 are generation 0) and the
	// immunization process with batched admission: the events are
	// staged in order and admitted in one ScheduleBatch pass instead of
	// I0+V scheduler calls.
	e.batch = e.batch[:0]
	e.batching = true
	for i := 0; i < cfg.I0; i++ {
		e.infect(i, 0)
	}
	e.startCountermeasures()
	e.batching = false
	e.sim.ScheduleBatch(e.batch)

	var background *backgroundDriver
	if cfg.Background != nil {
		background = newBackgroundDriver(
			e.sim, cfg.Defense, *cfg.Background, cfg.Horizon, cfg.Seed, cfg.Stream)
	}
	return e, background, nil
}

// finishRun records the run's terminal observables and detaches the
// caller's Result, then surfaces any invariant violations the run
// accumulated. Shared by RunInto and the checkpointing runner.
func (e *engine) finishRun(background *backgroundDriver) error {
	e.res.EndTime = e.sim.Now()
	e.res.Extinct = e.state.active == 0
	if background != nil {
		e.res.Background = background.finalize()
	}
	var err error
	if ic := e.cfg.Invariants; ic != nil {
		ic.checkCut(e)
		err = ic.Err()
	}
	e.res = nil // never retain the caller's Result across runs
	return err
}

// configureKernel applies the run's kernel selection, deriving the
// wheel granularity from the workload: with up to V hosts scanning at
// ScanRate, the dominant inter-event gap is 1/(ScanRate·V) seconds, and
// a tick of a quarter of that keeps level-0 buckets at O(1) events.
// The tick only affects constants — delivery order is exact at any
// granularity.
func (e *engine) configureKernel() {
	kcfg := des.Config{Kernel: e.cfg.Kernel}
	if e.cfg.Kernel == des.KernelWheel {
		gap := float64(time.Second) / (e.cfg.ScanRate * float64(e.cfg.V) * 4)
		switch {
		case gap < 1:
			kcfg.WheelTick = 1
		case gap > float64(des.DefaultWheelTick):
			kcfg.WheelTick = des.DefaultWheelTick
		default:
			kcfg.WheelTick = time.Duration(gap)
		}
	}
	e.sim.Configure(kcfg)
}

// emitAt schedules fn(arg) at absolute time at — staged into the
// admission batch during seeding, directly into the kernel afterwards.
func (e *engine) emitAt(at time.Duration, fn des.ArgHandler, arg int) {
	if e.batching {
		e.batch = append(e.batch, des.BatchEvent{At: at, Fn: fn, Arg: arg})
		return
	}
	e.sim.EmitAt(at, fn, arg)
}

// scannerFor returns the scanner used by host i.
func (e *engine) scannerFor(i int) addr.Scanner {
	if e.cfg.ScannerFactory == nil {
		return e.scanner[0]
	}
	if e.scanner[i] == nil {
		e.scanner[i] = e.cfg.ScannerFactory()
	}
	return e.scanner[i]
}

// infect transitions host i to Infected in generation g and starts its
// scanning process.
func (e *engine) infect(i, g int) {
	e.state.markInfected(i)
	e.gen[i] = int32(g)
	if len(e.infectedAt) > 0 {
		e.infectedAt[i] = e.sim.Now()
	}
	for len(e.res.Generations) <= g {
		e.res.Generations = append(e.res.Generations, 0)
	}
	e.res.Generations[g]++
	e.res.TotalInfected++
	if m := e.metrics; m != nil {
		m.infections.Inc()
	}
	if e.state.active > e.res.PeakActive {
		e.res.PeakActive = e.state.active
	}
	e.recordPaths()
	if e.cfg.MaxInfected > 0 && e.res.TotalInfected >= e.cfg.MaxInfected {
		e.res.Truncated = true
		e.sim.Stop()
		return
	}
	e.schedulePatch(i)
	e.scheduleNextScan(i)
}

// startCountermeasures seeds the immunization process: each susceptible
// host draws an exponential immunization time; hosts infected before it
// fires simply ignore it (state check at fire time).
func (e *engine) startCountermeasures() {
	if e.cfg.ImmunizeRate <= 0 {
		return
	}
	now := e.sim.Now()
	for i := 0; i < e.cfg.V; i++ {
		if !e.state.isSusceptible(i) {
			continue
		}
		delay := time.Duration(rng.Exponential(e.src, e.cfg.ImmunizeRate) * float64(time.Second))
		e.emitAt(now+delay, e.immunizeFn, i)
	}
}

// immunizeFire is the immunization event: a still-susceptible host is
// removed before the worm reaches it.
func (e *engine) immunizeFire(i int) {
	if !e.state.isSusceptible(i) {
		return
	}
	e.state.markImmunized(i)
	e.res.Immunized++
}

// schedulePatch books host i's patch (clean-up) event.
func (e *engine) schedulePatch(i int) {
	if e.cfg.PatchRate <= 0 {
		return
	}
	delay := time.Duration(rng.Exponential(e.src, e.cfg.PatchRate) * float64(time.Second))
	e.emitAt(e.sim.Now()+delay, e.patchFn, i)
}

// patchFire is the patch (clean-up) event: a still-infected host is
// cleaned and retired.
func (e *engine) patchFire(i int) {
	if !e.state.isInfected(i) {
		return
	}
	e.res.Patched++
	e.remove(i)
}

// remove retires an infected host (defense removal).
func (e *engine) remove(i int) {
	if !e.state.isInfected(i) {
		return
	}
	e.state.markRemoved(i)
	e.res.TotalRemoved++
	e.recordPaths()
}

// recordPaths appends the current counters to the sample-path series.
func (e *engine) recordPaths() {
	if e.res.InfectedSeries == nil {
		return
	}
	now := e.sim.Now()
	e.res.InfectedSeries.Record(now, float64(e.res.TotalInfected))
	e.res.RemovedSeries.Record(now, float64(e.res.TotalRemoved))
	e.res.ActiveSeries.Record(now, float64(e.state.active))
}

// scanRateFor returns host i's scan rate: the configured rate, scaled
// by i's graph degree under the contact-process parameterization. A
// zero return marks a host that can never scan (isolated vertex).
func (e *engine) scanRateFor(i int) float64 {
	g := e.cfg.Topology
	if g == nil {
		return e.cfg.ScanRate
	}
	deg := g.Degree(i)
	if deg == 0 {
		return 0
	}
	if e.cfg.EdgeScanRate {
		return e.cfg.ScanRate * float64(deg)
	}
	return e.cfg.ScanRate
}

// scheduleNextScan books host i's next scan attempt after an exponential
// inter-scan time, deferring attempts that land in a stealth worm's
// dormant window to the next active phase. Isolated vertices of a graph
// topology have no targets and are never scheduled: they stay infected
// but inert until a countermeasure retires them.
func (e *engine) scheduleNextScan(i int) {
	if e.guardEvents() {
		return
	}
	rate := e.scanRateFor(i)
	if rate <= 0 {
		return
	}
	delay := time.Duration(rng.Exponential(e.src, rate) * float64(time.Second))
	at := e.sim.Now() + delay
	if dc := e.cfg.DutyCycle; dc != nil {
		at = dc.nextActive(e.infectedAt[i], at)
	}
	e.emitAt(at, e.scanFn, i)
}

// guardEvents stops the run when the event budget is exhausted.
func (e *engine) guardEvents() bool {
	if e.sim.Fired() >= e.cfg.MaxEvents {
		e.res.Truncated = true
		e.sim.Stop()
		return true
	}
	return false
}

// scanAttempt is the per-scan event: pick a target, consult the defense,
// and deliver, delay or drop.
func (e *engine) scanAttempt(i int) {
	if !e.state.isInfected(i) {
		return
	}
	now := e.sim.Now()
	if ic := e.cfg.Invariants; ic != nil {
		ic.observeEvent(now)
		ic.observeScan(e, i)
	}
	srcIP := e.pop.Addr(i)
	e.res.TotalScans++

	// Target selection: a uniform random graph neighbor in topology
	// mode (two offset loads into the CSR slab, no allocation), the
	// configured address-space scanner otherwise.
	var dst addr.IP
	if g := e.cfg.Topology; g != nil {
		j, ok := g.Sample(e.src, i)
		if !ok {
			return // isolated vertex: nothing to scan
		}
		dst = e.pop.Addr(int(j))
	} else {
		dst = e.scannerFor(i).Next(e.src, srcIP)
	}
	v := e.cfg.Defense.OnScan(srcIP, dst, now)
	switch v.Action {
	case defense.Permit:
		e.res.Delivered++
		if m := e.metrics; m != nil {
			m.delivered.Inc()
		}
		e.deliver(srcIP, dst, i)
		if e.state.isInfected(i) { // deliver may have stopped the run
			e.scheduleNextScan(i)
		}
	case defense.Delay:
		e.res.Delayed++
		if m := e.metrics; m != nil {
			m.delayed.Inc()
		}
		if !e.guardEvents() {
			e.sim.Emit(v.Delay, e.deliverFn, e.allocDeliv(srcIP, dst, i))
		}
		e.scheduleNextScan(i)
	case defense.Drop:
		e.res.Dropped++
		if m := e.metrics; m != nil {
			m.dropped.Inc()
		}
		if rel, ok := e.cfg.Defense.(Releaser); ok {
			if at, blocked := rel.ReleaseAt(srcIP, now); blocked {
				// Temporary block (quarantine): resume attempting once
				// released.
				if e.guardEvents() {
					return
				}
				retry := at + time.Duration(rng.Exponential(e.src, e.scanRateFor(i))*float64(time.Second))
				e.sim.EmitAt(retry, e.scanFn, i)
				return
			}
		}
		// Permanent removal (the M-limit's semantics).
		e.remove(i)
	default:
		panic(fmt.Sprintf("sim: unknown defense action %v", v.Action))
	}
}

// allocDeliv files a delayed delivery into the slot table, recycling a
// freed slot when one is available, and returns its index — the
// argument the deliverFire event carries.
func (e *engine) allocDeliv(src, dst addr.IP, parent int) int {
	d := pendingDelivery{src: src, dst: dst, parent: int32(parent)}
	if n := len(e.freeDeliv); n > 0 {
		slot := e.freeDeliv[n-1]
		e.freeDeliv = e.freeDeliv[:n-1]
		e.pendDeliv[slot] = d
		return int(slot)
	}
	e.pendDeliv = append(e.pendDeliv, d)
	return len(e.pendDeliv) - 1
}

// deliverFire is the delayed-delivery event: the throttled scan reaches
// its target after the defense's queueing delay.
func (e *engine) deliverFire(slot int) {
	if ic := e.cfg.Invariants; ic != nil {
		ic.observeEvent(e.sim.Now())
	}
	d := e.pendDeliv[slot]
	e.freeDeliv = append(e.freeDeliv, int32(slot))
	e.res.Delivered++
	if m := e.metrics; m != nil {
		m.delivered.Inc()
	}
	e.deliver(d.src, d.dst, int(d.parent))
}

// deliver lands a scan from host parent on dst at the current time: a
// susceptible vulnerable host at that address becomes infected in the
// parent's generation + 1.
func (e *engine) deliver(src, dst addr.IP, parent int) {
	if obs := e.cfg.ScanObserver; obs != nil {
		obs(src, dst, e.sim.Now())
	}
	idx, ok := e.pop.Lookup(dst)
	if !ok || !e.state.isSusceptible(idx) {
		return
	}
	if e.cfg.RecordTree {
		e.res.Tree = append(e.res.Tree, InfectionEdge{
			Parent: parent,
			Child:  idx,
			At:     e.sim.Now(),
		})
	}
	e.infect(idx, int(e.gen[parent])+1)
}
