package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/des"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/rng"
	"wormcontain/internal/sim"
	"wormcontain/internal/simstate"
)

// simParams sizes the sim-internet workload.
type simParams struct {
	V, I0, MaxInfected  int
	ScanRate, PatchRate float64
	// Interval is the virtual-time checkpoint spacing.
	Interval time.Duration
	// wrapSink lets tests inject a faulty sink between the engine and
	// the checkpoint directory.
	wrapSink func(sim.CheckpointSink) sim.CheckpointSink
}

// simInternet is what `wormsim -checkpoint-dir` runs at internet
// scale: 10M hosts clustered in 10/8, 10k seeds, Routable scanning,
// patching, the wheel kernel, truncated at 2M infections, with
// wormsim's default 10 s checkpoint interval (one final checkpoint).
// The same scenario as the SimRun10M and Checkpoint10M
// microbenchmarks.
var simInternet = simParams{
	V: 10_000_000, I0: 10_000, MaxInfected: 2_000_000,
	ScanRate: 10, PatchRate: 0.02,
	Interval: 10 * time.Second,
}

var cluster = addr.Prefix{Net: 10 << 24, Bits: 8}

func (p simParams) config(seed uint64) (sim.Config, error) {
	routable, err := addr.NewRoutable([]addr.Prefix{cluster})
	if err != nil {
		return sim.Config{}, err
	}
	pfx := cluster
	return sim.Config{
		V: p.V, I0: p.I0, ScanRate: p.ScanRate,
		Scanner:       routable,
		ClusterPrefix: &pfx,
		MaxInfected:   p.MaxInfected,
		PatchRate:     p.PatchRate,
		Kernel:        des.KernelWheel,
		Seed:          seed,
	}, nil
}

// simRun is what one checkpointed run measured from outside.
type simRun struct {
	wall, setup   time.Duration
	loop, encode  time.Duration // traced runs only
	save          time.Duration
	polls, events uint64
	ckptBytes     int
	fsync         time.Duration
	bytesWritten  uint64
	scans         []addr.IP // delivered-scan targets, traced runs only
	problems      []string
}

// runSim makes one checkpointed run into a fresh simstate directory
// under dir and checks its result. With tr non-nil it also records
// spans, the last Stop poll and the delivered-scan stream.
func runSim(p simParams, seed uint64, dir string, tr *Tracer, trace uint64) (simRun, error) {
	var r simRun
	cfg, err := p.config(seed)
	if err != nil {
		return r, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return r, err
	}
	osfs, err := faultfs.NewOS(dir)
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	fst := &fsStats{}
	ckdir := simstate.Open(timedFS{osfs, fst})
	sink := &timedSink{inner: ckdir}
	var lastPoll time.Time
	root := tr.Begin(trace, -1, "sim.run")
	var first time.Time
	setupSpan := -1
	if tr != nil {
		setupSpan = tr.Begin(trace, root, "sim.setup")
		cfg.ScanObserver = func(_, dst addr.IP, _ time.Duration) { r.scans = append(r.scans, dst) }
		// The save span is known only once Save returns, so the fsyncs
		// made inside it (on this goroutine) wait here for their parent.
		var syncs [][2]time.Time
		onSync := func(s, e time.Time) { syncs = append(syncs, [2]time.Time{s, e}) }
		fst.onSyncFn.Store(&onSync)
		sink.onSave = func(start, end time.Time) {
			if r.encode == 0 {
				tr.Add(trace, root, "sim.loop", first, lastPoll)
			}
			r.encode += start.Sub(lastPoll)
			tr.Add(trace, root, "sim.ckpt_encode", lastPoll, start)
			save := tr.Add(trace, root, "simstate.save", start, end)
			for _, s := range syncs {
				tr.Add(trace, save, "simstate.fsync", s[0], s[1])
			}
			syncs = syncs[:0]
		}
	}
	var csink sim.CheckpointSink = sink
	if p.wrapSink != nil {
		csink = p.wrapSink(sink)
	}
	stop := func() bool {
		if r.polls == 0 {
			first = time.Now()
			tr.End(setupSpan)
		}
		r.polls++
		if tr != nil {
			lastPoll = time.Now()
		}
		return false
	}
	// The engine's own payload, seen after the sink returns: the
	// checkpoint that loads back must be this one, byte for byte.
	var wrote uint32
	var wroteLen int
	onWrite := func(payload []byte, _ uint64, _ time.Duration) {
		wrote, wroteLen = crc32.Checksum(payload, castagnoli), len(payload)
	}
	var res sim.Result
	start := time.Now()
	err = sim.RunCheckpointed(cfg, nil, &res, sim.CheckpointOptions{
		Sink: csink, Interval: p.Interval, Stop: stop, OnWrite: onWrite,
	})
	r.wall = time.Since(start)
	tr.End(root)
	fst.onSyncFn.Store(nil)
	if err != nil {
		return r, fmt.Errorf("sim-internet run: %w", err)
	}
	r.setup = first.Sub(start)
	if tr != nil {
		r.loop = lastPoll.Sub(first)
	}
	r.save = time.Duration(sink.saveNs)
	r.ckptBytes = sink.bytes
	r.fsync = time.Duration(fst.syncNs.Load())
	r.bytesWritten = fst.bytes.Load()
	// Each periodic cut re-polls Stop before the next event; the final
	// cut does not.
	r.events = r.polls - uint64(max(sink.saves-1, 0))
	r.problems = checkSimResult(p, &res, ckdir, wrote, wroteLen)
	return r, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkSimResult holds for any correct sample path of the scenario.
func checkSimResult(p simParams, res *sim.Result, ckdir *simstate.Dir, wrote uint32, wroteLen int) []string {
	var bad []string
	if !res.Truncated || res.TotalInfected < p.MaxInfected {
		bad = append(bad, fmt.Sprintf("run not truncated at MaxInfected %d: truncated=%v infected=%d",
			p.MaxInfected, res.Truncated, res.TotalInfected))
	}
	sum := 0
	for _, g := range res.Generations {
		sum += g
	}
	if sum != res.TotalInfected {
		bad = append(bad, fmt.Sprintf("sum of generations %d != TotalInfected %d", sum, res.TotalInfected))
	}
	if got := res.Delivered + res.Delayed + res.Dropped; got != res.TotalScans {
		bad = append(bad, fmt.Sprintf("delivered+delayed+dropped %d != TotalScans %d", got, res.TotalScans))
	}
	payload, gen, err := ckdir.Load()
	if err != nil {
		return append(bad, fmt.Sprintf("final checkpoint does not load: %v", err))
	}
	if len(payload) != wroteLen || crc32.Checksum(payload, castagnoli) != wrote {
		bad = append(bad, fmt.Sprintf("checkpoint generation %d differs from the payload the engine wrote", gen))
	}
	ck, err := sim.DecodeCheckpoint(payload)
	if err != nil {
		return append(bad, fmt.Sprintf("checkpoint generation %d does not decode: %v", gen, err))
	}
	if ck.TotalInfected != res.TotalInfected {
		bad = append(bad, fmt.Sprintf("checkpoint TotalInfected %d != run's %d", ck.TotalInfected, res.TotalInfected))
	}
	return bad
}

// replayLookups builds the run's population the way the engine does
// (same arguments, same random stream) and resolves the delivered-scan
// stream through Population.Lookup.
func replayLookups(p simParams, seed uint64, scans []addr.IP) (build, lookup time.Duration, hits int, err error) {
	pfx := cluster
	start := time.Now()
	pop, err := addr.NewPopulation(p.V, &pfx, rng.NewPCG64(seed, 0))
	build = time.Since(start)
	if err != nil {
		return 0, 0, 0, err
	}
	start = time.Now()
	for _, ip := range scans {
		if _, ok := pop.Lookup(ip); ok {
			hits++
		}
	}
	return build, time.Since(start), hits, nil
}

// releaseMemory returns the previous run's arena to the OS, so each
// run starts from the same heap and peak RSS reflects one run.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runSimInternet(c *runCtx) (*outcome, error) {
	return simWorkload(c, simInternet)
}

func simWorkload(c *runCtx, p simParams) (*outcome, error) {
	o := newOutcome()
	var walls, setups []float64
	var traced *simRun
	var tracedWall, untracedWall []float64
	dir := c.path("ckpt")
	begin := time.Now()
	for i := 0; i < minUnits || time.Since(begin) < c.seconds; i++ {
		var tr *Tracer
		if c.tracer != nil && i%2 == 0 {
			tr = c.tracer
		}
		releaseMemory()
		r, err := runSim(p, c.seed, dir, tr, uint64(i+1))
		o.attempted++
		if err != nil {
			return nil, err
		}
		if len(r.problems) > 0 {
			o.failed++
			o.problems = append(o.problems, r.problems...)
		}
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
		if tr != nil {
			tracedWall = append(tracedWall, r.wall.Seconds())
			if traced == nil {
				rr := r
				traced = &rr
			}
		} else {
			untracedWall = append(untracedWall, r.wall.Seconds())
		}
	}
	o.samples = len(walls)
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["wall_s"] = metric{median(walls), "s"}
	o.e2e["p50_us"] = metric{median(walls) * 1e6, "us"}
	o.e2e["p90_us"] = metric{p90(walls) * 1e6, "us"}
	if traced != nil {
		scans := traced.scans
		traced.scans = nil
		releaseMemory()
		build, lookup, hits, err := replayLookups(p, c.seed, scans)
		if err != nil {
			return nil, err
		}
		l := o.layers
		l["addr.population_build_s"] = metric{build.Seconds(), "s"}
		l["addr.lookups"] = metric{float64(len(scans)), "count"}
		l["addr.lookup_ns"] = metric{perOp(lookup, len(scans)), "ns"}
		l["addr.hit_ratio"] = metric{ratio(hits, len(scans)), "ratio"}
		l["sim.loop_s"] = metric{traced.loop.Seconds(), "s"}
		l["sim.events"] = metric{float64(traced.events), "count"}
		l["sim.ns_per_event"] = metric{perOp(traced.loop, int(traced.events)), "ns"}
		l["sim.ckpt_encode_s"] = metric{traced.encode.Seconds(), "s"}
		l["sim.ckpt_mb"] = metric{float64(traced.ckptBytes) / 1e6, "MB"}
		l["simstate.save_s"] = metric{traced.save.Seconds(), "s"}
		l["simstate.fsync_s"] = metric{traced.fsync.Seconds(), "s"}
		l["simstate.bytes_written"] = metric{float64(traced.bytesWritten), "bytes"}
		o.tracedWall, o.untracedWall = tracedWall, untracedWall
	}
	return o, nil
}
