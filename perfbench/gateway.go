package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/durable"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/faultnet"
	"wormcontain/internal/gateway"
	"wormcontain/internal/rng"
	"wormcontain/internal/telemetry"
)

// gwParams describes one gateway campaign: an in-process gateway.New
// over a durable state directory, an echo upstream reached through the
// benchmark's own Dial, and two closed-loop clients.
type gwParams struct {
	// Sketch selects core.SketchLimiter with FailureM; otherwise the
	// exact core.Limiter.
	Sketch   bool
	M        int
	FailureM int
	// DialAttempts is the gateway's upstream dial budget.
	DialAttempts int
	// Legit and Scanners are the source counts per client; Dsts is the
	// number of echo destinations legitimate sources cycle over.
	Legit, Scanners, Dsts int
	// SetupTime is how long durable.Open + gateway.New is measured,
	// over and over, before the campaign; the last set-up carries the
	// campaign. Its latency wanders by half within seconds (directory
	// and fsync work), so a second of set-ups is steadier than a
	// fixed count of back-to-back ones. Zero measures one set-up.
	SetupTime time.Duration
	// Block is the number of exchanges one campaign block completes;
	// wall_s is the median block time.
	Block int

	// Test hooks: a faulty limiter between gateway and store, and an
	// upstream that mishandles the echo.
	wrapLimiter func(core.ContainmentLimiter) core.ContainmentLimiter
	echo        func(net.Conn)
}

// wormgate's defaults where the workload does not say otherwise.
const (
	gwCycle         = 30 * 24 * time.Hour
	gwCheckFraction = 0.9
	gwFsyncEvery    = 10 * time.Millisecond
	gwSnapshotEvery = 5 * time.Minute
	gwClients       = 2
	gwWarmUp        = 2 * time.Second
	// maxExchangesPerSec bounds one client's rate; it sizes the logs.
	maxExchangesPerSec = 20000
	payloadSize        = 64
	denyLimit          = "scan-limit-exceeded"
	denyUpstream       = "DENY upstream-unreachable\n"
)

// gatewayLegit is steady legitimate traffic: a few hundred sources
// cycling over a handful of destinations, far below M.
var gatewayLegit = gwParams{
	M: 5000, DialAttempts: 3,
	Legit: 128, Dsts: 8,
	SetupTime: time.Second, Block: 5000,
}

// gatewayWorm interleaves scanners with the same legitimate traffic.
// Every scanner request goes to a fresh random address the upstream
// refuses, so the failure threshold removes each scanner after about
// FailureM requests, early in the run; one dial attempt keeps retry
// backoff sleeps out of the measurement.
var gatewayWorm = gwParams{
	Sketch: true, M: 5000, FailureM: 16, DialAttempts: 1,
	Legit: 128, Scanners: 32, Dsts: 8,
	SetupTime: time.Second, Block: 5000,
}

func runGatewayLegit(c *runCtx) (*outcome, error) { return gatewayWorkload(c, gatewayLegit) }
func runGatewayWorm(c *runCtx) (*outcome, error)  { return gatewayWorkload(c, gatewayWorm) }

func legitSrc(client, i int) addr.IP   { return addr.IP(172<<24 | 16<<16 | client<<8 | (i + 1)) }
func scannerSrc(client, i int) addr.IP { return addr.IP(172<<24 | 20<<16 | client<<8 | (i + 1)) }
func echoDst(i int) addr.IP            { return addr.IP(192<<24 | 2<<8 | (i + 1)) }
func clientPort(client int) int        { return 7000 + client }

// upstream is the echo server behind the benchmark's Dial. Only the
// echo destinations connect; every other address is refused without
// touching the network, like unused address space.
type upstream struct {
	ln      net.Listener
	echoDst map[string]bool
	echo    func(net.Conn)
	dials   atomic.Uint64
	refused atomic.Uint64
	dialNs  atomic.Int64
	onDial  func(port int, start, end time.Time)
	wg      sync.WaitGroup
}

func startUpstream(p gwParams) (*upstream, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("echo upstream: %w", err)
	}
	u := &upstream{ln: ln, echoDst: map[string]bool{}, echo: p.echo}
	for i := 0; i < p.Dsts; i++ {
		u.echoDst[echoDst(i).String()] = true
	}
	if u.echo == nil {
		u.echo = func(c net.Conn) { _, _ = io.Copy(c, c) }
	}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
				conn.Close()
				continue
			}
			u.wg.Add(1)
			go func() {
				defer u.wg.Done()
				defer conn.Close()
				u.echo(conn)
			}()
		}
	}()
	return u, nil
}

// dialReset opens a TCP connection that closes with a reset. Neither
// side then leaves a TIME_WAIT socket behind, so back-to-back runs do
// not inherit each other's kernel state.
func dialReset(network, address string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, address, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Dial is the gateway's gateway.Dialer.
func (u *upstream) Dial(network, address string) (net.Conn, error) {
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, err
	}
	u.dials.Add(1)
	if !u.echoDst[host] {
		u.refused.Add(1)
		return nil, fmt.Errorf("dial %s: %w", address, syscall.ECONNREFUSED)
	}
	start := time.Now()
	conn, err := net.Dial(network, u.ln.Addr().String())
	end := time.Now()
	u.dialNs.Add(end.Sub(start).Nanoseconds())
	if err != nil {
		u.refused.Add(1)
		return nil, err
	}
	if u.onDial != nil {
		port, _ := strconv.Atoi(portStr)
		u.onDial(port, start, end)
	}
	return conn, nil
}

// stop closes the listener and waits for every echo handler; the
// gateway must already be shut down, which closes its upstream ends.
func (u *upstream) stop() {
	_ = u.ln.Close()
	u.wg.Wait()
}

// gwEnv is one running gateway with its durable store.
type gwEnv struct {
	store *durable.Store
	gw    *gateway.Gateway
	reg   *telemetry.Registry
	fst   *fsStats
	lst   *limiterStats
	serve chan error
}

// setUp opens the durable store and the gateway — the operator's
// start-up path, and what setup_s measures.
func setUp(p gwParams, dir string, u *upstream, traced bool,
	onObserve func(src uint32, start, end time.Time)) (*gwEnv, time.Duration, error) {
	env := &gwEnv{reg: telemetry.NewRegistry(), fst: &fsStats{}, lst: &limiterStats{}}
	start := time.Now()
	osfs, err := faultfs.NewOS(dir)
	if err != nil {
		return nil, 0, err
	}
	var fsys faultfs.FS = osfs
	if traced {
		fsys = timedFS{osfs, env.fst}
	}
	cfg := core.LimiterConfig{M: p.M, Cycle: gwCycle, CheckFraction: gwCheckFraction}
	newLimiter := func(start time.Time) (core.ContainmentLimiter, error) {
		if p.Sketch {
			return core.NewSketchLimiter(core.SketchConfig{LimiterConfig: cfg, FailureM: p.FailureM}, start)
		}
		return core.NewLimiter(cfg, start)
	}
	env.store, err = durable.Open(durable.Options{
		FS:               fsys,
		FsyncInterval:    gwFsyncEvery,
		SnapshotInterval: gwSnapshotEvery,
		NewLimiter:       newLimiter,
		Metrics:          env.reg,
	}, cfg, time.Now().UTC())
	if err != nil {
		return nil, 0, err
	}
	lim := env.store.Limiter()
	if traced {
		lim = wrapLimiter(lim, env.lst, onObserve)
	}
	if p.wrapLimiter != nil {
		lim = p.wrapLimiter(lim)
	}
	env.gw, err = gateway.New(gateway.Config{
		Limiter:   lim,
		Dial:      u.Dial,
		Metrics:   env.reg,
		DialRetry: faultnet.RetryConfig{MaxAttempts: p.DialAttempts, BaseDelay: 50 * time.Millisecond},
	}, "127.0.0.1:0")
	if err != nil {
		_ = env.store.Close()
		return nil, 0, err
	}
	took := time.Since(start)
	env.serve = make(chan error, 1)
	go func() { env.serve <- env.gw.Serve() }()
	return env, took, nil
}

func (env *gwEnv) tearDown() error {
	env.gw.Shutdown()
	if err := <-env.serve; !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("gateway serve: %w", err)
	}
	return env.store.Close()
}

// exchangeRef ties the gateway-side spans (limiter decision, upstream
// dial) to the client exchange that caused them: each client has one
// exchange in flight and owns its sources and its destination port.
type exchangeRef struct {
	trace             uint64
	exchange, verdict int
}

// clientLog is what one closed-loop client saw.
type clientLog struct {
	latUs, verdictUs, relayUs []float64
	doneNs                    []int64
	failed                    int64
	problems                  []string
	deniedScanners            map[addr.IP]bool
	cur                       atomic.Pointer[exchangeRef]
}

// newClientLog sizes the logs for the campaign up front. Growing them
// during the run would raise the live heap as it goes, and with it the
// gateway's GC interval: latency would drift within a run and differ
// from one campaign to the next.
func newClientLog(d time.Duration) *clientLog {
	n := int(d.Seconds()*maxExchangesPerSec) + 1
	return &clientLog{
		latUs:          make([]float64, 0, n),
		verdictUs:      make([]float64, 0, n),
		relayUs:        make([]float64, 0, n),
		doneNs:         make([]int64, 0, n),
		deniedScanners: map[addr.IP]bool{},
	}
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// campaign is one gateway run: set-ups, then closed-loop traffic for d.
type campaign struct {
	setups    []float64
	blocks    []float64
	p50, p90  []float64
	lat       []float64
	verdict   []float64
	relay     []float64
	exchanges int64
	failed    int64
	problems  []string
	layers    map[string]metric
	allocs    uint64
}

func runCampaign(c *runCtx, p gwParams, d time.Duration, tr *Tracer, tag string) (*campaign, error) {
	u, err := startUpstream(p)
	if err != nil {
		return nil, err
	}
	defer u.stop()
	logs := make([]*clientLog, gwClients)
	srcClient := map[uint32]int{}
	for i := range logs {
		logs[i] = newClientLog(d)
		for j := 0; j < p.Legit; j++ {
			srcClient[uint32(legitSrc(i, j))] = i
		}
		for j := 0; j < p.Scanners; j++ {
			srcClient[uint32(scannerSrc(i, j))] = i
		}
	}
	var onObserve func(src uint32, start, end time.Time)
	if tr != nil {
		onObserve = func(src uint32, start, end time.Time) {
			if i, ok := srcClient[src]; ok {
				if ref := logs[i].cur.Load(); ref != nil {
					tr.Add(ref.trace, ref.verdict, "core.observe", start, end)
				}
			}
		}
		u.onDial = func(port int, start, end time.Time) {
			if i := port - clientPort(0); i >= 0 && i < len(logs) {
				if ref := logs[i].cur.Load(); ref != nil {
					tr.Add(ref.trace, ref.exchange, "gateway.dial", start, end)
				}
			}
		}
	}

	cp := &campaign{}
	var env *gwEnv
	var dir string
	for begin := time.Now(); env == nil || time.Since(begin) < p.SetupTime; {
		if env != nil {
			if err := env.tearDown(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = c.path(fmt.Sprintf("%s-state-%d", tag, len(cp.setups)))
		span := tr.Begin(0, -1, "gateway.setup")
		var took time.Duration
		env, took, err = setUp(p, dir, u, tr != nil, onObserve)
		tr.End(span)
		if err != nil {
			return nil, err
		}
		cp.setups = append(cp.setups, took.Seconds())
	}
	if tr != nil {
		fn := func(s, e time.Time) { tr.Add(0, -1, "durable.fsync", s, e) }
		env.fst.onSyncFn.Store(&fn)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			drive(p, env.gw.Addr(), i, c.seed, begin, deadline, logs[i], tr)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&ms1)
	env.fst.onSyncFn.Store(nil)
	inner := env.store.Limiter()
	if err := env.tearDown(); err != nil {
		return nil, err
	}

	var done []int64
	for _, l := range logs {
		cp.lat = append(cp.lat, l.latUs...)
		cp.verdict = append(cp.verdict, l.verdictUs...)
		cp.relay = append(cp.relay, l.relayUs...)
		done = append(done, l.doneNs...)
		cp.failed += l.failed
		cp.problems = append(cp.problems, l.problems...)
	}
	cp.exchanges = int64(len(done))
	cp.blocks, cp.p50, cp.p90 = blockStats(done, cp.lat, p.Block, elapsed)
	cp.problems = append(cp.problems, checkContainment(p, inner, logs)...)
	cp.allocs = ms1.Mallocs - ms0.Mallocs
	cp.layers = gatewayLayers(env, u, cp)
	return cp, nil
}

// blockStats splits the exchanges, in completion order, into
// consecutive blocks of n and returns each block's duration in seconds
// and the median and 90th-percentile latency of its exchanges whose
// latency is not NaN. Reporting the median
// block keeps one noisy stretch of a run from setting its figures. A
// run too short for one block reports its rate scaled to n.
func blockStats(done []int64, lat []float64, n int, elapsed time.Duration) (wall, p50s, p90s []float64) {
	idx := make([]int, len(done))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return done[idx[a]] < done[idx[b]] })
	prev := int64(0)
	block := make([]float64, 0, n)
	for k := n; k <= len(idx); k += n {
		last := done[idx[k-1]]
		wall = append(wall, float64(last-prev)/1e9)
		prev = last
		block = block[:0]
		for _, i := range idx[k-n : k] {
			if !math.IsNaN(lat[i]) {
				block = append(block, lat[i])
			}
		}
		p50s = append(p50s, median(block))
		p90s = append(p90s, p90(block))
	}
	if len(wall) == 0 && len(done) > 0 {
		wall = append(wall, elapsed.Seconds()*float64(n)/float64(len(done)))
		block = block[:0]
		for _, v := range lat {
			if !math.IsNaN(v) {
				block = append(block, v)
			}
		}
		p50s = append(p50s, median(block))
		p90s = append(p90s, p90(block))
	}
	return wall, p50s, p90s
}

// drive is one closed-loop client: it sends its next request only when
// the previous exchange is over. In the worm workload every second
// request comes from one of the client's scanners.
func drive(p gwParams, gwAddr string, client int, seed uint64, begin, deadline time.Time, l *clientLog, tr *Tracer) {
	r := rng.NewPCG64(seed, uint64(100+client))
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	echo := make([]byte, payloadSize)
	cl := gateway.Client{GatewayAddr: gwAddr, Timeout: 5 * time.Second, Dial: dialReset}
	port := clientPort(client)
	for k := 0; time.Now().Before(deadline); k++ {
		scan := p.Scanners > 0 && k%2 == 1
		var ref *exchangeRef
		if tr != nil {
			ref = &exchangeRef{trace: uint64(client+1)<<40 | uint64(k+1)}
			ref.exchange = tr.Begin(ref.trace, -1, "gateway.exchange")
			ref.verdict = tr.Begin(ref.trace, ref.exchange, "gateway.connect")
			l.cur.Store(ref)
		}
		t0 := time.Now()
		if scan {
			src := scannerSrc(client, (k/2)%p.Scanners)
			dst := addr.IP(r.Uint64())
			for dst>>8 == echoDst(0)>>8 {
				dst = addr.IP(r.Uint64())
			}
			scanExchange(cl, src, dst, port, l, t0, tr, ref)
		} else {
			i := k
			if p.Scanners > 0 {
				i = k / 2
			}
			src := legitSrc(client, i%p.Legit)
			dst := echoDst(int(r.Uint64() % uint64(p.Dsts)))
			legitExchange(cl, src, dst, port, payload, echo, l, t0, tr, ref)
		}
		t1 := time.Now()
		tr.End(refSpan(ref, true))
		// Latency is what legitimate hosts wait for; a scanner's probe
		// counts toward throughput only.
		lat := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		if scan {
			lat = math.NaN()
		}
		l.latUs = append(l.latUs, lat)
		l.doneNs = append(l.doneNs, t1.Sub(begin).Nanoseconds())
	}
}

func refSpan(ref *exchangeRef, exchange bool) int {
	switch {
	case ref == nil:
		return -1
	case exchange:
		return ref.exchange
	default:
		return ref.verdict
	}
}

// legitExchange is Connect, a 64-byte echo, close. Anything but OK and
// the same 64 bytes back is a failure.
func legitExchange(cl gateway.Client, src, dst addr.IP, port int, payload, echo []byte,
	l *clientLog, t0 time.Time, tr *Tracer, ref *exchangeRef) {
	conn, flagged, err := cl.Connect(src, dst, port)
	t1 := time.Now()
	tr.End(refSpan(ref, false))
	l.verdictUs = append(l.verdictUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	if err != nil {
		l.fail("legit %v -> %v: %v", src, dst, err)
		return
	}
	defer conn.Close()
	if flagged {
		l.fail("legit %v -> %v: flagged for checking", src, dst)
		return
	}
	if ref != nil {
		defer tr.End(tr.Begin(ref.trace, ref.exchange, "gateway.relay"))
	}
	if err := conn.SetDeadline(time.Now().Add(cl.Timeout)); err != nil {
		l.fail("legit %v -> %v: %v", src, dst, err)
		return
	}
	if _, err := conn.Write(payload); err != nil {
		l.fail("legit %v -> %v: send: %v", src, dst, err)
		return
	}
	if _, err := io.ReadFull(conn, echo); err != nil {
		l.fail("legit %v -> %v: echo: %v", src, dst, err)
		return
	}
	l.relayUs = append(l.relayUs, float64(time.Since(t1).Nanoseconds())/1e3)
	if !bytes.Equal(echo, payload) {
		l.fail("legit %v -> %v: echo differs from payload", src, dst)
	}
}

// scanExchange is one scanner probe. Expected outcomes: the limit
// DENY, or OK followed by the gateway's upstream-unreachable DENY and
// close.
func scanExchange(cl gateway.Client, src, dst addr.IP, port int, l *clientLog,
	t0 time.Time, tr *Tracer, ref *exchangeRef) {
	conn, _, err := cl.Connect(src, dst, port)
	tr.End(refSpan(ref, false))
	l.verdictUs = append(l.verdictUs, float64(time.Since(t0).Nanoseconds())/1e3)
	if err != nil {
		var denied *gateway.DeniedError
		if errors.As(err, &denied) && denied.Reason == denyLimit {
			l.deniedScanners[src] = true
			return
		}
		l.fail("scanner %v -> %v: %v", src, dst, err)
		return
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(cl.Timeout)); err != nil {
		l.fail("scanner %v -> %v: %v", src, dst, err)
		return
	}
	// The client's status reader may already have consumed the DENY
	// line that follows OK, so EOF alone is the same refusal.
	got, err := io.ReadAll(conn)
	if err != nil || (len(got) > 0 && string(got) != denyUpstream) {
		l.fail("scanner %v -> %v: want %q or EOF after OK, got %q (%v)", src, dst, denyUpstream, got, err)
	}
}

// checkContainment holds for any correct limiter: every scanner was
// denied by the limit and ends removed, and no legitimate source is
// removed (the paper's non-intrusiveness).
func checkContainment(p gwParams, inner core.ContainmentLimiter, logs []*clientLog) []string {
	var bad []string
	for i, l := range logs {
		for j := 0; j < p.Scanners; j++ {
			src := scannerSrc(i, j)
			if !l.deniedScanners[src] || !inner.Removed(uint32(src)) {
				bad = append(bad, fmt.Sprintf("scanner %v not contained (denied=%v removed=%v)",
					src, l.deniedScanners[src], inner.Removed(uint32(src))))
			}
		}
		for j := 0; j < p.Legit; j++ {
			if src := legitSrc(i, j); inner.Removed(uint32(src)) {
				bad = append(bad, fmt.Sprintf("legitimate source %v removed", src))
			}
		}
	}
	return bad
}

// gatewayLayers reads the per-layer numbers: the wrappers' timings and
// the counters the gateway and durable store already export.
func gatewayLayers(env *gwEnv, u *upstream, cp *campaign) map[string]metric {
	snap := env.reg.Snapshot()
	family := func(name string) float64 {
		var sum float64
		if f := snap.Family(name); f != nil {
			for _, s := range f.Series {
				sum += s.Value
			}
		}
		return sum
	}
	observes := env.lst.observes.Load()
	dials := u.dials.Load()
	connected := dials - u.refused.Load()
	return map[string]metric{
		"core.observe_ns":        {perOp(time.Duration(env.lst.ns.Load()), int(observes)), "ns"},
		"core.observes":          {float64(observes), "count"},
		"core.deny_ratio":        {ratio(int(env.lst.denies.Load()), int(observes)), "ratio"},
		"core.failure_observes":  {float64(env.lst.failures.Load()), "count"},
		"gateway.verdict_p50_us": {median(cp.verdict), "us"},
		"gateway.relay_p50_us":   {median(cp.relay), "us"},
		"gateway.dial_ns":        {perOp(time.Duration(u.dialNs.Load()), int(connected)), "ns"},
		"gateway.dials":          {float64(dials), "count"},
		"gateway.dial_failures":  {float64(u.refused.Load()), "count"},
		"gateway.relay_bytes":    {family("wormgate_relay_bytes_total"), "bytes"},
		"durable.wal_appends":    {family("wormgate_wal_appends_total"), "count"},
		"durable.wal_bytes":      {family("wormgate_wal_bytes_total"), "bytes"},
		"durable.wal_fsyncs":     {family("wormgate_wal_fsyncs_total"), "count"},
		"durable.fsync_s":        {time.Duration(env.fst.syncNs.Load()).Seconds(), "s"},
	}
}

func gatewayWorkload(c *runCtx, p gwParams) (*outcome, error) {
	o := newOutcome()
	// A short unmeasured campaign first: socket, scheduler and heap
	// state settle before the timed one starts. Its checks still count.
	warmP := p
	warmP.SetupTime = 0
	warm, err := runCampaign(c, warmP, gwWarmUp, nil, "warm-up")
	if err != nil {
		return nil, err
	}
	o.problems = append(o.problems, warm.problems...)
	var cp *campaign
	if c.tracer == nil {
		if cp, err = runCampaign(c, p, c.seconds, nil, "untraced"); err != nil {
			return nil, err
		}
		o.absorb(cp)
	} else {
		// Half the time untraced, half traced: the overhead is the
		// difference of the two block medians.
		plain, err := runCampaign(c, p, c.seconds/2, nil, "untraced")
		if err != nil {
			return nil, err
		}
		o.absorb(plain)
		if cp, err = runCampaign(c, p, c.seconds/2, c.tracer, "traced"); err != nil {
			return nil, err
		}
		o.absorb(cp)
		o.untracedWall, o.tracedWall = plain.blocks, cp.blocks
		o.layers = cp.layers
		o.allocsPerConn = float64(cp.allocs) / float64(max(cp.exchanges, 1))
	}
	for _, v := range cp.lat {
		if !math.IsNaN(v) {
			o.samples++
		}
	}
	o.e2e["setup_s"] = metric{median(cp.setups), "s"}
	o.e2e["wall_s"] = metric{median(cp.blocks), "s"}
	o.e2e["p50_us"] = metric{median(cp.p50), "us"}
	o.e2e["p90_us"] = metric{median(cp.p90), "us"}
	return o, nil
}

func (o *outcome) absorb(cp *campaign) {
	o.attempted += cp.exchanges
	o.failed += cp.failed
	o.problems = append(o.problems, cp.problems...)
}
