// Command perfbench is the repository's end-to-end benchmark. Each
// workload runs in this one process against the library packages, is
// timed from outside around public functions and hooks, and has its
// outputs checked.
//
//	bash perfbench/run.sh --workload sim-internet --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, and the
// spans go to .bench_build/trace/. The exit code is 1 when a check
// fails. LAYERS.md maps every metric to the layer it measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx is what a workload gets from the command line.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	work    string  // directory for the run's state, removed at exit
	tracer  *Tracer // nil on untraced runs
}

func (c *runCtx) path(name string) string { return filepath.Join(c.work, name) }

// minUnits is the least number of whole runs (sim-internet) or suites
// (paper-suite) one benchmark run measures, however short --seconds
// is. A shared host can slow by up to half for ten seconds or more at
// a time: the median of three units ignores one such stretch, the mean
// of two does not.
const minUnits = 3

// outcome is one workload run: operation counts, failed checks, and
// both metric sets. Traced runs alternate traced and untraced units of
// work, so the tracing overhead is measured in the same process.
type outcome struct {
	attempted, failed int64
	samples           int
	problems          []string
	e2e, layers       map[string]metric
	tracedWall        []float64
	untracedWall      []float64
	allocsPerConn     float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"sim-internet":  runSimInternet,
	"paper-suite":   runPaperSuite,
	"gateway-legit": runGatewayLegit,
	"gateway-worm":  runGatewayWorm,
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: sim-internet, paper-suite, gateway-legit, gateway-worm")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 10, "how long to measure")
		trace   = fs.Int("trace", 0, "1 = per-layer metrics from a traced run")
		work    = fs.String("work", ".bench_build", "directory for state, checkpoints and trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return 2, fmt.Errorf("--seconds %d, must be >= 1", *seconds)
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("--trace %d, must be 0 or 1", *trace)
	}
	// Two cores: at most two worker goroutines run at once.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)
	c := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second, work: dir}
	if *trace == 1 {
		c.tracer = newTracer()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o, err := wl(c)
	if err != nil {
		return 1, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	meta := hostMeta()
	meta["workload"], meta["seed"], meta["seconds"], meta["trace"] = *name, *seed, *seconds, *trace
	meta["samples"] = o.samples

	metrics := o.e2e
	metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	if c.tracer != nil {
		metrics = o.layers
		metrics["go.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
		metrics["go.alloc_mb"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6, "MB"}
		metrics["go.allocs_per_conn"] = metric{o.allocsPerConn, "count"}
		tw, uw := median(o.tracedWall), median(o.untracedWall)
		metrics["trace.wall_s"] = metric{tw, "s"}
		metrics["trace.untraced_wall_s"] = metric{uw, "s"}
		metrics["trace.overhead_s"] = metric{tw - uw, "s"}
		metrics["trace.spans"] = metric{float64(c.tracer.Len()), "count"}
		fillMissingLayers(metrics)
		out := filepath.Join(*work, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := c.tracer.WriteFile(out, meta); err != nil {
			return 1, fmt.Errorf("write trace: %w", err)
		}
		self, _ := json.Marshal(c.tracer.SelfTimes())
		fmt.Printf("# self_s %s\n# spans written to %s\n", self, out)
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", metaLine)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}
	printHuman(*name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, errors.New("correctness check failed")
	}
	return 0, nil
}

// layerNames lists every per-layer metric that is not per-artifact; a
// workload that bypasses a layer reports 0 for it.
var layerNames = map[string]string{
	"addr.population_build_s": "s", "addr.lookup_ns": "ns", "addr.lookups": "count", "addr.hit_ratio": "ratio",
	"sim.loop_s": "s", "sim.events": "count", "sim.ns_per_event": "ns", "sim.ckpt_encode_s": "s", "sim.ckpt_mb": "MB",
	"simstate.save_s": "s", "simstate.fsync_s": "s", "simstate.bytes_written": "bytes",
	"core.observe_ns": "ns", "core.observes": "count", "core.deny_ratio": "ratio", "core.failure_observes": "count",
	"gateway.verdict_p50_us": "us", "gateway.relay_p50_us": "us", "gateway.dial_ns": "ns",
	"gateway.dials": "count", "gateway.dial_failures": "count", "gateway.relay_bytes": "bytes",
	"durable.wal_appends": "count", "durable.wal_bytes": "bytes", "durable.wal_fsyncs": "count", "durable.fsync_s": "s",
}

func fillMissingLayers(m map[string]metric) {
	for name, unit := range layerNames {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
	for _, id := range artifactIDs() {
		if _, ok := m[artifactMetric(id)]; !ok {
			m[artifactMetric(id)] = metric{0, "s"}
		}
	}
}

func printHuman(name string, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// hostMeta records what a result needs to be compared with another:
// CPU, core count, GOMAXPROCS, Go version and commit.
func hostMeta() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads HEAD from .git in the working directory; a checkout
// without git metadata reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 is the 90th percentile of xs when at least ten samples lie beyond
// it. A smaller sample measures no tail, and p90 is then its median.
func p90(xs []float64) float64 {
	if len(xs) < 100 {
		return median(xs)
	}
	return quantile(xs, 0.90)
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
