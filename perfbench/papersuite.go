package main

import (
	"fmt"
	"time"

	"wormcontain/internal/experiments"
)

// paperOptions is the paper-suite configuration: every artifact in
// Quick mode on two workers with the default (heap) event kernel, at
// the paper's default seed, the one EXPERIMENTS.md records. The
// workload seed does not change it: from one experiment seed to the
// next a suite's Monte-Carlo work changes by half (fig1, fig9 and
// fig10 most), which would hide any regression.
var paperOptions = experiments.Options{Quick: true, Workers: 2}

func artifactIDs() []string { return experiments.IDs() }

func artifactMetric(id string) string { return "experiments." + id + "_s" }

// runArtifact runs one artifact, wrapped so tests can inject faults.
type runArtifact func(id string, opts experiments.Options) (*experiments.Result, error)

func runPaperSuite(c *runCtx) (*outcome, error) {
	return paperWorkload(c, artifactIDs(), experiments.Run)
}

// paperWorkload regenerates every artifact in ids, suite after suite,
// until the run's time is up (at least minUnits suites). Every artifact must
// return output, and every suite must print byte-for-byte what the
// first printed: one seed, one output.
func paperWorkload(c *runCtx, ids []string, runOne runArtifact) (*outcome, error) {
	o := newOutcome()
	opts := paperOptions
	var walls, firsts []float64
	var tracedWall, untracedWall []float64
	want := map[string]string{}
	tracedTimes := map[string]float64{}
	begin := time.Now()
	for suite := 0; suite < minUnits || time.Since(begin) < c.seconds; suite++ {
		var tr *Tracer
		if c.tracer != nil && suite%2 == 0 {
			tr = c.tracer
		}
		trace := uint64(suite + 1)
		root := tr.Begin(trace, -1, "experiments.suite")
		start := time.Now()
		for i, id := range ids {
			// Each artifact starts from the same empty heap, so its time
			// and the suite's peak RSS do not depend on the garbage the
			// previous one left.
			releaseMemory()
			span := tr.Begin(trace, root, "experiments."+id)
			t0 := time.Now()
			res, err := runOne(id, opts)
			d := time.Since(t0)
			tr.End(span)
			o.attempted++
			if i == 0 {
				firsts = append(firsts, time.Since(start).Seconds())
			}
			if tr != nil && suite == 0 {
				tracedTimes[id] = d.Seconds()
			}
			var text string
			switch {
			case err != nil:
				o.problems = append(o.problems, fmt.Sprintf("%s: %v", id, err))
			case res == nil || len(res.Series)+len(res.Notes) == 0:
				o.problems = append(o.problems, fmt.Sprintf("%s: no output", id))
			default:
				text = res.Format()
			}
			if err != nil || text == "" {
				o.failed++
				continue
			}
			if suite == 0 {
				want[id] = text
			} else if text != want[id] {
				o.failed++
				o.problems = append(o.problems, fmt.Sprintf("%s: suite %d output differs from suite 1 at one seed", id, suite+1))
			}
		}
		wall := time.Since(start).Seconds()
		tr.End(root)
		walls = append(walls, wall)
		if tr != nil {
			tracedWall = append(tracedWall, wall)
		} else {
			untracedWall = append(untracedWall, wall)
		}
	}
	o.samples = len(walls)
	// A researcher waits for the first figure before anything else:
	// the suite's set-up is its time to the first artifact.
	o.e2e["setup_s"] = metric{median(firsts), "s"}
	o.e2e["wall_s"] = metric{median(walls), "s"}
	// The artifacts differ in size by four orders of magnitude, so a
	// quantile over them says which artifacts sit near it, not how fast
	// they ran: the request is the whole suite, as in sim-internet.
	o.e2e["p50_us"] = metric{median(walls) * 1e6, "us"}
	o.e2e["p90_us"] = metric{p90(walls) * 1e6, "us"}
	for id, s := range tracedTimes {
		o.layers[artifactMetric(id)] = metric{s, "s"}
	}
	o.tracedWall, o.untracedWall = tracedWall, untracedWall
	return o, nil
}
