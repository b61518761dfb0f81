package main

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// sweepPoint is one row of an architectural sweep: a label plus the
// machine-parameter perturbation it measures.
type sweepPoint struct {
	label string
	tune  func(*machine.Params)
}

// runSweep measures the interaction of the CCDP scheme with one
// architectural parameter — the "detailed simulation studies ... and the
// interaction of the compiler implementation with various important
// architectural parameters" the paper's §6 plans as future work.
func runSweep(w io.Writer, name string, base harness.Config, jobs int) error {
	var points []sweepPoint
	var app *workloads.Spec
	switch name {
	case "remote":
		app = workloads.TOMCATV(257, 3)
		// Sweep around the canonical T3D remote latency (⅓× to 4×) so the
		// midpoint always matches the t3d machine profile.
		t3d := machine.MustProfileParams("t3d", 1).RemoteReadCost
		for _, lat := range []int64{t3d / 3, 2 * t3d / 3, t3d, 2 * t3d, 4 * t3d} {
			points = append(points, sweepPoint{
				label: fmt.Sprintf("remote=%d", lat),
				tune:  func(mp *machine.Params) { mp.RemoteReadCost = lat },
			})
		}
	case "cache":
		app = workloads.SWIM(257, 3)
		for _, words := range []int64{256, 512, 1024, 4096, 16384} {
			points = append(points, sweepPoint{
				label: fmt.Sprintf("cache=%dKB", words*8/1024),
				tune: func(mp *machine.Params) {
					mp.CacheWords = words
					if mp.VectorMaxWords > words {
						mp.VectorMaxWords = words / 2
					}
				},
			})
		}
	case "queue":
		app = workloads.TOMCATV(257, 3)
		for _, depth := range []int{1, 4, 16, 64, 256} {
			points = append(points, sweepPoint{
				label: fmt.Sprintf("queue=%d", depth),
				tune: func(mp *machine.Params) {
					mp.PrefetchQueueWords = depth
					mp.VectorMaxWords = 0 // force word-prefetch paths
				},
			})
		}
	case "line":
		app = workloads.SWIM(257, 3)
		for _, lw := range []int64{2, 4, 8, 16} {
			points = append(points, sweepPoint{
				label: fmt.Sprintf("line=%dB", lw*8),
				tune:  func(mp *machine.Params) { mp.LineWords = lw },
			})
		}
	default:
		return fmt.Errorf("unknown sweep %q (want remote, cache, queue or line)", name)
	}

	fmt.Fprintf(w, "Architectural sweep %q on %s\n", name, app.Name)
	return sweepTable(w, app, base, points, jobs)
}

// runPoints runs app at every point — the base configuration with the
// point's machine-parameter perturbation — on the worker pool, handing
// each result to emit (when non-nil) in point order. It is the executor
// of every architectural sweep and ablation.
func runPoints(app *workloads.Spec, base harness.Config, points []sweepPoint, jobs int,
	emit func(i int, ar *harness.AppResult)) ([]*harness.AppResult, error) {
	return parallel.ForEach(len(points), jobs, func(i int) (*harness.AppResult, error) {
		cfg := base
		cfg.Tune = points[i].tune
		ar, err := harness.RunApp(app, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", points[i].label, err)
		}
		return ar, nil
	}, emit)
}

// sweepTable runs every sweep point on the worker pool and prints the
// improvement table, rows in point order.
func sweepTable(w io.Writer, app *workloads.Spec, base harness.Config, points []sweepPoint, jobs int) error {
	fmt.Fprintf(w, "%14s", "")
	for _, p := range base.PECounts {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("P=%d improv", p))
	}
	fmt.Fprintln(w)
	_, err := runPoints(app, base, points, jobs, func(i int, ar *harness.AppResult) {
		fmt.Fprintf(w, "%14s", points[i].label)
		for _, r := range ar.Rows {
			fmt.Fprintf(w, " %13.2f%%", r.Improvement)
		}
		fmt.Fprintln(w)
	})
	return err
}
