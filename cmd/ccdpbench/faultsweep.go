package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/sweepd"
)

// runFaultSweep is the fault-injection ablation: for every application and
// every fault rate it runs `trials` full harness sweeps (distinct seeds per
// trial, every run verified bit-for-bit against the fault-free sequential
// golden) and reports how many survived — completed verified, possibly via
// demotion/retry — plus the cycle overhead degraded operation cost over the
// fault-free baseline. Over a torus topology the congestion-timeout
// prefetch drops (contention-induced demotions) are reported in their own
// column, separately from the fault-induced demotions.
//
// Every (app, rate, trial) point — plus each app's fault-free baseline —
// is an independent simulation of the app's resolved sweep point with its
// fault plan replaced, so the whole sweep fans out over the worker pool;
// rows are aggregated and printed in point order at emit time, which
// keeps the output byte-identical at any -jobs setting. A trial the
// faults kill is data (it did not survive); only a failed baseline stops
// the sweep.
func runFaultSweep(w io.Writer, apps []*sweepd.Job, kindsFlag, ratesFlag string, trials int, seed int64, jobs int) error {
	kinds, err := fault.ParseKinds(kindsFlag)
	if err != nil {
		return err
	}
	rates, err := parseRates(ratesFlag)
	if err != nil {
		return err
	}
	if trials < 1 {
		trials = 1
	}

	// Flatten the sweep to trial granularity. Each app's fault-free
	// baseline comes first (rate == -1), so by the time a rate row is
	// emitted its overhead denominator is already available.
	type point struct {
		app   int // index into apps
		rate  int // index into rates; -1 = fault-free baseline
		trial int
	}
	var points []point
	for ai := range apps {
		points = append(points, point{ai, -1, 0})
		for ri := range rates {
			for t := 0; t < trials; t++ {
				points = append(points, point{ai, ri, t})
			}
		}
	}

	base := apps[0].Cfg
	fmt.Fprintf(w, "Fault sweep: kinds=%s trials=%d pes=%v topology=%s (CCDP cycles at the largest PE count)\n\n",
		fault.FormatKinds(kinds), trials, base.PECounts, base.Topology)
	fmt.Fprintf(w, "%-8s %8s %10s %9s %12s %9s %8s %10s %9s %8s\n",
		"app", "rate", "survived", "attempts", "ccdp_cycles", "overhead", "faults", "demotions", "cont-drop", "oracle")

	// outcome is one point's result; err is a trial the faults killed.
	type outcome struct {
		ar  *harness.AppResult
		err error
	}
	baseRows := make([]harness.Row, len(apps))

	// Per-rate aggregate, reset at each rate's first trial. Emission is
	// strictly ascending, so a rate's trials arrive contiguously.
	type aggregate struct {
		survived, attempts                           int
		cycles, faults, demotions, contDrops, oracle int64
		lastErr                                      error
	}
	var agg aggregate
	_, err = parallel.ForEach(len(points), jobs,
		func(i int) (outcome, error) {
			p := points[i]
			s, cfg := apps[p.app].Spec, apps[p.app].Cfg
			if p.rate < 0 {
				// Fault-free baseline for the overhead column (same
				// machine and topology: the overhead must isolate the
				// faults, not the interconnect model).
				cfg.Fault = fault.Plan{}
				ar, err := harness.RunApp(s, cfg)
				if err != nil {
					return outcome{}, fmt.Errorf("%s baseline: %w", s.Name, err)
				}
				return outcome{ar: ar}, nil
			}
			cfg.Fault = fault.Plan{
				Seed:  seed + int64(p.trial)*7919, // distinct stream per trial
				Rate:  rates[p.rate],
				Kinds: kinds,
			}
			ar, err := harness.RunApp(s, cfg)
			return outcome{ar, err}, nil
		},
		func(i int, o outcome) {
			p := points[i]
			s := apps[p.app].Spec
			if p.rate < 0 {
				fmt.Fprintf(os.Stderr, "sweeping %s...\n", s.Name)
				baseRow := o.ar.Rows[len(o.ar.Rows)-1]
				baseRows[p.app] = baseRow
				fmt.Fprintf(w, "%-8s %8g %10s %9s %12d %9s %8d %10d %9d %8d\n",
					s.Name, 0.0, fmt.Sprintf("%d/%d", trials, trials), "1.0",
					baseRow.CCDPCycles, "+0.00%", 0, baseRow.CCDPStats.Demotions,
					baseRow.CCDPStats.NetDrops, 0)
				return
			}

			if p.trial == 0 {
				agg = aggregate{}
			}
			if o.err != nil {
				agg.lastErr = o.err
			} else {
				agg.survived++
				row := o.ar.Rows[len(o.ar.Rows)-1]
				agg.attempts += row.CCDPAttempts
				agg.cycles += row.CCDPCycles
				agg.faults += row.CCDPStats.FaultsInjected() + row.BaseStats.FaultsInjected()
				agg.demotions += row.CCDPStats.Demotions
				agg.contDrops += row.CCDPStats.NetDrops
				agg.oracle += row.CCDPStats.OracleViolations + row.BaseStats.OracleViolations
			}
			if p.trial != trials-1 {
				return
			}
			rate := rates[p.rate]
			if agg.survived == 0 {
				fmt.Fprintf(w, "%-8s %8g %10s %9s %12s %9s %8s %10s %9s %8s  (last: %v)\n",
					s.Name, rate, fmt.Sprintf("0/%d", trials), "-", "-", "-", "-", "-", "-", "-", agg.lastErr)
			} else {
				n := int64(agg.survived)
				avgCycles := agg.cycles / n
				overhead := 100 * (float64(avgCycles)/float64(baseRows[p.app].CCDPCycles) - 1)
				fmt.Fprintf(w, "%-8s %8g %10s %9.1f %12d %+8.2f%% %8d %10d %9d %8d\n",
					s.Name, rate, fmt.Sprintf("%d/%d", agg.survived, trials),
					float64(agg.attempts)/float64(agg.survived), avgCycles, overhead,
					agg.faults/n, agg.demotions/n, agg.contDrops/n, agg.oracle/n)
			}
			if p.rate == len(rates)-1 {
				fmt.Fprintln(w) // blank line between applications
			}
		})
	return err
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 || v > 1 {
			return nil, fmt.Errorf("bad fault rate %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no fault rates given")
	}
	return out, nil
}
