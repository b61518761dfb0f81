// Command ccdpbench regenerates the paper's evaluation: Table 1 (speedups
// of BASE and CCDP over sequential) and Table 2 (% improvement of CCDP over
// BASE) for MXM, VPENTA, TOMCATV and SWIM across 1–64 PEs, plus the
// ablation experiments DESIGN.md defines.
//
// Independent sweep points (applications, parameter settings, fault
// trials) run concurrently on a worker pool (-jobs, default GOMAXPROCS);
// rows are always emitted in deterministic point order, so the output is
// byte-identical at any -jobs setting.
//
// Usage:
//
//	ccdpbench [-table 1|2|all] [-apps MXM,VPENTA,TOMCATV,SWIM] [-pes 1,2,4,...]
//	          [-machine-profile t3d|cxl-pcc|pim] [-domain-size D]
//	          [-scale small|paper] [-topology flat|torus|XxYxZ] [-jobs N]
//	          [-arena] [-arena-pes 8] [-hw-prefetch next-line|stride]
//	          [-ablation vpg|mbp|nonstale] [-details]
//	          [-fault-rate 0.01] [-fault-kinds all] [-fault-seed 1]
//	          [-faultsweep] [-fault-rates 0.001,0.01,0.05] [-fault-trials 3]
//	          [-server http://host:port] [-server-priority N]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -server the sweep is served by a persistent sweepd process (see
// cmd/sweepd): repeated sweeps hit its content-addressed result memo and
// shared compile cache, while stdout stays byte-identical to the
// in-process path because the results are rendered locally by the same
// report code.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sweepd"
	"repro/internal/workloads"
)

const tool = "ccdpbench"

func main() {
	table := flag.String("table", "all", "which table to print: 1, 2 or all")
	apps := flag.String("apps", "MXM,VPENTA,TOMCATV,SWIM", "comma-separated application list")
	pes := flag.String("pes", "1,2,4,8,16,32,64", "comma-separated PE counts")
	scale := flag.String("scale", "paper", "problem scale: small or paper")
	profile := flag.String("machine-profile", "t3d", driver.ProfileUsage())
	domainSize := flag.Int("domain-size", 0,
		"override the profile's coherence-domain size (0 = profile default, 1 = per-PE domains)")
	details := flag.Bool("details", false, "print per-configuration details")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	arena := flag.Bool("arena", false, "run the coherence arena instead: every mode (software and hardware directory) on one machine size")
	arenaPEs := flag.Int("arena-pes", 8, "machine size for -arena")
	ablation := flag.String("ablation", "", "run an ablation instead: vpg, mbp or nonstale")
	sweep := flag.String("sweep", "", "run an architectural parameter sweep instead: remote, cache, queue or line")
	jobs := flag.Int("jobs", 0, "concurrent sweep points (0 = GOMAXPROCS); output is identical at any setting")
	server := flag.String("server", "", "serve the sweep from a persistent sweepd at this base URL instead of running in-process (output is byte-identical)")
	serverPriority := flag.Int("server-priority", 0, "job priority for -server submissions (higher runs first)")
	faultSweep := flag.Bool("faultsweep", false, "run the fault-injection sweep ablation instead")
	faultRates := flag.String("fault-rates", "0.001,0.01,0.05", "fault rates for -faultsweep")
	faultTrials := flag.Int("fault-trials", 3, "trials (distinct seeds) per rate for -faultsweep")
	tf := driver.RegisterTopology(flag.CommandLine)
	hf := driver.RegisterHW(flag.CommandLine)
	ff := driver.RegisterFault(flag.CommandLine)
	pf := driver.RegisterProf(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		driver.Fatal(tool, err)
	}
	defer stopProf()

	peCounts, err := driver.ParsePEs(*pes)
	if err != nil {
		driver.Fatal(tool, err)
	}
	plan, err := ff.Plan()
	if err != nil {
		driver.Fatal(tool, err)
	}
	topo, err := tf.Config()
	if err != nil {
		driver.Fatal(tool, err)
	}
	if _, err := machine.ProfileParams(*profile, 1); err != nil {
		driver.Fatal(tool, err)
	}

	if *server != "" {
		if *faultSweep || *arena || *ablation != "" || *sweep != "" {
			driver.Fatal(tool, fmt.Errorf(
				"-server serves plain sweeps only; -arena, -ablation, -sweep and -faultsweep run in-process"))
		}
		specs, err := driver.Apps(*apps, *scale)
		if err != nil {
			driver.Fatal(tool, err)
		}
		js := make([]sweepd.JobSpec, len(specs))
		for i, s := range specs {
			js[i] = sweepd.JobSpec{
				App: s.Name, Scale: *scale, PEs: peCounts,
				Profile: *profile, DomainSize: *domainSize,
				Topology:  tf.String(),
				FaultRate: *ff.Rate, FaultKinds: *ff.Kinds, FaultSeed: *ff.Seed,
			}
		}
		client := &sweepd.Client{Base: strings.TrimRight(*server, "/"), Priority: *serverPriority}
		results, err := runServed(os.Stdout, client, js, *details)
		if err != nil {
			driver.Fatal(tool, err)
		}
		renderResults(os.Stdout, results, *csv, *table)
		return
	}

	if *faultSweep {
		specs, err := driver.Apps(*apps, *scale)
		if err != nil {
			driver.Fatal(tool, err)
		}
		if err := runFaultSweep(os.Stdout, specs, peCounts, topo, *ff.Kinds, *faultRates, *faultTrials, *ff.Seed, *jobs); err != nil {
			driver.Fatal(tool, err)
		}
		return
	}
	if *arena {
		specs, err := driver.Apps(*apps, *scale)
		if err != nil {
			driver.Fatal(tool, err)
		}
		acfg := harness.ArenaConfig{PEs: *arenaPEs, Profile: *profile, Topology: topo, HWPrefetcher: *hf.Prefetcher,
			Tune: func(mp *machine.Params) {
				// Directory shape only; the prefetcher is already routed to
				// the HW modes by ArenaConfig.HWPrefetcher.
				mp.DirPointers = *hf.Pointers
				mp.DirSparseLines = *hf.SparseLines
				mp.DirSparseWays = *hf.SparseWays
			}}
		if err := runArenas(os.Stdout, specs, acfg, *jobs, *csv); err != nil {
			driver.Fatal(tool, err)
		}
		return
	}
	if *ablation != "" {
		if err := runAblation(os.Stdout, *ablation, peCounts, *jobs); err != nil {
			driver.Fatal(tool, err)
		}
		return
	}
	if *sweep != "" {
		if err := runSweep(os.Stdout, *sweep, peCounts, *jobs); err != nil {
			driver.Fatal(tool, err)
		}
		return
	}

	specs, err := driver.Apps(*apps, *scale)
	if err != nil {
		driver.Fatal(tool, err)
	}
	results, err := runApps(os.Stdout, specs, harness.Config{PECounts: peCounts, Profile: *profile, DomainSize: *domainSize, Fault: plan, Topology: topo}, *jobs, *details)
	if err != nil {
		driver.Fatal(tool, err)
	}

	renderResults(os.Stdout, results, *csv, *table)
}

// runArenas runs the coherence arena for every application on the worker
// pool, emitting tables (or CSV) in application order.
func runArenas(w io.Writer, specs []*workloads.Spec, cfg harness.ArenaConfig, jobs int, csv bool) error {
	results := make([]*harness.ArenaResult, len(specs))
	errs := make([]error, len(specs))
	parallel.ForEach(len(specs), jobs,
		func(i int) {
			s := specs[i]
			fmt.Fprintf(os.Stderr, "arena %s (%s)...\n", s.Name, s.Description)
			results[i], errs[i] = harness.RunArena(s, cfg)
		},
		func(i int) {
			if !csv && errs[i] == nil {
				fmt.Fprintln(w, report.Arena(results[i]))
			}
		})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if csv {
		fmt.Fprint(w, report.ArenaCSV(results))
	}
	return nil
}

// runApps sweeps every application on the worker pool. Per-app detail
// blocks are emitted to w in application order regardless of completion
// order; the returned results are indexed like specs.
func runApps(w io.Writer, specs []*workloads.Spec, cfg harness.Config, jobs int, details bool) ([]*harness.AppResult, error) {
	results := make([]*harness.AppResult, len(specs))
	errs := make([]error, len(specs))
	parallel.ForEach(len(specs), jobs,
		func(i int) {
			s := specs[i]
			fmt.Fprintf(os.Stderr, "running %s (%s)...\n", s.Name, s.Description)
			results[i], errs[i] = harness.RunApp(s, cfg)
		},
		func(i int) {
			if details && errs[i] == nil {
				fmt.Fprintln(w, report.Details(results[i]))
			}
		})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
