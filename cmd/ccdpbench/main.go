// Command ccdpbench regenerates the paper's evaluation: Table 1 (speedups
// of BASE and CCDP over sequential) and Table 2 (% improvement of CCDP over
// BASE) for MXM, VPENTA, TOMCATV and SWIM across 1–64 PEs, plus the
// ablation experiments DESIGN.md defines.
//
// Every mode starts from the same sweep points: one sweepd.JobSpec per
// application, built once from the flags and resolved by
// JobSpec.Resolve — the path the sweep service takes — into a workload and
// a harness.Config. The plain sweep runs each resolved point through
// sweepd.Job.Run; the experiments override only their own axis of it
// (-faultsweep the fault plan, -arena the machine size and the modes,
// -ablation and -sweep the machine tuning, on their fixed workloads).
//
// Independent sweep points (applications, parameter settings, fault
// trials) run concurrently through parallel.ForEach (-jobs, default
// GOMAXPROCS); rows are always emitted in deterministic point order, so
// the output is byte-identical at any -jobs setting, and the first failed
// point in that order stops the output and is the error.
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
// -server is a transport switch for the plain sweep: the same job specs
// go to a persistent sweepd process (see cmd/sweepd), where repeated
// sweeps hit its content-addressed result memo and shared compile cache,
// while stdout stays byte-identical to the in-process path because the
// results are rendered locally by the same report code.
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
)

const tool = "ccdpbench"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		driver.Fatal(tool, err)
	}
}

// run is the whole command: it parses args and writes the report to
// stdout (progress lines go to stderr).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(tool, flag.ExitOnError)
	table := fs.String("table", "all", "which table to print: 1, 2 or all")
	apps := fs.String("apps", "MXM,VPENTA,TOMCATV,SWIM", "comma-separated application list")
	pes := fs.String("pes", "1,2,4,8,16,32,64", "comma-separated PE counts")
	scale := fs.String("scale", "paper", "problem scale: small or paper")
	profile := fs.String("machine-profile", "t3d", driver.ProfileUsage())
	domainSize := fs.Int("domain-size", 0,
		"override the profile's coherence-domain size (0 = profile default, 1 = per-PE domains)")
	details := fs.Bool("details", false, "print per-configuration details")
	csv := fs.Bool("csv", false, "emit machine-readable CSV instead of tables")
	arena := fs.Bool("arena", false, "run the coherence arena instead: every mode (software and hardware directory) on one machine size")
	arenaPEs := fs.Int("arena-pes", 8, "machine size for -arena")
	ablation := fs.String("ablation", "", "run an ablation instead: vpg, mbp or nonstale")
	sweep := fs.String("sweep", "", "run an architectural parameter sweep instead: remote, cache, queue or line")
	jobs := fs.Int("jobs", 0, "concurrent sweep points (0 = GOMAXPROCS); output is identical at any setting")
	server := fs.String("server", "", "serve the sweep from a persistent sweepd at this base URL instead of running in-process (output is byte-identical)")
	serverPriority := fs.Int("server-priority", 0, "job priority for -server submissions (higher runs first)")
	faultSweep := fs.Bool("faultsweep", false, "run the fault-injection sweep ablation instead")
	faultRates := fs.String("fault-rates", "0.001,0.01,0.05", "fault rates for -faultsweep")
	faultTrials := fs.Int("fault-trials", 3, "trials (distinct seeds) per rate for -faultsweep")
	tf := driver.RegisterTopology(fs)
	hf := driver.RegisterHW(fs)
	ff := driver.RegisterFault(fs)
	pf := driver.RegisterProf(fs)
	fs.Parse(args)

	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	peCounts, err := driver.ParsePEs(*pes)
	if err != nil {
		return err
	}
	// One sweep point per application: every mode starts from these, and
	// they resolve through sweepd.JobSpec exactly as a served job does.
	var specs []sweepd.JobSpec
	for _, app := range strings.Split(*apps, ",") {
		specs = append(specs, sweepd.JobSpec{
			App: app, Scale: *scale, PEs: peCounts,
			Profile: *profile, DomainSize: *domainSize, Topology: tf.String(),
			FaultRate: *ff.Rate, FaultKinds: *ff.Kinds, FaultSeed: *ff.Seed,
		})
	}

	experiment := *faultSweep || *arena || *ablation != "" || *sweep != ""
	var client *sweepd.Client
	if *server != "" {
		if experiment {
			return fmt.Errorf(
				"-server serves plain sweeps only; -arena, -ablation, -sweep and -faultsweep run in-process")
		}
		client = &sweepd.Client{Base: strings.TrimRight(*server, "/"), Priority: *serverPriority}
	}
	if !experiment {
		results, err := sweepApps(stdout, specs, client, *jobs, *details)
		switch {
		case err != nil:
			return err
		case *csv:
			fmt.Fprint(stdout, report.CSV(results))
		case *table == "1":
			fmt.Fprintln(stdout, report.Table1(results))
		case *table == "2":
			fmt.Fprintln(stdout, report.Table2(results))
		default:
			fmt.Fprintln(stdout, report.Table1(results))
			fmt.Fprintln(stdout, report.Table2(results))
		}
		return nil
	}

	points, err := resolve(specs)
	if err != nil {
		return err
	}
	switch {
	case *faultSweep:
		return runFaultSweep(stdout, points, *ff.Kinds, *faultRates, *faultTrials, *ff.Seed, *jobs)
	case *arena:
		return runArenas(stdout, points, *arenaPEs, hf, *jobs, *csv)
	case *ablation != "":
		// The ablations and sweeps keep their fixed workloads and take the
		// machine configuration every point shares.
		return runAblation(stdout, *ablation, points[0].Cfg, *jobs)
	default:
		return runSweep(stdout, *sweep, points[0].Cfg, *jobs)
	}
}

// resolve validates every sweep point against the registries — the one
// path from flags to a harness configuration, shared with the sweep
// service.
func resolve(specs []sweepd.JobSpec) ([]*sweepd.Job, error) {
	points := make([]*sweepd.Job, len(specs))
	for i := range specs {
		j, err := specs[i].Resolve()
		if err != nil {
			return nil, err
		}
		points[i] = j
	}
	return points, nil
}

// sweepApps runs the plain sweep, one job per application, and returns the
// results indexed like specs. The only branch is the transport: without a
// client the jobs run in-process on the worker pool, with one they are
// served by a sweepd. Either way the per-app detail blocks go to w in
// application order, rendered by the same report code, so stdout is
// byte-identical — and a repeated served sweep comes from the server's
// content-addressed memo without touching the simulator.
func sweepApps(w io.Writer, specs []sweepd.JobSpec, client *sweepd.Client, jobs int, details bool) ([]*harness.AppResult, error) {
	emit := func(_ int, ar *harness.AppResult) {
		if details {
			fmt.Fprintln(w, report.Details(ar))
		}
	}
	if client != nil {
		results, sum, err := client.Sweep(specs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "served sweep: rows=%d memo_hits=%d\n", sum.Rows, sum.MemoHits)
		for i, ar := range results {
			emit(i, ar)
		}
		return results, nil
	}
	points, err := resolve(specs)
	if err != nil {
		return nil, err
	}
	return parallel.ForEach(len(points), jobs, func(i int) (*harness.AppResult, error) {
		s := points[i].Spec
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", s.Name, s.Description)
		return points[i].Run(nil)
	}, emit)
}

// runArenas runs the coherence arena for every application on the worker
// pool, emitting tables (or CSV) in application order. Each point keeps
// its resolved configuration; the arena sets the machine size, the
// directory shape and the hardware modes' runtime prefetcher.
func runArenas(w io.Writer, points []*sweepd.Job, pes int, hf *driver.HWFlags, jobs int, csv bool) error {
	results, err := parallel.ForEach(len(points), jobs,
		func(i int) (*harness.ArenaResult, error) {
			s, cfg := points[i].Spec, points[i].Cfg
			fmt.Fprintf(os.Stderr, "arena %s (%s)...\n", s.Name, s.Description)
			cfg.Tune = func(mp *machine.Params) {
				mp.DirPointers = *hf.Pointers
				mp.DirSparseLines = *hf.SparseLines
				mp.DirSparseWays = *hf.SparseWays
			}
			return harness.RunArena(s, cfg, pes, *hf.Prefetcher)
		},
		func(_ int, ar *harness.ArenaResult) {
			if !csv {
				fmt.Fprintln(w, report.Arena(ar))
			}
		})
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprint(w, report.ArenaCSV(results))
	}
	return nil
}
