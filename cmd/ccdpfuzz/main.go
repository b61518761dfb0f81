// Command ccdpfuzz runs differential fuzzing campaigns over randomly
// generated epoch programs: every program is executed across the
// BASE/CCDP × flat/torus × fault-plan matrix — plus the three hardware
// directory modes fault-free — and refereed by the coherence oracle, the
// compiled-program invariant checker, and divergence from the sequential
// golden arrays. Findings are auto-minimized (internal/shrink)
// and written as deterministic, replayable .repro artifacts.
//
// Usage:
//
//	ccdpfuzz [-seed 0] [-n 0] [-budget 30s] [-jobs 0] [-out DIR]
//	         [-mutate none|no-invalidate|no-sched-marks|no-dir-invalidate|no-domain-demotion-check]
//	         [-shrink] [-max-findings 0]
//	         [-arrays 5] [-epochs 5] [-offset 3] [-timesteps 3]
//	ccdpfuzz -replay FILE...
//
// Examples:
//
//	ccdpfuzz -budget 30s                        # CI smoke: exit 1 on finding
//	ccdpfuzz -n 500 -jobs 8 -out findings/      # 500 programs, artifacts out
//	ccdpfuzz -budget 10s -mutate no-invalidate  # prove the oracle referee bites
//	ccdpfuzz -replay findings/s000007-no-invalidate-oracle.repro
//
// A campaign prints "resume with -seed N" on exit; rerunning with that seed
// continues exactly where the previous campaign stopped. Seeds are consumed
// in order and results are collected in order, so output is byte-identical
// at any -jobs setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/fuzz"
	"repro/internal/progen"
)

const tool = "ccdpfuzz"

func main() {
	seed := flag.Int64("seed", 0, "first program seed (campaigns consume seeds consecutively)")
	n := flag.Int("n", 0, "number of programs to generate (0 = bounded by -budget)")
	budget := flag.Duration("budget", 0, "wall-clock budget (0 = bounded by -n)")
	jobs := flag.Int("jobs", 0, "parallel workers (0 = GOMAXPROCS)")
	out := flag.String("out", "", "directory to write finding artifacts into")
	mutate := flag.String("mutate", "none", "sabotage compiled programs: none, no-invalidate, no-sched-marks, no-dir-invalidate or no-domain-demotion-check")
	matrix := flag.String("matrix", "", "run configurations, ';'-separated (e.g. \"mode=CCDP pes=8 topo=torus\"); empty = full default matrix")
	shrinkFlag := flag.Bool("shrink", true, "minimize findings before recording them")
	maxFindings := flag.Int("max-findings", 0, "stop after this many findings (0 = no cap)")
	arrays := flag.Int("arrays", 5, "generator: max shared arrays per program")
	epochs := flag.Int("epochs", 5, "generator: max epochs per program segment")
	offset := flag.Int("offset", 3, "generator: max |read offset|")
	timesteps := flag.Int("timesteps", 3, "generator: max time-step loop iterations")
	replay := flag.Bool("replay", false, "replay artifact files given as arguments instead of fuzzing")
	quiet := flag.Bool("q", false, "suppress per-batch progress lines")
	flag.Parse()

	if *replay {
		replayFiles(flag.Args())
		return
	}
	if flag.NArg() > 0 {
		driver.Fatal(tool, fmt.Errorf("unexpected arguments %v (use -replay to replay artifacts)", flag.Args()))
	}
	if *n <= 0 && *budget <= 0 {
		*budget = 30 * time.Second
	}
	mut, err := fuzz.ParseMutation(*mutate)
	if err != nil {
		driver.Fatal(tool, err)
	}
	if *arrays < 1 || *epochs < 1 || *offset < 0 || *timesteps < 0 {
		driver.Fatal(tool, fmt.Errorf("generator bounds must be positive"))
	}
	var runConfigs []fuzz.RunConfig
	if *matrix != "" {
		for _, part := range strings.Split(*matrix, ";") {
			rc, err := fuzz.ParseRunConfig(part)
			if err != nil {
				driver.Fatal(tool, err)
			}
			runConfigs = append(runConfigs, rc)
		}
	}

	cfg := fuzz.Config{
		Seed:        *seed,
		Programs:    *n,
		Budget:      *budget,
		Jobs:        *jobs,
		Gen:         progen.Config{MaxArrays: *arrays, MaxEpochs: *epochs, MaxOffset: *offset, MaxTimeSteps: *timesteps},
		Matrix:      runConfigs,
		Mutation:    mut,
		Shrink:      *shrinkFlag,
		MaxFindings: *maxFindings,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	sum, err := fuzz.Run(cfg)
	if err != nil {
		driver.Fatal(tool, err)
	}
	for _, f := range sum.Findings {
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				driver.Fatal(tool, err)
			}
			path := filepath.Join(*out, fuzz.ArtifactName(f))
			if err := os.WriteFile(path, []byte(fuzz.FormatFinding(f)), 0o644); err != nil {
				driver.Fatal(tool, err)
			}
			fmt.Printf("finding: seed=%d referee=%s -> %s\n", f.Seed, f.Referee, path)
		} else {
			fmt.Printf("finding: seed=%d referee=%s mutation=%s %s: %s\n",
				f.Seed, f.Referee, f.Mutation, f.Config, f.Detail)
		}
	}
	fmt.Printf("%d programs, %d runs, %d findings in %.1fs; resume with -seed %d\n",
		sum.Programs, sum.Runs, len(sum.Findings), sum.Elapsed.Seconds(), sum.NextSeed)
	if len(sum.Findings) > 0 {
		os.Exit(1)
	}
}

// replayFiles re-referees each artifact's program under its recorded
// configuration and mutation; exit status 0 means every artifact
// reproduced its recorded referee.
func replayFiles(paths []string) {
	if len(paths) == 0 {
		driver.Fatal(tool, fmt.Errorf("-replay needs artifact file arguments"))
	}
	ok := true
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			driver.Fatal(tool, err)
		}
		f, err := fuzz.ParseFinding(string(data))
		if err != nil {
			driver.Fatal(tool, fmt.Errorf("%s: %w", path, err))
		}
		nf := fuzz.Replay(f)
		switch {
		case nf == nil:
			fmt.Printf("%s: NOT reproduced (program runs clean; recorded referee %s)\n", path, f.Referee)
			ok = false
		case nf.Referee == f.Referee:
			fmt.Printf("%s: reproduced (%s: %s)\n", path, nf.Referee, nf.Detail)
		default:
			fmt.Printf("%s: DIFFERENT referee (recorded %s, observed %s: %s)\n",
				path, f.Referee, nf.Referee, nf.Detail)
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}
