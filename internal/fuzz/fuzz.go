// Package fuzz is the differential fuzzing campaign of the reproduction:
// it drives randomly generated epoch programs (internal/progen) through the
// BASE/CCDP × flat/torus × fault-plan matrix and referees every run three
// ways — the coherence-safety oracle (Stats.OracleViolations), the
// compiled-program invariant checker (pass.Check), and cross-mode
// divergence of the final shared arrays from the sequential golden run. A
// run that panics is captured by a per-run recover and becomes a recorded
// finding instead of killing the campaign (the intentional shmem
// out-of-range panics surface here as run findings).
//
// Findings are minimized with internal/shrink and written as deterministic
// text artifacts that embed the generator seed, the exact run
// configuration, and the minimized program in ir.Format form — replayable
// forever via ParseFinding + Replay. The committed corpus under corpus/ is
// exactly such a set of artifacts, replayed as a regression test.
package fuzz

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/pass"
	"repro/internal/progen"
	"repro/internal/shrink"
)

// Referee identifies which check flagged a finding.
type Referee int

const (
	// RefereeCompile: the compiler rejected (or the generator produced an
	// invalid) program.
	RefereeCompile Referee = iota
	// RefereeInvariant: pass.Check rejected the compiled program (analysis
	// maps and program annotations disagree).
	RefereeInvariant
	// RefereeRun: execution returned an error — engine-recovered panics
	// (shmem out-of-range, model violations) land here.
	RefereeRun
	// RefereeOracle: the coherence-safety oracle observed a consumed word
	// whose generation lagged memory (a stale-value read).
	RefereeOracle
	// RefereeDivergence: final shared arrays differ from the sequential
	// golden run.
	RefereeDivergence
	// RefereePanic: the harness-level recover caught a panic outside the
	// engine (compiler or referee code itself).
	RefereePanic
)

func (r Referee) String() string {
	switch r {
	case RefereeCompile:
		return "compile"
	case RefereeInvariant:
		return "invariant"
	case RefereeRun:
		return "run"
	case RefereeOracle:
		return "oracle"
	case RefereeDivergence:
		return "divergence"
	case RefereePanic:
		return "panic"
	default:
		return fmt.Sprintf("Referee(%d)", int(r))
	}
}

// ParseReferee reads a Referee in String form.
func ParseReferee(s string) (Referee, error) {
	for _, r := range []Referee{RefereeCompile, RefereeInvariant, RefereeRun,
		RefereeOracle, RefereeDivergence, RefereePanic} {
		if s == r.String() {
			return r, nil
		}
	}
	return 0, fmt.Errorf("fuzz: unknown referee %q", s)
}

// Finding is one refereed failure, minimized when the campaign shrinks.
type Finding struct {
	Seed     int64 // generator seed (0 for handcrafted/replayed programs)
	Config   RunConfig
	Mutation Mutation
	Referee  Referee
	Detail   string
	// Program is the source-level program exhibiting the failure
	// (minimized when ShrinkSteps > 0 or the campaign ran with Shrink).
	Program     *ir.Program
	ShrinkSteps int
}

// Config parameterizes a campaign. At least one of Programs and Budget must
// bound it.
type Config struct {
	// Seed is the first program seed; seeds are consumed consecutively, so
	// Summary.NextSeed resumes a campaign exactly where it stopped.
	Seed int64
	// Programs caps how many programs to generate (0 = unbounded, Budget
	// must then be set).
	Programs int
	// Budget caps the campaign wall clock (checked between batches).
	Budget time.Duration
	// Jobs is the worker count for parallel.ForEach (<= 0 = GOMAXPROCS).
	Jobs int
	// Gen bounds the generated programs; the zero value means
	// progen.DefaultConfig.
	Gen progen.Config
	// Matrix lists the run configurations; nil means DefaultMatrix(Seed).
	Matrix []RunConfig
	// Mutation sabotages every compiled program (mutation testing of the
	// referees); MutNone for real campaigns.
	Mutation Mutation
	// Shrink minimizes each finding's program before recording it.
	Shrink bool
	// MaxFindings stops the campaign early once reached (0 = no cap).
	MaxFindings int
	// Log, when non-nil, receives one progress line per batch and per
	// finding.
	Log io.Writer
}

// Summary is the outcome of a campaign.
type Summary struct {
	Programs int
	Runs     int
	Findings []*Finding
	// NextSeed is the first unconsumed program seed; pass it as
	// Config.Seed to resume the campaign.
	NextSeed int64
	Elapsed  time.Duration
}

// Run executes a campaign: batches of consecutive program seeds fan out
// over parallel.ForEach workers (each worker generates, runs the full
// matrix, and shrinks its own findings), and results are collected in seed
// order, so the campaign's findings, log and artifacts are byte-identical
// at any -jobs setting.
func Run(cfg Config) (*Summary, error) {
	if cfg.Programs <= 0 && cfg.Budget <= 0 {
		return nil, fmt.Errorf("fuzz: unbounded campaign (set Programs or Budget)")
	}
	if cfg.Gen == (progen.Config{}) {
		cfg.Gen = progen.DefaultConfig()
	}
	if cfg.Matrix == nil {
		cfg.Matrix = DefaultMatrix(cfg.Seed)
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	workers := cfg.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := 4 * workers
	if batch < 8 {
		batch = 8
	}

	start := time.Now()
	sum := &Summary{NextSeed: cfg.Seed}
	for {
		n := batch
		if cfg.Programs > 0 {
			if left := cfg.Programs - sum.Programs; left < n {
				n = left
			}
		}
		if n <= 0 {
			break
		}
		if cfg.Budget > 0 && time.Since(start) >= cfg.Budget {
			break
		}
		type out struct {
			finding *Finding
			runs    int
		}
		// A finding is data, not an error: every seed of the batch runs.
		res, _ := parallel.ForEach(n, cfg.Jobs, func(i int) (out, error) {
			seed := sum.NextSeed + int64(i)
			f, runs := CheckSeed(seed, cfg.Gen, cfg.Matrix, cfg.Mutation)
			if f != nil && cfg.Shrink {
				shrinkFinding(f)
			}
			return out{finding: f, runs: runs}, nil
		}, nil)
		stop := false
		for i := range res {
			sum.Programs++
			sum.Runs += res[i].runs
			if f := res[i].finding; f != nil {
				sum.Findings = append(sum.Findings, f)
				logf("fuzz: FINDING seed=%d referee=%s mutation=%s %s: %s",
					f.Seed, f.Referee, f.Mutation, f.Config, f.Detail)
				if cfg.MaxFindings > 0 && len(sum.Findings) >= cfg.MaxFindings {
					sum.NextSeed += int64(i + 1)
					stop = true
					break
				}
			}
		}
		if !stop {
			sum.NextSeed += int64(n)
			logf("fuzz: seeds %d..%d: %d programs, %d runs, %d findings, %.1fs",
				cfg.Seed, sum.NextSeed-1, sum.Programs, sum.Runs, len(sum.Findings),
				time.Since(start).Seconds())
		}
		if stop {
			break
		}
	}
	sum.Elapsed = time.Since(start)
	return sum, nil
}

// CheckSeed generates the program of one seed and referees it across the
// matrix. It returns the first finding (nil if clean) and how many
// compile+run configurations were exercised.
func CheckSeed(seed int64, gen progen.Config, matrix []RunConfig, mut Mutation) (*Finding, int) {
	p := progen.Generate(rand.New(rand.NewSource(seed)), gen)
	f, runs := CheckProgram(p, matrix, mut)
	if f != nil {
		f.Seed = seed
	}
	return f, runs
}

// CheckProgram referees one source program across the matrix, stopping at
// the first finding. The sequential golden run is computed lazily — only
// the divergence referee needs it — and at most once.
func CheckProgram(p *ir.Program, matrix []RunConfig, mut Mutation) (*Finding, int) {
	if err := ir.Validate(p); err != nil {
		return &Finding{Referee: RefereeCompile, Program: p,
			Detail: "invalid program: " + oneLine(err.Error())}, 0
	}
	golden := lazyGolden(p)
	runs := 0
	for _, rc := range matrix {
		runs++
		if f := checkOne(p, golden, rc, mut); f != nil {
			f.Program = p
			return f, runs
		}
	}
	return nil, runs
}

// goldenFn lazily computes the sequential golden arrays; a non-nil Finding
// means the sequential run itself failed.
type goldenFn func() (map[string][]float64, *Finding)

func lazyGolden(p *ir.Program) goldenFn {
	var arrays map[string][]float64
	var f *Finding
	done := false
	return func() (map[string][]float64, *Finding) {
		if done {
			return arrays, f
		}
		done = true
		seqCfg := RunConfig{Mode: core.ModeSeq, PEs: 1}
		func() {
			defer recoverInto(&f, seqCfg, MutNone)
			// The golden arrays are deliberately machine-independent: the
			// t3d profile at one PE defines correctness for every profile
			// in the matrix.
			c, err := core.Compile(p, core.ModeSeq, machine.MustProfileParams("t3d", 1))
			if err != nil {
				f = &Finding{Config: seqCfg, Referee: RefereeCompile, Detail: oneLine(err.Error())}
				return
			}
			r, err := exec.Run(c, exec.Options{})
			if err != nil {
				f = &Finding{Config: seqCfg, Referee: RefereeRun, Detail: oneLine(err.Error())}
				return
			}
			arrays = map[string][]float64{}
			for _, a := range p.Arrays {
				if !a.Shared {
					continue
				}
				data := r.Mem.ArrayData(r.Mem.ArrayNamed(a.Name))
				cp := make([]float64, len(data))
				copy(cp, data)
				arrays[a.Name] = cp
			}
		}()
		return arrays, f
	}
}

// recoverInto is the per-run recover that turns a panic into a finding.
func recoverInto(f **Finding, rc RunConfig, mut Mutation) {
	if r := recover(); r != nil {
		*f = &Finding{Config: rc, Mutation: mut, Referee: RefereePanic,
			Detail: oneLine(fmt.Sprint(r))}
	}
}

// checkOne compiles, sabotages, and runs one configuration, applying the
// three referees in order: invariant check, oracle, divergence.
func checkOne(p *ir.Program, golden goldenFn, rc RunConfig, mut Mutation) (f *Finding) {
	defer recoverInto(&f, rc, mut)

	mp, err := rc.MachineParams()
	if err != nil {
		return &Finding{Config: rc, Mutation: mut, Referee: RefereeCompile, Detail: oneLine(err.Error())}
	}
	c, err := core.Compile(p, rc.Mode, mp)
	if err != nil {
		return &Finding{Config: rc, Mutation: mut, Referee: RefereeCompile, Detail: oneLine(err.Error())}
	}
	Sabotage(c, mut)
	if err := checkCompiled(c); err != nil {
		return &Finding{Config: rc, Mutation: mut, Referee: RefereeInvariant, Detail: oneLine(err.Error())}
	}
	r, err := exec.Run(c, exec.Options{Fault: rc.Fault})
	if err != nil {
		return &Finding{Config: rc, Mutation: mut, Referee: RefereeRun, Detail: oneLine(err.Error())}
	}
	if n := r.Stats.OracleViolations; n > 0 {
		detail := fmt.Sprintf("%d oracle violations", n)
		if len(r.Violations) > 0 {
			detail += "; first: " + oneLine(r.Violations[0].Error())
		}
		return &Finding{Config: rc, Mutation: mut, Referee: RefereeOracle, Detail: detail}
	}
	want, gf := golden()
	if gf != nil {
		return gf
	}
	for _, a := range p.Arrays {
		if !a.Shared {
			continue
		}
		got := r.Mem.ArrayData(r.Mem.ArrayNamed(a.Name))
		for i := range want[a.Name] {
			if got[i] != want[a.Name][i] {
				return &Finding{Config: rc, Mutation: mut, Referee: RefereeDivergence,
					Detail: fmt.Sprintf("%s[%d]: got %v, sequential golden %v", a.Name, i, got[i], want[a.Name][i])}
			}
		}
	}

	return nil
}

// checkCompiled runs the pass-framework invariant checker over a compiled
// program — the referee that catches analysis/annotation disagreements
// (e.g. scheduler marks sabotaged away from the stale analysis).
func checkCompiled(c *core.Compiled) error {
	ctx := &pass.Context{
		Prog:    c.Prog,
		Machine: c.Machine,
		Stale:   c.Stale,
		Targets: c.Targets,
		Sched:   c.Sched,
		Syms:    c.Syms,
		Prov:    c.Prov,
	}
	return pass.Check(ctx)
}

// shrinkFinding minimizes a finding's program: the failure predicate is
// "the same referee fires under the same configuration and mutation".
func shrinkFinding(f *Finding) {
	res := shrink.Minimize(f.Program, func(q *ir.Program) bool {
		nf, _ := CheckProgram(q, []RunConfig{f.Config}, f.Mutation)
		if nf == nil || nf.Referee != f.Referee {
			return false
		}
		// A mutation finding is differential: the program fails under the
		// sabotaged compiler but is handled cleanly by the real one. Keep
		// that property through shrinking, or the minimized witness could
		// degrade into a program that is simply broken on its own (e.g. an
		// extent halved under a subscript the invariant referee never runs).
		if f.Mutation != MutNone {
			if clean, _ := CheckProgram(q, []RunConfig{f.Config}, MutNone); clean != nil {
				return false
			}
		}
		return true
	})
	f.Program = res.Program
	f.ShrinkSteps = res.Steps
	// Re-derive the detail from the minimized program so the artifact
	// describes the repro it actually contains.
	if nf, _ := CheckProgram(f.Program, []RunConfig{f.Config}, f.Mutation); nf != nil {
		f.Detail = nf.Detail
	}
}

// Replay re-referees a finding's recorded program under its recorded
// configuration and mutation. It returns the observed finding (nil when
// the program runs clean) — a faithful replay observes the same referee.
func Replay(f *Finding) *Finding {
	nf, _ := CheckProgram(f.Program, []RunConfig{f.Config}, f.Mutation)
	return nf
}

func oneLine(s string) string {
	return strings.Join(strings.Fields(strings.ReplaceAll(s, "\n", " ")), " ")
}
