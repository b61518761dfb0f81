// Package harness drives the paper's evaluation (§5): it runs each
// application sequentially and in BASE and CCDP versions across the PE
// counts of Tables 1 and 2, verifies every configuration's results against
// the sequential run (and that zero stale-value reads occurred), and
// computes the speedups and improvement percentages the tables report.
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// PaperPEs are the PE counts of the paper's tables.
var PaperPEs = []int{1, 2, 4, 8, 16, 32, 64}

// Row is one PE-count of one application.
type Row struct {
	PEs         int
	BaseCycles  int64
	CCDPCycles  int64
	BaseSpeedup float64
	CCDPSpeedup float64
	// Improvement is the percentage reduction of execution time of the
	// CCDP version over the BASE version (paper Table 2).
	Improvement float64
	BaseStats   stats.Stats
	CCDPStats   stats.Stats
	// BaseNet/CCDPNet are the interconnect snapshots (per-link utilization,
	// hop histogram); nil under the flat topology.
	BaseNet *noc.Summary
	CCDPNet *noc.Summary
	// BaseAttempts/CCDPAttempts count the runs it took to get a verified
	// result under fault injection (1 = first try; 0 when the mode was
	// skipped).
	BaseAttempts int
	CCDPAttempts int
}

// AppResult holds one application's sweep.
type AppResult struct {
	Name string
	// Profile is the machine-profile name the sweep ran on (normalized;
	// "t3d" when Config.Profile was empty). Reports use it to decide
	// whether to show coherence-domain columns.
	Profile   string
	SeqCycles int64
	Rows      []Row
}

// DefaultFaultRetries is how many extra attempts a failed faulted run gets
// when Config.FaultRetries is unset.
const DefaultFaultRetries = 2

// Config tunes a sweep.
type Config struct {
	PECounts []int
	// Profile names a machine profile from the machine registry
	// ("" = "t3d"). Every run of the sweep — including the sequential
	// golden — is built from it.
	Profile string
	// DomainSize overrides the profile's coherence-domain size when
	// positive (1 collapses the machine to per-PE domains, which makes the
	// stale analysis identical to an undomained run).
	DomainSize int
	// Tune lets ablations modify the machine parameters per run.
	Tune func(*machine.Params)
	// Modes restricts which parallel modes run (default BASE and CCDP).
	SkipBase bool
	// Fault configures seeded fault injection for the parallel runs. The
	// sequential golden run is never faulted — it defines correctness.
	Fault fault.Plan
	// FaultRetries is how many extra attempts a failed faulted run gets,
	// each with a reseeded fault plan and cold caches
	// (default DefaultFaultRetries; ignored when faults are off).
	FaultRetries int
	// Topology selects the interconnect model for the parallel runs (the
	// sequential baseline always runs flat). The zero value keeps the flat
	// constant-latency model, bit-identical to a pre-noc sweep.
	Topology noc.Config
	// Compile overrides how configurations are lowered (nil = core.Compile
	// on every run). The sweep service injects its shared compiled-program
	// cache here, so concurrent jobs that agree on (workload, mode,
	// machine) reuse one core.Compiled — and with it the per-Compiled
	// engine pool — across requests. Any override must return a Compiled
	// equivalent to core.Compile's for the same inputs; the harness relies
	// on nothing else.
	Compile func(s *workloads.Spec, mode core.Mode, mp machine.Params) (*core.Compiled, error)
}

// RunApp sweeps one application. Every parallel run's check arrays are
// verified bit-for-bit against the sequential run.
func RunApp(s *workloads.Spec, cfg Config) (*AppResult, error) {
	pes := cfg.PECounts
	if len(pes) == 0 {
		pes = PaperPEs
	}
	if _, err := machine.ProfileParams(cfg.Profile, 1); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	mk := func(p int) machine.Params {
		mp := machine.MustProfileParams(cfg.Profile, p)
		if cfg.DomainSize > 0 {
			mp.DomainSize = cfg.DomainSize
		}
		mp.Topology = cfg.Topology
		if cfg.Tune != nil {
			cfg.Tune(&mp)
		}
		return mp
	}

	seq, err := runOne(s, core.ModeSeq, mk(1), fault.Plan{}, cfg.Compile)
	if err != nil {
		return nil, fmt.Errorf("%s SEQ: %w", s.Name, err)
	}
	golden := snapshot(s, seq)

	type job struct {
		pe   int
		mode core.Mode
	}
	type out struct {
		res      *exec.Result
		attempts int
		err      error
	}
	jobs := []job{}
	for _, p := range pes {
		if !cfg.SkipBase {
			jobs = append(jobs, job{p, core.ModeBase})
		}
		jobs = append(jobs, job{p, core.ModeCCDP})
	}
	// The points fan out over the shared worker budget, like every other
	// sweep; each result lands in its job's slot, so the rows below are
	// assembled in the same order at any worker count.
	results := make([]out, len(jobs))
	parallel.ForEach(len(jobs), 0, func(i int) {
		jb := jobs[i]
		r, attempts, err := runVerified(s, jb.mode, mk(jb.pe), golden, cfg)
		results[i] = out{r, attempts, err}
	}, nil)

	ar := &AppResult{Name: s.Name, Profile: mk(1).Profile, SeqCycles: seq.Cycles}
	next := 0
	for _, p := range pes {
		row := Row{PEs: p}
		if !cfg.SkipBase {
			o := results[next]
			next++
			if o.err != nil {
				return nil, fmt.Errorf("%s BASE P=%d: %w", s.Name, p, o.err)
			}
			row.BaseCycles = o.res.Cycles
			row.BaseSpeedup = float64(seq.Cycles) / float64(o.res.Cycles)
			row.BaseStats = o.res.Stats
			row.BaseNet = o.res.Net
			row.BaseAttempts = o.attempts
		}
		o := results[next]
		next++
		if o.err != nil {
			return nil, fmt.Errorf("%s CCDP P=%d: %w", s.Name, p, o.err)
		}
		row.CCDPCycles = o.res.Cycles
		row.CCDPSpeedup = float64(seq.Cycles) / float64(o.res.Cycles)
		row.CCDPStats = o.res.Stats
		row.CCDPNet = o.res.Net
		row.CCDPAttempts = o.attempts
		if row.BaseCycles > 0 {
			row.Improvement = 100 * (1 - float64(row.CCDPCycles)/float64(row.BaseCycles))
		}
		ar.Rows = append(ar.Rows, row)
	}
	return ar, nil
}

func runOne(s *workloads.Spec, mode core.Mode, mp machine.Params, plan fault.Plan,
	compile func(*workloads.Spec, core.Mode, machine.Params) (*core.Compiled, error)) (*exec.Result, error) {
	if compile == nil {
		compile = func(s *workloads.Spec, mode core.Mode, mp machine.Params) (*core.Compiled, error) {
			return core.Compile(s.Prog, mode, mp)
		}
	}
	c, err := compile(s, mode, mp)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(c, exec.Options{FailOnStale: true, Fault: plan})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runVerified runs one configuration and verifies it against the golden
// arrays. Under fault injection a failed run is retried with a reseeded
// fault plan and cold caches, up to the configured budget; the returned
// error after exhaustion names the fault that killed the first attempt.
func runVerified(s *workloads.Spec, mode core.Mode, mp machine.Params, golden map[string][]float64, cfg Config) (*exec.Result, int, error) {
	retries := 0
	if cfg.Fault.Enabled() {
		retries = cfg.FaultRetries
		if retries <= 0 {
			retries = DefaultFaultRetries
		}
	}
	var firstErr error
	for attempt := 0; ; attempt++ {
		plan := cfg.Fault.Reseed(attempt) // attempt 0 keeps the seed
		r, err := runOne(s, mode, mp, plan, cfg.Compile)
		if err == nil {
			err = verify(golden, r)
		}
		if err == nil {
			return r, attempt + 1, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if attempt >= retries {
			if retries > 0 {
				return nil, attempt + 1, fmt.Errorf(
					"killed by injected faults (%s) after %d attempts: %w",
					cfg.Fault, attempt+1, firstErr)
			}
			return nil, attempt + 1, firstErr
		}
	}
}

func snapshot(s *workloads.Spec, r *exec.Result) map[string][]float64 {
	out := map[string][]float64{}
	for _, name := range s.CheckArrays {
		data := r.Mem.ArrayData(r.Mem.ArrayNamed(name))
		cp := make([]float64, len(data))
		copy(cp, data)
		out[name] = cp
	}
	return out
}

func verify(golden map[string][]float64, r *exec.Result) error {
	if r.Stats.StaleValueReads != 0 {
		return fmt.Errorf("%d stale-value reads", r.Stats.StaleValueReads)
	}
	for name, want := range golden {
		got := r.Mem.ArrayData(r.Mem.ArrayNamed(name))
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("array %s differs from sequential at %d: %v vs %v",
					name, i, got[i], want[i])
			}
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Coherence arena ---------------------------------------------------------

// ArenaConfig tunes one coherence-arena run.
type ArenaConfig struct {
	// PEs is the machine size (default 8).
	PEs int
	// Profile names a machine profile from the machine registry
	// ("" = "t3d").
	Profile string
	// Topology selects the interconnect for the parallel runs (the
	// sequential golden run always runs flat).
	Topology noc.Config
	// HWPrefetcher names a runtime prefetcher from the
	// internal/coherence/prefetch registry, paired with the hardware modes
	// only ("" = none).
	HWPrefetcher string
	// Tune lets ablations modify the machine parameters per run.
	Tune func(*machine.Params)
}

// ArenaEntry is one mode's verified arena run.
type ArenaEntry struct {
	Mode    core.Mode
	Cycles  int64
	Speedup float64 // over sequential
	Stats   stats.Stats
	Net     *noc.Summary
}

// ArenaResult is the coherence arena for one workload: the same program,
// machine and topology under every coherence scheme — the software ones
// (BASE, CCDP) and the hardware directory organizations — each verified
// bit-for-bit against the sequential run with zero oracle violations.
type ArenaResult struct {
	Name      string
	PEs       int
	SeqCycles int64
	Entries   []ArenaEntry
}

// ArenaModes are the modes the arena compares: every registered mode
// except the sequential golden baseline and the deliberately broken
// INCOHERENT demonstrator. Derived from the core mode registry, so new
// modes join the arena by registration.
func ArenaModes() []core.Mode {
	var out []core.Mode
	for _, s := range core.ModeSpecs() {
		if s.Mode == core.ModeSeq || s.Mode == core.ModeIncoherent {
			continue
		}
		out = append(out, s.Mode)
	}
	return out
}

// RunArena runs one workload through the coherence arena.
func RunArena(s *workloads.Spec, cfg ArenaConfig) (*ArenaResult, error) {
	pes := cfg.PEs
	if pes <= 0 {
		pes = 8
	}
	if _, err := machine.ProfileParams(cfg.Profile, 1); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	mk := func(mode core.Mode) machine.Params {
		mp := machine.MustProfileParams(cfg.Profile, pes)
		mp.Topology = cfg.Topology
		if mode.IsHW() {
			mp.HWPrefetcher = cfg.HWPrefetcher
		}
		if cfg.Tune != nil {
			cfg.Tune(&mp)
		}
		return mp
	}

	seq, err := runOne(s, core.ModeSeq, machine.MustProfileParams(cfg.Profile, 1), fault.Plan{}, nil)
	if err != nil {
		return nil, fmt.Errorf("%s SEQ: %w", s.Name, err)
	}
	golden := snapshot(s, seq)

	ar := &ArenaResult{Name: s.Name, PEs: pes, SeqCycles: seq.Cycles}
	for _, mode := range ArenaModes() {
		r, _, err := runVerified(s, mode, mk(mode), golden, Config{})
		if err != nil {
			return nil, fmt.Errorf("%s %s P=%d: %w", s.Name, mode, pes, err)
		}
		if v := r.Stats.OracleViolations; v != 0 {
			return nil, fmt.Errorf("%s %s P=%d: %d oracle violations", s.Name, mode, pes, v)
		}
		ar.Entries = append(ar.Entries, ArenaEntry{
			Mode:    mode,
			Cycles:  r.Cycles,
			Speedup: float64(seq.Cycles) / float64(r.Cycles),
			Stats:   r.Stats,
			Net:     r.Net,
		})
	}
	return ar, nil
}
