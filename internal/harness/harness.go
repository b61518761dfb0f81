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
	// SkipBase drops the BASE runs: the sweep runs the sequential golden
	// and CCDP only.
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

// params builds the machine for one run of the sweep at p PEs: the
// profile at that size with the config's domain size, topology and tuning
// applied.
func (cfg *Config) params(p int) machine.Params {
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

// golden runs the sequential baseline every parallel run is verified
// against.
func (cfg *Config) golden(s *workloads.Spec) (*exec.Result, map[string][]float64, error) {
	if _, err := machine.ProfileParams(cfg.Profile, 1); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	seq, err := runOne(s, core.ModeSeq, cfg.params(1), fault.Plan{}, cfg.Compile)
	if err != nil {
		return nil, nil, fmt.Errorf("%s SEQ: %w", s.Name, err)
	}
	return seq, snapshot(s, seq), nil
}

// RunApp sweeps one application. Every parallel run's check arrays are
// verified bit-for-bit against the sequential run.
func RunApp(s *workloads.Spec, cfg Config) (*AppResult, error) {
	pes := cfg.PECounts
	if len(pes) == 0 {
		pes = PaperPEs
	}
	seq, golden, err := cfg.golden(s)
	if err != nil {
		return nil, err
	}

	type point struct {
		pe   int
		mode core.Mode
	}
	type out struct {
		res      *exec.Result
		attempts int
	}
	var points []point
	for _, p := range pes {
		if !cfg.SkipBase {
			points = append(points, point{p, core.ModeBase})
		}
		points = append(points, point{p, core.ModeCCDP})
	}
	// The points fan out over the shared worker budget, like every other
	// sweep; the results come back in point order at any worker count, and
	// the first failing point (in that order) is the error.
	results, err := parallel.ForEach(len(points), 0, func(i int) (out, error) {
		pt := points[i]
		r, attempts, err := runVerified(s, pt.mode, cfg.params(pt.pe), golden, &cfg)
		if err != nil {
			return out{}, fmt.Errorf("%s %s P=%d: %w", s.Name, pt.mode, pt.pe, err)
		}
		return out{r, attempts}, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	ar := &AppResult{Name: s.Name, Profile: cfg.params(1).Profile, SeqCycles: seq.Cycles}
	for _, p := range pes {
		row := Row{PEs: p}
		if !cfg.SkipBase {
			o := results[0]
			results = results[1:]
			row.BaseCycles = o.res.Cycles
			row.BaseSpeedup = float64(seq.Cycles) / float64(o.res.Cycles)
			row.BaseStats = o.res.Stats
			row.BaseNet = o.res.Net
			row.BaseAttempts = o.attempts
		}
		o := results[0]
		results = results[1:]
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
func runVerified(s *workloads.Spec, mode core.Mode, mp machine.Params, golden map[string][]float64, cfg *Config) (*exec.Result, int, error) {
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

// --- Coherence arena ---------------------------------------------------------

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

// RunArena runs one workload through the coherence arena: every arena mode
// on the config's machine at pes PEs (default 8), with the runtime
// prefetcher hwPrefetcher (a name from the internal/coherence/prefetch
// registry, "" = none) paired with the hardware modes only. The config's
// PE counts and SkipBase are ignored; the modes run one after another.
func RunArena(s *workloads.Spec, cfg Config, pes int, hwPrefetcher string) (*ArenaResult, error) {
	if pes <= 0 {
		pes = 8
	}
	seq, golden, err := cfg.golden(s)
	if err != nil {
		return nil, err
	}

	ar := &ArenaResult{Name: s.Name, PEs: pes, SeqCycles: seq.Cycles}
	for _, mode := range ArenaModes() {
		mp := cfg.params(pes)
		if mode.IsHW() {
			mp.HWPrefetcher = hwPrefetcher
		}
		r, _, err := runVerified(s, mode, mp, golden, &cfg)
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
