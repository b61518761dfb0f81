// Package pass is the CCDP compiler's pass-manager framework. The paper's
// pipeline — stale reference analysis (§4.1), prefetch target analysis
// (Figure 1), prefetch scheduling (Figure 2) — plus the supporting lowering
// steps are expressed as named, ordered passes over a shared Context that
// carries the cloned program and every artifact the passes accumulate.
//
// The manager gives the pipeline the auditability a software-coherence
// scheme needs (a wrong pass decision silently becomes a stale-value read):
// per-pass wall time, stable textual/JSON snapshots after any pass, optional
// between-pass invariant checking, and a provenance store recording a reason
// for every per-reference decision, surfaced by `ccdpc -explain`.
//
// The concrete passes live in internal/core, which assembles a pipeline per
// execution mode; this package is mode-agnostic.
package pass

import (
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stale"
	"repro/internal/target"
)

// Context is the shared state a pipeline threads through its passes. The
// source program is never mutated: the clone pass snapshots it and all later
// passes annotate and transform the clone.
type Context struct {
	// Src is the source program. Read-only for every pass.
	Src *ir.Program
	// Prog is the working clone; nil until the clone pass runs.
	Prog *ir.Program
	// Machine is the target configuration the program is lowered for.
	Machine machine.Params

	// TotalWords is the extent of the laid-out shared address space, set by
	// the layout pass.
	TotalWords int64

	// Candidates is the prefetch candidate set the candidate-selection pass
	// derives from the stale analysis (widened by the §6 non-stale extension
	// when Machine.PrefetchNonStale is set).
	Candidates map[ir.RefID]bool

	// Analysis artifacts (CCDP pipelines only; nil otherwise).
	Stale   *stale.Result
	Targets *target.Result
	Sched   *sched.Result

	// Syms is the interned symbol table of the final program.
	Syms *ir.SymTable

	// Prov records a reason for every per-reference decision the passes
	// make. Never nil once a Manager has run.
	Prov *Provenance
}

// Pass is one named pipeline stage.
type Pass interface {
	Name() string
	Run(ctx *Context) error
}

type funcPass struct {
	name string
	fn   func(*Context) error
}

func (p funcPass) Name() string           { return p.name }
func (p funcPass) Run(ctx *Context) error { return p.fn(ctx) }

// Func adapts a function to a named Pass.
func Func(name string, fn func(*Context) error) Pass { return funcPass{name: name, fn: fn} }

// Timing is the measured wall time of one pass.
type Timing struct {
	Pass     string
	Duration time.Duration
}

// Options tunes a Manager.
type Options struct {
	// CheckInvariants runs Check after every pass: ir.Validate on the
	// working program plus consistency of the accumulated analysis maps.
	CheckInvariants bool
	// Dump, when set, is called after every pass (after the invariant
	// check); use Snapshot/SnapshotJSON for stable output.
	Dump func(pass string, ctx *Context)
}

// Manager runs an ordered pass list over a Context.
type Manager struct {
	opts   Options
	passes []Pass
}

// NewManager builds a manager for the given pipeline.
func NewManager(opts Options, passes ...Pass) *Manager {
	return &Manager{opts: opts, passes: passes}
}

// Passes returns the pipeline's pass names in order.
func (m *Manager) Passes() []string {
	names := make([]string, len(m.passes))
	for i, p := range m.passes {
		names[i] = p.Name()
	}
	return names
}

// Run executes the pipeline, returning per-pass wall times. The first pass
// error (or invariant violation) aborts the run; the error names the pass.
func (m *Manager) Run(ctx *Context) ([]Timing, error) {
	if ctx.Prov == nil {
		ctx.Prov = NewProvenance()
	}
	timings := make([]Timing, 0, len(m.passes))
	for _, p := range m.passes {
		start := time.Now()
		if err := p.Run(ctx); err != nil {
			return timings, fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		timings = append(timings, Timing{Pass: p.Name(), Duration: time.Since(start)})
		if m.opts.CheckInvariants {
			if err := Check(ctx); err != nil {
				return timings, fmt.Errorf("invariants violated after pass %s: %w", p.Name(), err)
			}
		}
		if m.opts.Dump != nil {
			m.opts.Dump(p.Name(), ctx)
		}
	}
	return timings, nil
}

// Check verifies the between-pass invariants of a pipeline Context: the
// working program is structurally valid and every accumulated analysis map
// keys on references of the current table, with the cross-map relations the
// scheduler relies on (targets and drops are disjoint, every covered
// reference names a selected leader, region assignments only cover targets,
// and — once scheduling ran — the Stale flags on the program agree exactly
// with the stale analysis).
func Check(ctx *Context) error {
	if ctx.Prog == nil {
		return nil // before the clone pass there is nothing to check
	}
	if err := ir.Validate(ctx.Prog); err != nil {
		return err
	}
	n := len(ctx.Prog.Refs())
	inRange := func(label string, id ir.RefID) error {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("%s: ref id %d outside table [0,%d)", label, id, n)
		}
		return nil
	}
	for id := range ctx.Candidates {
		if err := inRange("candidates", id); err != nil {
			return err
		}
	}
	if s := ctx.Stale; s != nil {
		for id := range s.StaleReads {
			if err := inRange("stale reads", id); err != nil {
				return err
			}
		}
		for id := range s.RemoteReads {
			if err := inRange("remote reads", id); err != nil {
				return err
			}
		}
		if ctx.Sched != nil {
			// After scheduling, the program's Stale flags and the analysis
			// map must agree in both directions.
			for _, r := range ctx.Prog.Refs() {
				if r.Stale != s.StaleReads[r.ID] {
					return fmt.Errorf("ref %s (id %d): Stale flag %v disagrees with stale analysis %v",
						r, r.ID, r.Stale, s.StaleReads[r.ID])
				}
			}
		}
	}
	if t := ctx.Targets; t != nil {
		for id := range t.Targets {
			if err := inRange("targets", id); err != nil {
				return err
			}
			if ctx.Candidates != nil && !ctx.Candidates[id] {
				return fmt.Errorf("target %d was never a candidate", id)
			}
		}
		for id := range t.Dropped {
			if err := inRange("dropped", id); err != nil {
				return err
			}
			if t.Targets[id] {
				return fmt.Errorf("ref %d is both a target and dropped", id)
			}
		}
		for id, leader := range t.CoveredBy {
			if err := inRange("covered", id); err != nil {
				return err
			}
			if err := inRange("covering leader", leader); err != nil {
				return err
			}
			if _, dropped := t.Dropped[id]; !dropped {
				return fmt.Errorf("covered ref %d is not recorded as dropped", id)
			}
			if !t.Targets[leader] {
				return fmt.Errorf("ref %d covered by %d, which is not a target", id, leader)
			}
		}
		for id := range t.RegionOf {
			if err := inRange("region assignment", id); err != nil {
				return err
			}
			if !t.Targets[id] {
				return fmt.Errorf("region assigned to non-target ref %d", id)
			}
		}
	}
	return nil
}
