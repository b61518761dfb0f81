package fuzz

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/section"
)

// Mutation is a deliberate sabotage of a compiled program, applied after
// compilation and before execution. Mutations exist to prove the campaign's
// referees are not vacuous: with a safety mechanism knocked out, the
// campaign must flag a finding within a bounded number of programs. A
// mutated finding is an expected-positive test artifact, never a bug.
type Mutation int

const (
	// MutNone runs the compiled program exactly as produced.
	MutNone Mutation = iota
	// MutNoInvalidate empties every epoch-boundary invalidation set of a
	// CCDP compilation. Invalidation is the scheme's sole safety mechanism
	// (prefetch and bypass marks are performance-only), so fault-free CCDP
	// runs must then consume stale cached lines and trip the coherence
	// oracle.
	MutNoInvalidate
	// MutNoSchedMarks clears the Stale/Bypass/Prefetched flags the
	// scheduler set on every reference, without touching statements (RefIDs
	// stay stable). The compiled-program invariant referee must then report
	// the disagreement between the program's flags and the stale analysis.
	MutNoSchedMarks
	// MutNoDirInvalidate makes the hardware directory book its
	// invalidation messages without ever dropping the sharers' copies —
	// the protocol's sole safety action silently stops working. Hardware
	// mode runs must then consume stale cached lines and trip the
	// coherence oracle, proving the oracle also guards the arena's
	// directory modes. A no-op outside the hardware modes.
	MutNoDirInvalidate
	// MutNoDomainDemotion models a domain-aware compiler that trusts the
	// coherence domains too far: on a machine with multi-PE domains it
	// empties every software (cross-domain) invalidation set of a CCDP
	// compilation while leaving the hardware intra-domain sets intact — as
	// if the analysis had demoted every stale reference to
	// hardware-coherent, not just the intra-domain ones. The free
	// epoch-entry hardware invalidation cannot cover writers in other
	// domains, so fault-free CCDP runs on a domained profile must consume
	// stale cached lines and trip the coherence oracle — proving the
	// cross/intra split of the analysis is load-bearing, not decorative. A
	// no-op on machines without multi-PE domains (t3d, pim).
	MutNoDomainDemotion
)

func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutNoInvalidate:
		return "no-invalidate"
	case MutNoSchedMarks:
		return "no-sched-marks"
	case MutNoDirInvalidate:
		return "no-dir-invalidate"
	case MutNoDomainDemotion:
		return "no-domain-demotion-check"
	default:
		return fmt.Sprintf("Mutation(%d)", int(m))
	}
}

// ParseMutation reads a Mutation in String form.
func ParseMutation(s string) (Mutation, error) {
	for _, m := range []Mutation{MutNone, MutNoInvalidate, MutNoSchedMarks, MutNoDirInvalidate, MutNoDomainDemotion} {
		if s == m.String() {
			return m, nil
		}
	}
	return MutNone, fmt.Errorf("fuzz: unknown mutation %q (want none, no-invalidate, no-sched-marks, no-dir-invalidate or no-domain-demotion-check)", s)
}

// Sabotage applies m to a compiled program in place. It is a no-op for
// MutNone and for compilations the mutation does not apply to (the CCDP
// mutations target the compiler's analysis artifacts, absent in other
// modes; the directory mutation targets the hardware modes only).
func Sabotage(c *core.Compiled, m Mutation) {
	switch m {
	case MutNoInvalidate, MutNoDomainDemotion:
		if c.Stale == nil || (m == MutNoDomainDemotion && c.Machine.DomainSize <= 1) {
			return
		}
		for _, perPE := range c.Stale.Invalidate {
			for _, sections := range perPE {
				for a, s := range sections {
					sections[a] = section.Empty(s.Rank())
				}
			}
		}
	case MutNoSchedMarks:
		if c.Sched == nil {
			return
		}
		for _, r := range c.Prog.Refs() {
			r.Stale = false
			r.Bypass = false
			r.Prefetched = false
		}
	case MutNoDirInvalidate:
		if !c.Mode.IsHW() {
			return
		}
		c.Machine.DirDropInvalidations = true
	}
}
