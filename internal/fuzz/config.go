package fuzz

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/noc"
)

// RunConfig is one point of the differential matrix: a mode, a machine
// profile, a PE count, a topology and a fault plan. Its String form
// round-trips through ParseRunConfig, so repro artifacts can record the
// exact configuration.
type RunConfig struct {
	Mode core.Mode
	// Profile names a machine profile from the machine registry
	// ("" = "t3d", the pre-profile configuration).
	Profile  string
	PEs      int
	Topology noc.Config
	Fault    fault.Plan
}

// String renders the config as space-separated key=value tokens. The
// profile token is omitted for its zero (t3d) value, so artifacts recorded
// before that dimension existed still parse to the same config.
func (rc RunConfig) String() string {
	s := fmt.Sprintf("mode=%s pes=%d topo=%s", rc.Mode, rc.PEs, rc.Topology)
	if rc.Profile != "" && rc.Profile != "t3d" {
		s += " profile=" + rc.Profile
	}
	if rc.Fault.Enabled() {
		s += fmt.Sprintf(" frate=%g fkinds=%s fseed=%d",
			rc.Fault.Rate, fault.FormatKinds(rc.Fault.Kinds), rc.Fault.Seed)
	}
	return s
}

// MachineParams builds the machine configuration one run executes on: the
// named profile at the config's PE count, with the topology applied. An
// unknown profile name is an error that lists the valid profiles.
func (rc RunConfig) MachineParams() (machine.Params, error) {
	mp, err := machine.ProfileParams(rc.Profile, rc.PEs)
	if err != nil {
		return machine.Params{}, fmt.Errorf("fuzz: %w", err)
	}
	mp.Topology = rc.Topology
	return mp, nil
}

// ParseMode reads a core.Mode in its String form. It defers to the core
// mode registry, so artifacts recorded under any registered mode —
// including the hardware directory modes — parse back.
func ParseMode(s string) (core.Mode, error) {
	m, err := core.ParseMode(s)
	if err != nil {
		return 0, fmt.Errorf("fuzz: %w", err)
	}
	return m, nil
}

// ParseRunConfig reads a RunConfig in String form.
func ParseRunConfig(s string) (RunConfig, error) {
	rc := RunConfig{}
	for _, tok := range strings.Fields(s) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return rc, fmt.Errorf("fuzz: bad config token %q", tok)
		}
		var err error
		switch key {
		case "mode":
			rc.Mode, err = ParseMode(val)
		case "pes":
			rc.PEs, err = strconv.Atoi(val)
		case "profile":
			_, err = machine.ProfileParams(val, 1)
			rc.Profile = val
		case "topo":
			rc.Topology, err = noc.Parse(val)
		case "frate":
			rc.Fault.Rate, err = strconv.ParseFloat(val, 64)
		case "fkinds":
			rc.Fault.Kinds, err = fault.ParseKinds(val)
		case "fseed":
			rc.Fault.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("fuzz: unknown config key %q", key)
		}
		if err != nil {
			return rc, err
		}
	}
	if rc.PEs < 1 {
		return rc, fmt.Errorf("fuzz: config %q needs pes >= 1", s)
	}
	return rc, nil
}

// DefaultMatrix is the full differential matrix a campaign runs each
// program through: {BASE, CCDP} × {flat, torus} × {fault-free, faulted} at
// an uneven (3) and an even (8) PE count, fault-free CCDP on the explicit
// 8-PE torus shapes 8x1x1 and 4x2x1, plus the software modes on the
// non-t3d machine profiles and the three hardware directory modes, both
// fault-free on both topologies. Fault-free runs are the
// oracle's hunting ground — a stale cached word is consumed and flagged.
// Faulted runs exercise the §3.2 degraded paths, where lost or late
// prefetches may cost cycles but must never corrupt results, so any
// divergence from the sequential golden arrays is a genuine finding. The
// hardware modes run fault-free only: their safety mechanism is the
// directory protocol itself, and the oracle plus the divergence referee
// hold it to the same zero-stale, bit-identical standard as CCDP.
func DefaultMatrix(faultSeed int64) []RunConfig {
	plans := []fault.Plan{
		{},
		{Seed: faultSeed, Rate: 0.02, Kinds: fault.AllKinds()},
	}
	var out []RunConfig
	for _, mode := range []core.Mode{core.ModeBase, core.ModeCCDP} {
		for _, topo := range []noc.Config{{}, {Kind: noc.KindTorus}} {
			for _, pes := range []int{3, 8} {
				for _, plan := range plans {
					out = append(out, RunConfig{Mode: mode, PEs: pes, Topology: topo, Fault: plan})
				}
			}
		}
	}
	// The auto-shaped tori above are 2x2x2 (8 PEs) and a 3x1x1 ring (3):
	// a long ring and a flat slab put the routing, wraparound and
	// contention of the other shapes under the same referees.
	for _, dims := range [][3]int{{8, 1, 1}, {4, 2, 1}} {
		out = append(out, RunConfig{Mode: core.ModeCCDP, PEs: 8,
			Topology: noc.Config{Kind: noc.KindTorus, X: dims[0], Y: dims[1], Z: dims[2]}})
	}
	out = append(out, ProfileMatrix()...)
	return append(out, HWMatrix()...)
}

// ProfileMatrix is the coherence-domain slice of the default matrix: the
// software modes on every non-t3d machine profile, fault-free, on both
// topologies at an uneven (3) and an even (8) PE count. The oracle and the
// divergence referee are profile-agnostic — the sequential golden arrays
// never depend on the machine — so a domain-aware analysis that wrongly
// demotes a cross-domain stale reference must surface here. The
// domain-sabotage mutation test uses the cxl-pcc CCDP entries to bound its
// search the way CoherenceMatrix bounds the invalidation tests'.
func ProfileMatrix() []RunConfig {
	var out []RunConfig
	for _, prof := range []string{"cxl-pcc", "pim"} {
		for _, mode := range []core.Mode{core.ModeBase, core.ModeCCDP} {
			for _, topo := range []noc.Config{{}, {Kind: noc.KindTorus}} {
				for _, pes := range []int{3, 8} {
					out = append(out, RunConfig{Mode: mode, Profile: prof, PEs: pes, Topology: topo})
				}
			}
		}
	}
	return out
}

// DomainMatrix is the slice of the profile matrix where multi-PE coherence
// domains actually form under CCDP: the cxl-pcc profile (8 PEs → domains
// of 4; 3 PEs → one domain of 3) on both topologies. The domain-sabotage
// mutation test bounds its search with it.
func DomainMatrix() []RunConfig {
	var out []RunConfig
	for _, topo := range []noc.Config{{}, {Kind: noc.KindTorus}} {
		for _, pes := range []int{3, 8} {
			out = append(out, RunConfig{Mode: core.ModeCCDP, Profile: "cxl-pcc", PEs: pes, Topology: topo})
		}
	}
	return out
}

// CoherenceMatrix is the fault-free CCDP slice of the default matrix — the
// configurations where a coherence bug must surface as an oracle violation.
// The mutation tests use it to bound their search.
func CoherenceMatrix() []RunConfig {
	var out []RunConfig
	for _, topo := range []noc.Config{{}, {Kind: noc.KindTorus}} {
		for _, pes := range []int{3, 8} {
			out = append(out, RunConfig{Mode: core.ModeCCDP, PEs: pes, Topology: topo})
		}
	}
	return out
}

// TimingMatrix is the slice of the default matrix where the optimistic
// torus speculation engages: fault-free CCDP on the torus at an uneven (3)
// and an even (8) PE count. The rollback-sabotage mutation test uses it to
// bound its search the way CoherenceMatrix bounds the invalidation tests'.
func TimingMatrix() []RunConfig {
	var out []RunConfig
	for _, pes := range []int{3, 8} {
		out = append(out, RunConfig{Mode: core.ModeCCDP, PEs: pes,
			Topology: noc.Config{Kind: noc.KindTorus}})
	}
	return out
}

// HWMatrix is the hardware-directory slice of the default matrix: every
// directory organization, fault-free, on both topologies at an uneven (3)
// and an even (8) PE count. The directory-sabotage mutation test uses it
// to bound its search the way CoherenceMatrix bounds CCDP's.
func HWMatrix() []RunConfig {
	var out []RunConfig
	for _, mode := range []core.Mode{core.ModeHWDir, core.ModeHWDirLP, core.ModeHWDirSparse} {
		for _, topo := range []noc.Config{{}, {Kind: noc.KindTorus}} {
			for _, pes := range []int{3, 8} {
				out = append(out, RunConfig{Mode: mode, PEs: pes, Topology: topo})
			}
		}
	}
	return out
}
