// Package driver holds the command-line plumbing the cmd/ tools share:
// workload and mode lookup with errors that name the valid choices,
// PE-list parsing, the fault-injection / profiling / machine flag groups,
// and uniform fatal-error reporting. Before this package existed, t3dsim,
// ccdpbench and ccdpc each carried their own copy of this logic — and
// ccdpc silently fell back to defaults on an unknown scale instead of
// failing.
package driver

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/coherence/prefetch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/prof"
	"repro/internal/workloads"
)

// osExit is swapped out by the Fatal test.
var osExit = os.Exit

// Fatal prints "tool: err" to stderr and exits non-zero. Every cmd/ tool
// reports its errors through this, so unknown flags, apps and modes all
// fail the same way.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	osExit(1)
}

// Pool returns the workload set for one problem scale.
func Pool(scale string) ([]*workloads.Spec, error) {
	switch strings.ToLower(strings.TrimSpace(scale)) {
	case "small":
		return workloads.Small(), nil
	case "paper":
		return workloads.Paper(), nil
	default:
		return nil, fmt.Errorf("unknown scale %q: valid scales are small, paper", scale)
	}
}

// App looks up one workload by name (case-insensitive) at the given scale.
// An unknown name is an error that lists the valid applications.
func App(name, scale string) (*workloads.Spec, error) {
	pool, err := Pool(scale)
	if err != nil {
		return nil, err
	}
	for _, s := range pool {
		if strings.EqualFold(s.Name, strings.TrimSpace(name)) {
			return s, nil
		}
	}
	names := make([]string, len(pool))
	for i, s := range pool {
		names[i] = s.Name
	}
	return nil, fmt.Errorf("unknown application %q: valid applications are %s",
		name, strings.Join(names, ", "))
}

// Apps resolves a comma-separated application list at the given scale.
func Apps(list, scale string) ([]*workloads.Spec, error) {
	var out []*workloads.Spec
	for _, name := range strings.Split(list, ",") {
		s, err := App(name, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseMode parses an execution-mode name against the core mode registry.
// An unknown name is an error that lists the valid modes.
func ParseMode(s string) (core.Mode, error) {
	return core.ParseMode(s)
}

// ModeUsage renders the -mode flag's usage string from the mode registry,
// so every tool's help text lists exactly the registered modes.
func ModeUsage() string {
	return "execution mode: " + strings.Join(core.ModeNames(), ", ")
}

// HWFlags is the hardware-coherence-arena flag group (-hw-prefetch,
// -dir-pointers, -dir-sparse-lines, -dir-sparse-ways), orthogonal to
// -mode: the values only matter when a HWDIR mode runs.
type HWFlags struct {
	Prefetcher  *string
	Pointers    *int
	SparseLines *int
	SparseWays  *int
}

// RegisterHW installs the hardware-coherence flags on fs.
func RegisterHW(fs *flag.FlagSet) *HWFlags {
	return &HWFlags{
		Prefetcher: fs.String("hw-prefetch", "",
			"runtime prefetcher for the hwdir modes: "+strings.Join(prefetch.Names(), ", ")+" (empty = none)"),
		Pointers:    fs.Int("dir-pointers", machine.DefaultParams.DirPointers, "limited-pointer directory width (Dir_i_B)"),
		SparseLines: fs.Int("dir-sparse-lines", machine.DefaultParams.DirSparseLines, "sparse directory entries per home node"),
		SparseWays:  fs.Int("dir-sparse-ways", machine.DefaultParams.DirSparseWays, "sparse directory set associativity"),
	}
}

// Apply writes the flag values into a machine configuration.
func (h *HWFlags) Apply(mp *machine.Params) {
	mp.HWPrefetcher = *h.Prefetcher
	mp.DirPointers = *h.Pointers
	mp.DirSparseLines = *h.SparseLines
	mp.DirSparseWays = *h.SparseWays
}

// ParsePEs parses a comma-separated list of PE counts.
func ParsePEs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad PE count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// FaultFlags is the fault-injection flag group (-fault-rate, -fault-kinds,
// -fault-seed).
type FaultFlags struct {
	Rate  *float64
	Kinds *string
	Seed  *int64
}

// RegisterFault installs the fault-injection flags on fs.
func RegisterFault(fs *flag.FlagSet) *FaultFlags {
	return &FaultFlags{
		Rate:  fs.Float64("fault-rate", 0, "per-opportunity fault-injection probability (0 disables)"),
		Kinds: fs.String("fault-kinds", "all", "comma-separated fault kinds: drop,late,spike,evict,skew or all"),
		Seed:  fs.Int64("fault-seed", 1, "fault-injection RNG seed"),
	}
}

// Plan assembles the fault.Plan the flags describe (a zero Plan when the
// rate is 0).
func (f *FaultFlags) Plan() (fault.Plan, error) {
	return FaultPlan(*f.Rate, *f.Kinds, *f.Seed)
}

// FaultPlan is the flag-free core of FaultFlags.Plan: it assembles a fault
// plan from raw values (a zero Plan when the rate is 0), returning an
// error — never exiting — on a malformed rate or kind list, so services
// can map bad job specs to HTTP 400s while the CLIs wrap the same errors
// in Fatal.
func FaultPlan(rate float64, kinds string, seed int64) (fault.Plan, error) {
	if rate == 0 {
		return fault.Plan{}, nil
	}
	ks, err := fault.ParseKinds(kinds)
	if err != nil {
		return fault.Plan{}, err
	}
	plan := fault.Plan{Seed: seed, Rate: rate, Kinds: ks}
	return plan, plan.Validate()
}

// ProfFlags is the profiling flag group (-cpuprofile, -memprofile).
type ProfFlags struct {
	CPU *string
	Mem *string
}

// RegisterProf installs the profiling flags on fs.
func RegisterProf(fs *flag.FlagSet) *ProfFlags {
	return &ProfFlags{
		CPU: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		Mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins profiling per the flags; the returned stop function must be
// deferred.
func (f *ProfFlags) Start() (func(), error) {
	return prof.Start(*f.CPU, *f.Mem)
}

// TopologyFlag is the interconnect-model flag (-topology).
type TopologyFlag struct {
	s *string
}

// RegisterTopology installs the -topology flag on fs.
func RegisterTopology(fs *flag.FlagSet) *TopologyFlag {
	return &TopologyFlag{s: fs.String("topology", "flat",
		"interconnect model: flat, torus (auto dims) or XxYxZ")}
}

// Config parses the flag into an interconnect configuration.
func (t *TopologyFlag) Config() (noc.Config, error) {
	return noc.Parse(*t.s)
}

// String returns the raw flag value, for forwarding to the sweep service
// (the server re-parses it through the same noc.Parse).
func (t *TopologyFlag) String() string { return *t.s }

// checkPDES validates a torus parallel-execution scheme name. The name
// selects nothing — optimistic speculation is the only concurrent torus
// scheme and never changes a result — but Machine, SweepConfig and
// sweepd.JobSpec carry it for API and wire compatibility. It accepts ""
// and "optimistic" and rejects the removed conservative and adaptive
// schemes by name.
func checkPDES(pdes string) error {
	switch pdes {
	case "", "optimistic":
		return nil
	case "conservative", "adaptive":
		return fmt.Errorf("pdes scheme %q was removed; optimistic is the only torus scheme", pdes)
	}
	return fmt.Errorf("unknown pdes scheme %q (want optimistic)", pdes)
}

// SweepConfig resolves the raw values of one benchmark-sweep
// configuration — everything but the PE counts — into a harness.Config.
// It is the single resolution path shared by the ccdpbench CLI and the
// sweep service, so a job submitted over HTTP runs under exactly the
// configuration the same flags would produce in-process; every failure is
// an error return (the service's HTTP 400), never an exit.
func SweepConfig(profile string, domainSize int, topology, pdes string,
	faultRate float64, faultKinds string, faultSeed int64) (harness.Config, error) {
	topo, err := noc.Parse(topology)
	if err != nil {
		return harness.Config{}, err
	}
	if err := checkPDES(pdes); err != nil {
		return harness.Config{}, err
	}
	if _, err := machine.ProfileParams(profile, 1); err != nil {
		return harness.Config{}, err
	}
	if domainSize < 0 {
		return harness.Config{}, fmt.Errorf("negative domain size %d", domainSize)
	}
	plan, err := FaultPlan(faultRate, faultKinds, faultSeed)
	if err != nil {
		return harness.Config{}, err
	}
	return harness.Config{
		Profile:    profile,
		DomainSize: domainSize,
		Topology:   topo,
		Fault:      plan,
	}, nil
}

// ProfileUsage renders the -machine-profile flag's usage string from the
// machine-profile registry, so every tool's help text lists exactly the
// registered profiles.
func ProfileUsage() string {
	return "machine profile: " + strings.Join(machine.ProfileNames(), ", ")
}

// MachineFlags is the machine-configuration flag group (-pes,
// -machine-profile, -domain-size, -topology) for the tools that
// simulate one configuration at a time.
type MachineFlags struct {
	PEs        *int
	Profile    *string
	DomainSize *int
	Topo       *TopologyFlag
}

// RegisterMachine installs the machine flags on fs.
func RegisterMachine(fs *flag.FlagSet, defaultPEs int) *MachineFlags {
	return &MachineFlags{
		PEs:     fs.Int("pes", defaultPEs, "number of PEs"),
		Profile: fs.String("machine-profile", "t3d", ProfileUsage()),
		DomainSize: fs.Int("domain-size", 0,
			"override the profile's coherence-domain size (0 = profile default, 1 = per-PE domains)"),
		Topo: RegisterTopology(fs),
	}
}

// Params builds the machine parameters the flags describe, starting from
// the named machine profile. An unknown profile name is an error that
// lists the valid profiles.
func (m *MachineFlags) Params() (machine.Params, error) {
	return Machine(*m.Profile, *m.PEs, *m.DomainSize, *m.Topo.s, "")
}

// Machine is the flag-free core of MachineFlags.Params: it resolves raw
// machine-configuration values (profile name, PE count, domain-size
// override, topology and pdes strings; see checkPDES) into a validated
// Params. Every failure — unknown profile, bad topology syntax, unknown
// or removed pdes scheme — comes back as an error naming the valid
// choices, never an exit, so the sweep service can answer bad job specs
// with HTTP 400s while the CLIs route the same errors through Fatal.
func Machine(profile string, pes, domainSize int, topology, pdes string) (machine.Params, error) {
	topo, err := noc.Parse(topology)
	if err != nil {
		return machine.Params{}, err
	}
	if err := checkPDES(pdes); err != nil {
		return machine.Params{}, err
	}
	mp, err := machine.ProfileParams(profile, pes)
	if err != nil {
		return machine.Params{}, err
	}
	if domainSize > 0 {
		mp.DomainSize = domainSize
	}
	mp.Topology = topo
	return mp, nil
}
