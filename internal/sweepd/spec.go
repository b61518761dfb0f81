// Package sweepd is the persistent simulation service: a long-running
// HTTP/JSON server that compiles once and serves many — the "heavy sweep
// traffic" layer the roadmap names. Three caches make repeated work free:
//
//   - a content-addressed result memo (memo.go): the full job spec is
//     canonically encoded, hashed, and the finished result row's exact
//     bytes are stored under that key in an LRU-bounded store, so a
//     repeated sweep point never touches the engine and is served
//     byte-identically forever;
//   - a shared compiled-program cache (cache.go): concurrent jobs that
//     agree on (workload, scale, mode, machine parameters) reuse one
//     core.Compiled — and, through it, the per-Compiled engine pool — so
//     a mixed sweep pays each distinct compilation once per process;
//   - a priority job queue (queue.go) with bounded worker concurrency
//     drawn from the process-wide internal/parallel budget.
//
// Results stream back as NDJSON in canonical point order — the
// strictly-ordered single-emitter of internal/parallel lifted to an HTTP
// response — and large sweeps shard across forwarded worker processes
// (server.go) and merge back into byte-identical order.
package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// JobSpec is one sweep point: an application swept across PE counts under
// one machine configuration. ccdpbench builds its points as JobSpecs from
// its flags and the server receives them over the wire; both resolve them
// with Resolve and run them with Job.Run. The zero value of every optional
// field means the same thing the corresponding CLI flag's default does, so
// a spec built from flags and a spec built from a sparse JSON document
// resolve identically.
type JobSpec struct {
	// App names the workload (case-insensitive; the workload registry's
	// name set). Required.
	App string `json:"app"`
	// Scale is the problem scale: "small" or "paper" ("" = paper).
	Scale string `json:"scale,omitempty"`
	// PEs are the PE counts of the sweep ("" = the paper's 1..64 ladder).
	PEs []int `json:"pes,omitempty"`
	// SkipBase drops the BASE runs (CCDP and the sequential golden only).
	SkipBase bool `json:"skip_base,omitempty"`
	// Profile names a machine profile ("" = t3d).
	Profile string `json:"profile,omitempty"`
	// DomainSize overrides the profile's coherence-domain size (0 = profile
	// default).
	DomainSize int `json:"domain_size,omitempty"`
	// Topology is the interconnect: "flat", "torus", or "XxYxZ" ("" = flat).
	Topology string `json:"topology,omitempty"`
	// PDES names a torus parallel-execution scheme: "" or "optimistic" is
	// accepted for compatibility and selects nothing (the engine is
	// serial). The retired "conservative" and "adaptive" schemes are
	// rejected as removed. It never changes results, so it is validated but
	// stays out of the memo key.
	PDES string `json:"pdes,omitempty"`
	// FaultRate / FaultKinds / FaultSeed configure seeded fault injection
	// (rate 0 = fault-free; kinds "" = all).
	FaultRate  float64 `json:"fault_rate,omitempty"`
	FaultKinds string  `json:"fault_kinds,omitempty"`
	FaultSeed  int64   `json:"fault_seed,omitempty"`
	// FaultRetries is the retry budget for killed faulted runs (0 = the
	// harness default).
	FaultRetries int `json:"fault_retries,omitempty"`
}

// Key is the content address of one job: a SHA-256 over the canonical
// encoding of the resolved spec. Two requests get the same key iff they
// describe the same simulation — whatever JSON field order, name casing or
// default-spelling ("" vs "t3d", "late,drop" vs "drop,late") they arrived
// with.
type Key [sha256.Size]byte

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Job is a resolved, validated JobSpec: the workload and harness
// configuration ready to run, plus the content-addressed key.
type Job struct {
	Spec *workloads.Spec
	Cfg  harness.Config
	Key  Key
	// App and Scale are the registry-canonical workload coordinates — the
	// compile cache keys on them (a Spec's Name alone is ambiguous: MXM at
	// "small" and "paper" scale share it).
	App   string
	Scale string
	// canonical is the encoding the Key hashes — kept for tests and the
	// stats endpoint's debugging view.
	canonical string
}

// Resolve validates a JobSpec against the registries and computes its
// canonical form. Every failure is an error return naming the valid
// choices — the server's HTTP 400 — never an exit.
func (js *JobSpec) Resolve() (*Job, error) {
	scale := js.Scale
	if scale == "" {
		scale = "paper"
	}
	spec, err := driver.App(js.App, scale)
	if err != nil {
		return nil, err
	}
	cfg, err := driver.SweepConfig(js.Profile, js.DomainSize, js.Topology, js.PDES,
		js.FaultRate, js.FaultKinds, js.FaultSeed)
	if err != nil {
		return nil, err
	}
	// Normalize the profile to the registry's canonical name ("" and any
	// casing of "t3d" are the same machine — they must be the same key).
	cfg.Profile = machine.MustProfileParams(cfg.Profile, 1).Profile
	cfg.SkipBase = js.SkipBase
	cfg.FaultRetries = js.FaultRetries
	pes := js.PEs
	if len(pes) == 0 {
		pes = harness.PaperPEs
	}
	for _, p := range pes {
		if p < 1 {
			return nil, fmt.Errorf("bad PE count %d", p)
		}
	}
	cfg.PECounts = pes

	j := &Job{Spec: spec, Cfg: cfg, App: spec.Name, Scale: scale}
	j.canonical = string(appendCanonical(nil, spec.Name, scale, &cfg))
	j.Key = sha256.Sum256([]byte(j.canonical))
	return j, nil
}

// Run sweeps the job's application under its configuration — the one
// function that executes a sweep point, in ccdpbench's in-process path and
// in the server alike. compile, when non-nil, overrides how configurations
// are lowered (the server's shared compile cache; see
// harness.Config.Compile).
func (j *Job) Run(compile func(*workloads.Spec, core.Mode, machine.Params) (*core.Compiled, error)) (*harness.AppResult, error) {
	cfg := j.Cfg
	cfg.Compile = compile
	return harness.RunApp(j.Spec, cfg)
}

// appendCanonical appends the byte-stable canonical encoding of a resolved
// job to dst. Fields appear in one fixed order with explicit tags, every
// value normalized through the registries that resolved it:
//
//   - the app name is the registry's canonical spelling ("mxm" → "MXM");
//   - the profile is the registry name with the "" = t3d alias collapsed;
//   - the topology is the parsed noc.Config, not the flag spelling;
//   - fault kinds come sorted and deduplicated from fault.ParseKinds, and
//     the whole fault block collapses to "off" at rate 0 — a disabled
//     plan's seed and kinds cannot fragment the memo.
//
// Any new axis that changes simulation results MUST be appended here;
// TestKeyDistinctAcrossEveryAxis enumerates the axes and fails when a
// JobSpec field is missing from the encoding.
func appendCanonical(dst []byte, app, scale string, cfg *harness.Config) []byte {
	dst = append(dst, "sweepd/v1|app="...)
	dst = append(dst, app...)
	dst = append(dst, "|scale="...)
	dst = append(dst, scale...)
	dst = append(dst, "|pes="...)
	for i, p := range cfg.PECounts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(p), 10)
	}
	dst = append(dst, "|base="...)
	dst = appendBool(dst, !cfg.SkipBase)
	dst = append(dst, "|profile="...)
	dst = append(dst, cfg.Profile...) // registry-normalized by Resolve
	dst = append(dst, "|domain="...)
	dst = strconv.AppendInt(dst, int64(cfg.DomainSize), 10)
	dst = append(dst, "|topo="...)
	dst = append(dst, cfg.Topology.Kind.String()...)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(cfg.Topology.X), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(cfg.Topology.Y), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(cfg.Topology.Z), 10)
	dst = append(dst, "|fault="...)
	if !cfg.Fault.Enabled() {
		dst = append(dst, "off"...)
	} else {
		dst = append(dst, "rate="...)
		dst = strconv.AppendFloat(dst, cfg.Fault.Rate, 'g', -1, 64)
		dst = append(dst, ";kinds="...)
		for i, k := range cfg.Fault.Kinds { // sorted+deduped by ParseKinds
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, k.String()...)
		}
		dst = append(dst, ";seed="...)
		dst = strconv.AppendInt(dst, cfg.Fault.Seed, 10)
		dst = append(dst, ";retries="...)
		retries := cfg.FaultRetries
		if retries <= 0 {
			retries = harness.DefaultFaultRetries // the alias the harness applies
		}
		dst = strconv.AppendInt(dst, int64(retries), 10)
	}
	return dst
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, '1')
	}
	return append(dst, '0')
}
