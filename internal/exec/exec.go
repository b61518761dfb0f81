// Package exec is the T3D execution engine: it interprets a compiled
// program (real float64 arithmetic over the simulated distributed memory),
// drives the per-PE caches and prefetch queues, and charges cycle costs.
//
// Execution follows the paper's epoch model (§3.1): parallel epochs run
// their DOALL chunks on all PEs concurrently (one goroutine per PE — PEs
// touch disjoint data inside an epoch, so the simulation is race-free
// exactly when the program respects the model); serial epochs run on PE 0;
// every epoch boundary is a barrier, and write-through caches keep home
// memory current so the boundary memory-update is implicit.
//
// Torus-modeled runs execute their parallel epochs concurrently by
// optimistic speculation with rollback (spec.go): every PE runs its chunk
// against a private predictor network, then a serial pass validates the
// bookings in the canonical sequential PE-major order and re-executes the
// mispredicted PEs, so cycle counts stay bit-identical at any GOMAXPROCS
// and any goroutine interleaving. Runs speculation cannot rewind (fault
// injection, tracing, stale-ref attribution) take that canonical order
// directly.
//
// Coherence is CHECKED, not assumed: every cached word carries the memory
// generation it was filled with, and a hit on an out-of-date word is
// counted as a stale-value read (and poisons the computed results, which
// the golden-value comparison then catches). SEQ, BASE and CCDP runs must
// report zero; the deliberately naive INCOHERENT mode demonstrates the
// failure the scheme prevents.
//
// Before anything executes, the ir tree is lowered to the engine's
// compiled form (compile.go): names become dense slots, subscripts become
// stride-resolved affine forms, and the per-PE state becomes plain slices
// — the cycle arithmetic is unchanged, so results stay bit-identical to
// the tree-walking engine this replaced.
package exec

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/parallel"
	"repro/internal/pfq"
	"repro/internal/shmem"
	"repro/internal/stale"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options controls optional engine verification features.
type Options struct {
	// DetectRaces records per-epoch read/write address sets of shared
	// arrays and reports cross-PE conflicts inside one epoch (violations
	// of the "no data dependences between tasks of a parallel epoch"
	// model). It forces parallel epochs to run their PEs sequentially: a
	// program that violates the model must be caught by this checker
	// deterministically, not by the Go race detector. Expensive; for
	// tests.
	DetectRaces bool
	// FailOnStale makes Run return an error on the first stale-value read
	// instead of only counting it.
	FailOnStale bool
	// TrackStaleRefs records which reference sites observed stale values
	// (used by the analysis-soundness property tests).
	TrackStaleRefs bool
	// SerialTorus forces torus-modeled parallel epochs onto the canonical
	// sequential-PE booking order instead of optimistic speculation.
	// Results are identical either way — the equivalence tests use this as
	// their reference path.
	SerialTorus bool
	// Trace, when non-nil, collects the full memory reference stream
	// (build with trace.New(numPE)). Expensive; for analysis tooling.
	Trace *trace.Trace
	// Fault configures seeded fault injection (internal/fault). The zero
	// value runs the fault-free machine with zero overhead on the hot
	// paths and bit-identical cycle counts.
	Fault fault.Plan
}

// Result is the outcome of one run.
type Result struct {
	Stats    stats.Stats
	Cycles   int64
	PECycles []int64
	Mem      *mem.Memory
	// StaleByRef attributes observed stale-value reads to the reference
	// sites that performed them (populated when Options.TrackStaleRefs).
	StaleByRef map[ir.RefID]int64
	// Violations holds the first few coherence-oracle hits in detail
	// (every hit is counted in Stats.OracleViolations).
	Violations []fault.Violation
	// Net is the interconnect observability snapshot (per-link utilization,
	// contention hotspots, hop histogram); nil under the flat topology.
	Net *noc.Summary
}

// maxRecordedViolations bounds Result.Violations; counters keep the total.
const maxRecordedViolations = 32

// Run executes a compiled program. Engines are cached per Compiled
// (pool.go), so repeated Runs of the same compilation reuse every arena the
// Engine owns; the returned Result is detached — backed by its own storage,
// valid indefinitely — unlike Engine.Run's, which the engine's next run
// overwrites. Callers needing explicit control over engine lifetime (or the
// alias-free fast path) build one with New and Run it directly.
func Run(c *core.Compiled, opts Options) (*Result, error) {
	pool := poolFor(c)
	e := pool.get()
	if e == nil {
		var err error
		if e, err = New(c); err != nil {
			return nil, err
		}
	}
	// Run resets all engine state at entry, so the engine goes back to the
	// pool even when this run failed (stale-value errors under FailOnStale
	// are routine in the fuzzing campaign, not engine corruption).
	res, err := e.Run(opts)
	out := res.detach()
	pool.put(e)
	return out, err
}

// ctxBind is one precomputed context-variable binding of a dynamic epoch.
type ctxBind struct {
	slot int
	val  int64
}

// epochInst is one dynamic epoch instance with its context bindings
// resolved to slots: the whole epoch schedule is precomputed once per
// Engine, so the run loop allocates no per-instance environments.
type epochInst struct {
	node  *ir.EpochNode
	binds []ctxBind
}

// invRange is one precomputed invalidation address range [lo, hi].
type invRange struct{ lo, hi int64 }

// invPlan is one (epoch node, PE)'s compiler-directed invalidation work,
// with the analysis sections resolved to word-address ranges once per
// Engine. has distinguishes "no entries" (no invalidation cost at all)
// from "entries whose sections are empty" (the fixed cost still applies),
// mirroring the map the analysis produces.
type invPlan struct {
	has    bool
	ranges []invRange
}

// Engine executes one compiled program. New builds the compiled mirror
// tree, the dynamic epoch schedule, the interconnect and all per-PE state
// once; Run resets that state and executes, so repeated runs are
// allocation-flat in steady state. An Engine is not safe for concurrent
// Runs, and the returned Result (memory, PE cycle slice, violations,
// network summary) aliases Engine-owned storage that the next Run
// overwrites — copy whatever must outlive it. Engines whose runs fanned
// PEs out concurrently own parked worker goroutines until Close.
type Engine struct {
	c     *core.Compiled
	cp    *cProgram
	mem   *mem.Memory
	graph *ir.EpochGraph
	pes   []*peState
	// net is the torus interconnect; nil under the flat topology (the
	// constant-latency model).
	net *noc.Network
	// tr is the transport the PEs charge remote traffic through outside
	// speculative epochs: nil (flat) or net (the canonical sequential
	// booking order).
	tr noc.Transport
	// hw is the hardware coherence layer (hw.go); nil outside the HWDIR
	// modes. When non-nil, parallel epochs run their PEs sequentially:
	// directory invalidations mutate other PEs' caches.
	hw *hwState

	// Precomputed schedules (New-time, immutable across runs).
	insts []epochInst
	inv   [][]invPlan // [node][pe]; nil outside CCDP
	// hwInv mirrors inv for the coherence-domain hardware: the intra-domain
	// dirty regions the domain's coherent fabric has already invalidated by
	// epoch entry. Applied at zero cycle cost. nil without domains.
	hwInv [][]invPlan
	// domains is true when the machine groups PEs into multi-PE coherence
	// domains AND this is a CCDP compilation: the compiler then skips
	// prefetches for intra-domain words outside the cross-domain refetch
	// set (hardware keeps them fresh). domAware additionally covers
	// batch-cost-only profiles and gates the near/far word accounting.
	domains  bool
	domAware bool

	// Reusable scratch.
	errs []error

	// Worker pool: one parked goroutine per PE, spawned on the first
	// speculative epoch and woken per epoch through wake (spec.go).
	// curLoop stages the epoch's loop for runPE. Engine-method workers
	// keep the per-epoch fan-out allocation-free (closures and method
	// values both allocate).
	wake    []chan struct{}
	poolWG  sync.WaitGroup
	curLoop *cLoop

	// Optimistic-PDES state (spec.go): per-PE predictor recorders,
	// epoch-entry snapshots and re-execution memos, all engine-reused.
	recs          []*noc.SpecRecorder
	snaps         []peSnap
	memos         []memoTransport
	specRollbacks int64

	// Validation-phase scratch (spec.go): the set of shared words any PE
	// wrote in the current speculative epoch, and the one being validated
	// wrote, for the read-write hazard check and the prefetch-queue repair.
	wAll, wrote *bitset.Sparse

	// Reusable result storage: Run returns &res, so a Result's slices and
	// Net summary alias Engine-owned memory that the next Run overwrites.
	res      Result
	peCycles []int64
	netSum   noc.Summary

	// Per-run state.
	opts       Options
	stats      stats.Stats
	inj        *fault.Injector
	optimistic bool
	flatSpec   bool
	staleErr   error
	violations []fault.Violation
	staleMu    sync.Mutex
}

// domainTopo is the machine's interconnect config with its coherence-domain
// fields injected: the noc near tier is profile-derived, never parsed, so
// every transport built for this machine (canonical network, optimistic
// predictor fleet) must come through here to see the same costs.
func domainTopo(mp machine.Params) noc.Config {
	topo := mp.Topology
	if mp.DomainSize > 1 {
		topo.DomainPEs = mp.DomainSize
		topo.NearBaseCost = mp.NearBaseCost
	}
	return topo
}

// buildInvPlans resolves one analysis invalidation table (software or
// hardware) into per-(node, PE) word-address range plans.
func buildInvPlans(prog *ir.Program, graph *ir.EpochGraph, numPE int, table [][]stale.ArraySections) [][]invPlan {
	plans := make([][]invPlan, len(graph.Nodes))
	for ni := range graph.Nodes {
		plans[ni] = make([]invPlan, numPE)
		for p := 0; p < numPE; p++ {
			sections := table[ni][p]
			plan := invPlan{has: len(sections) > 0}
			names := make([]string, 0, len(sections))
			for name := range sections {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				arr := prog.ArrayByName(name)
				for _, r := range sections[name].Rects() {
					plan.ranges = append(plan.ranges,
						invRange{mem.AddrOf(arr, r.Lo), mem.AddrOf(arr, r.Hi)})
				}
			}
			plans[ni][p] = plan
		}
	}
	return plans
}

// New builds a reusable engine for a compiled program.
func New(c *core.Compiled) (*Engine, error) {
	prog := c.Prog
	mp := c.Machine
	graph, err := ir.BuildEpochGraph(prog)
	if err != nil {
		return nil, err
	}
	if c.Stale != nil && len(c.Stale.Invalidate) != len(graph.Nodes) {
		return nil, fmt.Errorf("exec: invalidation table has %d nodes, graph has %d",
			len(c.Stale.Invalidate), len(graph.Nodes))
	}
	cp, err := compileProgram(c, graph)
	if err != nil {
		return nil, err
	}
	var net *noc.Network
	if mp.NumPE > 1 {
		// noc.New returns nil for the flat topology: every remote path
		// then keeps the constant-latency costs, bit-identically.
		if net, err = noc.New(domainTopo(mp), mp.NumPE); err != nil {
			return nil, err
		}
	}
	e := &Engine{c: c, cp: cp, graph: graph, net: net,
		mem:  mem.New(prog, mp.NumPE, c.TotalWords),
		errs: make([]error, mp.NumPE),
	}

	// Precompute the dynamic epoch schedule with context bindings resolved
	// to variable slots (one flat slice instead of a map per instance).
	err = graph.ForEachEpochInstance(func(inst ir.EpochInstance) error {
		ei := epochInst{node: inst.Node}
		for _, l := range inst.Node.Context {
			if s := cp.syms.VarIndex(l.Var); s >= 0 {
				ei.binds = append(ei.binds, ctxBind{slot: s, val: inst.Env[l.Var]})
			}
		}
		e.insts = append(e.insts, ei)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Precompute CCDP invalidation regions as word-address ranges, in
	// sorted array-name order. Arrays occupy disjoint address ranges, so
	// the dropped-line count and the resulting cache state are identical
	// to walking the analysis map in any order.
	if c.Mode == core.ModeCCDP && c.Stale != nil {
		e.inv = buildInvPlans(prog, graph, mp.NumPE, c.Stale.Invalidate)
		if c.Stale.HWInvalidate != nil {
			e.hwInv = buildInvPlans(prog, graph, mp.NumPE, c.Stale.HWInvalidate)
		}
	}
	e.domains = mp.DomainSize > 1 && e.inv != nil
	e.domAware = mp.DomainAware()

	maxRank := 1
	for _, a := range prog.Arrays {
		if r := a.Rank(); r > maxRank {
			maxRank = r
		}
	}
	lines := c.TotalWords/mp.LineWords + 1
	if c.Mode.IsHW() {
		cfg := coherence.Config{Org: c.Mode.DirOrg(), Pointers: mp.DirPointers,
			SparseLines: int64(mp.DirSparseLines), SparseWays: mp.DirSparseWays}
		e.hw = &hwState{
			dir:   coherence.NewDirectory(cfg, mp.NumPE, lines),
			noInv: mp.DirDropInvalidations,
		}
	}
	// Per-PE state is slab-allocated: one backing array per field family
	// (plus the cache and prefetch-queue fleets) instead of ~10 allocations
	// per PE, which dominates one-shot construction cost at 64 PEs.
	e.pes = make([]*peState, mp.NumPE)
	peSlab := make([]peState, mp.NumPE)
	caches := cache.NewFleet(mp.NumPE, mp.CacheWords, mp.LineWords)
	pqs := pfq.NewFleet(mp.NumPE, mp.PrefetchQueueWords)
	scalarSlab := make([]float64, mp.NumPE*cp.nScalars)
	writtenSlab := make([]bool, mp.NumPE*cp.nScalars)
	envSlab := make([]int64, mp.NumPE*cp.nVars)
	boundSlab := make([]bool, mp.NumPE*cp.nVars)
	idxSlab := make([]int64, mp.NumPE*maxRank)
	for p := 0; p < mp.NumPE; p++ {
		pe := &peSlab[p]
		sLo, sHi := p*cp.nScalars, (p+1)*cp.nScalars
		vLo, vHi := p*cp.nVars, (p+1)*cp.nVars
		iLo, iHi := p*maxRank, (p+1)*maxRank
		*pe = peState{
			id:            p,
			eng:           e,
			cache:         caches[p],
			pq:            pqs[p],
			scalars:       scalarSlab[sLo:sHi:sHi],
			scalarWritten: writtenSlab[sLo:sHi:sHi],
			env:           envSlab[vLo:vHi:vHi],
			bound:         boundSlab[vLo:vHi:vHi],
			buffered:      bitset.NewSparse(lines),
			idxScratch:    idxSlab[iLo:iHi:iHi],
			shScratch:     shmem.NewScratch(e.mem, mp),
		}
		e.pes[p] = pe
		if e.hw != nil && mp.HWPrefetcher != "" {
			pref, err := newHWPrefetcher(mp.HWPrefetcher, mp.LineWords)
			if err != nil {
				return nil, err
			}
			pe.hwPref = pref
			pe.hwPrefetched = bitset.NewSparse(lines)
		}
	}
	return e, nil
}

// Run executes the program, resetting all Engine-owned state first.
func (e *Engine) Run(opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: %v", r)
		}
	}()

	mp := e.c.Machine
	if err := opts.Fault.Validate(); err != nil {
		return nil, err
	}
	if opts.Trace != nil && len(opts.Trace.PerPE) != mp.NumPE {
		return nil, fmt.Errorf("exec: trace has %d PEs, machine has %d", len(opts.Trace.PerPE), mp.NumPE)
	}

	e.opts = opts
	e.stats = stats.Stats{}
	e.staleErr = nil
	e.violations = e.violations[:0]
	e.inj = fault.NewInjector(opts.Fault, mp.NumPE)
	e.mem.Reset()
	// The engine starts single-threaded (epoch setup, serial epochs); the
	// parallel fan-out flips the memory to atomic mode only while PE
	// goroutines actually run concurrently.
	e.mem.SetSerial(true)
	if e.net != nil {
		e.net.Reset()
		e.tr = e.net
	} else {
		e.tr = nil
	}
	if e.hw != nil {
		e.hw.dir.Reset()
	}
	// Optimistic speculation needs more than one scheduler thread to win
	// anything; on a single thread the canonical sequential order is the
	// same simulation without the cross-goroutine choreography. The HW
	// modes never use it: their epochs are sequential (see hw field). It
	// also excludes fault injection (fault streams are stateful draws a
	// rollback cannot rewind), tracing (the stream would record
	// speculative timings) and stale-ref attribution (per-ref counts would
	// double-count re-executed reads). Those runs take the canonical
	// sequential order, which is the reference speculation is proven
	// against.
	e.optimistic = e.net != nil && mp.NumPE > 1 && !opts.DetectRaces && !opts.SerialTorus &&
		e.hw == nil && runtime.GOMAXPROCS(0) > 1 &&
		e.inj == nil && opts.Trace == nil && !opts.TrackStaleRefs
	// Flat concurrent epochs have no link state to validate, but they share
	// memory, so line fills and prefetch captures race with same-epoch
	// writes exactly as torus speculation does (the INCOHERENT mode makes
	// the race observable as nondeterministic oracle counts). The same
	// capture bookkeeping settles them deterministically (spec.go); the
	// exclusions mirror e.optimistic's, and excluded runs keep the plain
	// fan-out.
	e.flatSpec = e.net == nil && mp.NumPE > 1 && !opts.DetectRaces &&
		e.hw == nil && e.inj == nil && opts.Trace == nil && !opts.TrackStaleRefs
	for _, pe := range e.pes {
		pe.reset()
	}

	if err := e.runAll(); err != nil {
		return nil, err
	}

	if e.peCycles == nil {
		e.peCycles = make([]int64, mp.NumPE)
	}
	e.res = Result{Stats: e.stats, Mem: e.mem, PECycles: e.peCycles,
		Violations: e.violations}
	res = &e.res
	if opts.TrackStaleRefs {
		res.StaleByRef = map[ir.RefID]int64{}
		for _, pe := range e.pes {
			for id, n := range pe.staleByRef {
				res.StaleByRef[id] += n
			}
		}
	}
	for p, pe := range e.pes {
		res.PECycles[p] = pe.now
	}
	res.Cycles = res.PECycles[0]
	res.Stats.Cycles = res.Cycles
	if e.net != nil {
		e.net.SummaryInto(&e.netSum, res.Cycles)
		res.Net = &e.netSum
		res.Stats.NetMessages = res.Net.Messages
		res.Stats.NetWaitCycles = res.Net.WaitCycles
		res.Stats.NetContended = res.Net.Contended
	}
	return res, nil
}

// reset returns one PE to its just-built state for the next run.
func (pe *peState) reset() {
	e := pe.eng
	pe.now = 0
	pe.stats = stats.Stats{}
	pe.cache.Reset()
	pe.pq.Reset()
	for i := range pe.scalars {
		pe.scalars[i] = 0
		pe.scalarWritten[i] = false
	}
	for i := range pe.env {
		pe.env[i] = 0
		pe.bound[i] = false
	}
	pe.clearRegs()
	pe.buffered.Reset()
	pe.reads, pe.writes = nil, nil
	if pe.raceRd != nil {
		pe.raceRd.Reset()
		pe.raceWr.Reset()
	}
	pe.vpAddrs = pe.vpAddrs[:0]
	if pe.hwPref != nil {
		pe.hwPref.Reset()
		pe.hwPrefetched.Reset()
	}
	pe.staleByRef = nil
	pe.demoted = 0
	pe.crossInv = nil
	pe.tr = e.tr
	pe.spec = false
	pe.pendViol = pe.pendViol[:0]
	pe.undo = pe.undo[:0]
	pe.filled = pe.filled[:0]
	if pe.consumed != nil {
		pe.consumed.Reset()
	}
	pe.fault, pe.shFaults = nil, nil
	if e.inj != nil {
		pe.fault = e.inj.PE(pe.id)
		pe.shFaults = &shmem.Faults{DropLine: pe.fault.DropPrefetch, LateDelay: pe.fault.LateDelay}
	}
	pe.trace = nil
	if e.opts.Trace != nil {
		pe.trace = e.opts.Trace.PerPE[pe.id]
	}
	for k, v := range e.c.Prog.Params {
		if s := e.cp.syms.VarIndex(k); s >= 0 {
			pe.env[s] = v
			pe.bound[s] = true
		}
	}
}

func (e *Engine) runAll() error {
	for i := range e.insts {
		if err := e.epoch(&e.insts[i]); err != nil {
			return err
		}
	}
	// Final accounting: flush queues, merge PE stats.
	for _, pe := range e.pes {
		e.stats.PrefetchUnused += pe.pq.Flush()
		e.mergePE(pe)
	}
	if e.inj != nil {
		c := e.inj.Counts()
		e.stats.FaultDrops = c.Drops
		e.stats.FaultLate = c.Lates
		e.stats.FaultSpikes = c.Spikes
		e.stats.FaultEvictions = c.Evictions
		e.stats.FaultSkews = c.Skews
	}
	if e.hw != nil {
		e.stats.DirStorageBits = e.hw.dir.StorageBits()
		e.stats.DirEvictions = e.hw.dir.Evictions
	}
	return e.staleErr
}

// epoch executes one dynamic epoch instance, including the boundary
// actions (invalidation before, barrier and queue flush after).
func (e *Engine) epoch(inst *epochInst) error {
	mp := e.c.Machine
	node := inst.node
	e.stats.Epochs++

	// Modeled hardware coherence (machines with multi-PE domains): the
	// domain fabric has already invalidated the intra-domain dirty regions
	// by the time the epoch starts, at no cycle cost to the program.
	if e.hwInv != nil {
		for p, pe := range e.pes {
			for _, r := range e.hwInv[node.Index][p].ranges {
				pe.stats.DomainHWInvalidations += pe.cache.InvalidateRange(r.lo, r.hi)
			}
		}
	}

	// Compiler-directed invalidation (CCDP): each PE drops the cached
	// regions the analysis says may be dirty for it.
	if e.inv != nil {
		for p, pe := range e.pes {
			plan := &e.inv[node.Index][p]
			var dropped int64
			for _, r := range plan.ranges {
				dropped += pe.cache.InvalidateRange(r.lo, r.hi)
			}
			if plan.has {
				pe.now += 10 + dropped*mp.InvalidateLineCost
			}
			pe.stats.InvalidatedLines += dropped
			// The epoch's cross-domain refetch ranges double as the
			// compiler's prefetch-skip filter on domained machines
			// (peState.domainSkip).
			pe.crossInv = plan.ranges
		}
	}

	// Set the context environment on every PE; under KindSkew each PE's
	// clock drifts by a seeded offset at epoch entry (the barrier at the
	// epoch's end reconverges everyone to the slowest clock).
	for _, pe := range e.pes {
		if pe.fault != nil {
			pe.now += pe.fault.ClockSkew()
		}
		for _, b := range inst.binds {
			pe.env[b.slot] = b.val
			pe.bound[b.slot] = true
		}
	}

	if node.Parallel {
		if err := e.parallelEpoch(node); err != nil {
			return err
		}
	} else {
		pe0 := e.pes[0]
		if err := pe0.runStmts(e.cp.nodes[node.Index].stmts); err != nil {
			return err
		}
		// Scalars written in a serial epoch are broadcast at the barrier.
		// The written mask mirrors map-key presence in the old map-based
		// state: only slots PE 0 has ever stored to are propagated.
		for _, pe := range e.pes[1:] {
			for s, w := range pe0.scalarWritten {
				if w {
					pe.scalars[s] = pe0.scalars[s]
					pe.scalarWritten[s] = true
				}
			}
		}
	}

	// Barrier: everyone advances to the slowest PE.
	var maxNow int64
	for _, pe := range e.pes {
		if pe.now > maxNow {
			maxNow = pe.now
		}
	}
	if mp.NumPE > 1 {
		maxNow += mp.BarrierCost
		e.stats.Barriers++
		// LazyPIM-style batched coherence: compute-side and memory-side
		// caches reconcile once per epoch boundary.
		maxNow += mp.DomainBatchCost
	}
	for _, pe := range e.pes {
		pe.now = maxNow
		e.stats.PrefetchUnused += pe.pq.Flush()
		pe.buffered.Reset()
		for _, b := range inst.binds {
			pe.bound[b.slot] = false
		}
	}
	if e.net != nil {
		// The barrier drains the network: in-flight link reservations end
		// with the epoch (cumulative traffic stats survive).
		e.net.EndEpoch()
	}

	if e.opts.DetectRaces && node.Parallel {
		if err := e.checkRaces(node); err != nil {
			return err
		}
	}
	for _, pe := range e.pes {
		if pe.reads != nil {
			pe.reads.Reset()
			pe.writes.Reset()
			pe.reads, pe.writes = nil, nil
		}
	}
	return nil
}

// parallelEpoch runs the DOALL on all PEs concurrently, safe because tasks
// of one epoch touch disjoint data. Three cases:
//
//   - Torus with speculation on (e.optimistic): all PEs speculate
//     concurrently on private predictor networks, then a serial pass
//     validates and commits (or rolls back and re-executes) in PE-major
//     order (spec.go).
//   - DetectRaces or 1 PE or a HWDIR mode or any other torus run
//     (Options.SerialTorus, a single-threaded scheduler, fault injection,
//     tracing, stale-ref attribution): the PEs run sequentially on the
//     calling goroutine. This is the canonical order torus link booking is
//     defined against: PE p's whole epoch books before PE p+1's. The HWDIR
//     modes are pinned here because directory invalidations mutate OTHER
//     PEs' caches — the disjoint-data argument the concurrent cases rest
//     on does not hold for them.
//   - Flat: no link state exists and PE clocks are fully independent, so
//     the PEs fan out over the shared worker budget (degrading to inline
//     when the machine is busy), work-stealing by atomic index. Memory is
//     still shared, though: line fills and prefetch captures race with
//     same-epoch writes, so fault-free untraced runs carry the speculative
//     capture bookkeeping and settle serially afterwards (settleFlat,
//     spec.go), keeping results bit-identical to the canonical PE-major
//     order at any GOMAXPROCS.
func (e *Engine) parallelEpoch(node *ir.EpochNode) error {
	e.curLoop = e.cp.nodes[node.Index].loop
	errs := e.errs
	for i := range errs {
		errs[i] = nil
	}

	switch {
	case e.optimistic:
		e.specEpoch()

	case e.opts.DetectRaces || len(e.pes) == 1 || e.hw != nil || e.net != nil:
		for p := range e.pes {
			e.runPE(p)
		}

	default:
		extra := parallel.AcquireWorkers(len(e.pes) - 1)
		if extra == 0 {
			for p := range e.pes {
				e.runPE(p)
			}
			break
		}
		if e.flatSpec {
			e.beginMemSpec()
		}
		e.mem.SetSerial(false)
		var next atomic.Int64
		work := func() {
			for {
				p := int(next.Add(1)) - 1
				if p >= len(e.pes) {
					return
				}
				e.runPE(p)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < extra; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		parallel.ReleaseWorkers(extra)
		e.mem.SetSerial(true)
		if e.flatSpec {
			e.settleFlat()
		}
	}

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkRaces verifies that no two PEs conflicted inside the epoch. The
// Sparse sets iterate in insertion order, so the first conflict reported is
// deterministic (a map-keyed set would pick an arbitrary one).
func (e *Engine) checkRaces(node *ir.EpochNode) error {
	for p, pa := range e.pes {
		for q := p + 1; q < len(e.pes); q++ {
			pb := e.pes[q]
			for _, a := range pa.writes.Members() {
				if pb.writes.Contains(a) {
					return fmt.Errorf("exec: epoch %d: PEs %d and %d both write addr %d", node.Index, p, q, a)
				}
				if pb.reads.Contains(a) {
					return fmt.Errorf("exec: epoch %d: PE %d writes addr %d read by PE %d", node.Index, p, a, q)
				}
			}
			for _, a := range pa.reads.Members() {
				if pb.writes.Contains(a) {
					return fmt.Errorf("exec: epoch %d: PE %d reads addr %d written by PE %d", node.Index, p, a, q)
				}
			}
		}
	}
	return nil
}

func (e *Engine) mergePE(pe *peState) {
	e.stats.Merge(&pe.stats)
	e.stats.Hits += pe.cache.Hits
	e.stats.Misses += pe.cache.Misses
	e.stats.PrefetchIssued += pe.pq.Issued
	e.stats.PrefetchDropped += pe.pq.Dropped
	e.stats.PrefetchConsumed += pe.pq.Consumed
}

// reportStale records a coherence-oracle hit: PE pe consumed a word at
// addr through ref r whose generation gen is out of date.
func (e *Engine) reportStale(pe *peState, r *ir.Ref, addr int64, gen uint32) {
	pe.stats.StaleValueReads++
	pe.stats.OracleViolations++
	if e.opts.TrackStaleRefs {
		if pe.staleByRef == nil {
			pe.staleByRef = map[ir.RefID]int64{}
		}
		pe.staleByRef[r.ID]++
	}
	v := fault.Violation{
		PE: pe.id, Addr: addr, Gen: gen, MemGen: e.mem.Gen(addr), Cycle: pe.now,
	}
	if arr := e.mem.ArrayOf(addr); arr != nil {
		v.Array = arr.Name
	}
	if r != nil {
		v.Ref = r.String()
	}
	if pe.spec {
		// Speculative epoch: buffer on the PE and merge at commit (PE-major,
		// deterministic, no lock); a rollback discards and the re-execution
		// re-detects.
		if len(pe.pendViol) < maxRecordedViolations {
			pe.pendViol = append(pe.pendViol, v)
		}
		return
	}
	e.staleMu.Lock()
	if len(e.violations) < maxRecordedViolations {
		e.violations = append(e.violations, v)
	}
	if e.opts.FailOnStale && e.staleErr == nil {
		e.staleErr = fmt.Errorf("exec: %v", v)
	}
	e.staleMu.Unlock()
}
