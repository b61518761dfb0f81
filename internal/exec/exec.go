// Package exec is the T3D execution engine: it interprets a compiled
// program (real float64 arithmetic over the simulated distributed memory),
// drives the per-PE caches and prefetch queues, and charges cycle costs.
//
// Execution follows the paper's epoch model (§3.1): a parallel epoch runs
// its DOALL chunks PE by PE on the calling goroutine, in PE-major order
// (PE p's whole chunk before PE p+1's); serial epochs run on PE 0; every
// epoch boundary is a barrier, and write-through caches keep home memory
// current so the boundary memory-update is implicit. PEs touch disjoint
// data inside an epoch, so the PE-major order is one valid interleaving of
// the modeled concurrent machine, and its per-PE clocks are the cycle
// counts the model defines. That order is also the canonical order torus
// link booking is defined against, so results are identical at any
// GOMAXPROCS: the engine starts no goroutines. Parallelism lives one level
// up, across independent sweep points (internal/parallel, sweepd).
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

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/pfq"
	"repro/internal/section"
	"repro/internal/shmem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options controls optional engine verification features.
type Options struct {
	// DetectRaces records per-epoch read/write address sets of shared
	// arrays and reports cross-PE conflicts inside one epoch (violations
	// of the "no data dependences between tasks of a parallel epoch"
	// model) and fails the run on the first one. Expensive; for tests.
	DetectRaces bool
	// FailOnStale makes Run return an error on the first stale-value read
	// instead of only counting it.
	FailOnStale bool
	// TrackStaleRefs records which reference sites observed stale values
	// (used by the analysis-soundness property tests).
	TrackStaleRefs bool
	// SerialTorus is ignored: every parallel epoch runs in the canonical
	// sequential PE-major order.
	//
	// Deprecated: the engine has one execution order; the field stays for
	// source compatibility only.
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

// Engine executes one compiled program. New builds the compiled mirror
// tree, the dynamic epoch schedule, the interconnect and all per-PE state
// once; Run resets that state and executes, so repeated runs are
// allocation-flat in steady state. An Engine is not safe for concurrent
// Runs, and the returned Result (memory, PE cycle slice, violations,
// network summary) aliases Engine-owned storage that the next Run
// overwrites — copy whatever must outlive it.
type Engine struct {
	c     *core.Compiled
	cp    *cProgram
	mem   *mem.Memory
	graph *ir.EpochGraph
	pes   []*peState
	// net is the torus interconnect; nil under the flat topology (the
	// constant-latency model).
	net *noc.Network
	// hw is the hardware coherence layer (hw.go); nil outside the HWDIR
	// modes.
	hw *hwState

	// Precomputed schedules (New-time, immutable across runs).
	insts []epochInst
	// inv is each (epoch node, PE)'s compiler-directed invalidation work,
	// the analysis sections resolved to word-address ranges once per
	// Engine; nil outside CCDP. A PE with no ranges pays no invalidation
	// cost at all.
	inv [][][]invRange // [node][pe]
	// hwInv mirrors inv for the coherence-domain hardware: the intra-domain
	// dirty regions the domain's coherent fabric has already invalidated by
	// epoch entry. Applied at zero cycle cost. nil without domains.
	hwInv [][][]invRange
	// domains is true when the machine groups PEs into multi-PE coherence
	// domains AND this is a CCDP compilation: the compiler then skips
	// prefetches for intra-domain words outside the cross-domain refetch
	// set (hardware keeps them fresh). domAware additionally covers
	// batch-cost-only profiles and gates the near/far word accounting.
	domains  bool
	domAware bool

	// Reusable result storage: Run returns &res, so a Result's slices and
	// Net summary alias Engine-owned memory that the next Run overwrites.
	res      Result
	peCycles []int64
	netSum   noc.Summary

	// Per-run state.
	opts       Options
	stats      stats.Stats
	inj        *fault.Injector
	staleErr   error
	violations []fault.Violation
}

// domainTopo is the machine's interconnect config with its coherence-domain
// fields injected: the noc near tier is profile-derived, never parsed, so
// the network built for this machine must come through here to see the
// domain costs.
func domainTopo(mp *machine.Params) noc.Config {
	topo := mp.Topology
	if mp.DomainSize > 1 {
		topo.DomainPEs = mp.DomainSize
		topo.NearBaseCost = mp.NearBaseCost
	}
	return topo
}

// buildInvPlans resolves one analysis invalidation table (software or
// hardware) into per-(node, PE) word-address ranges, in array order.
// Arrays occupy disjoint address ranges, so neither the dropped-line count
// nor domainSkip's membership test depends on that order.
func buildInvPlans(arrays []*ir.Array, table [][][]section.Set) [][][]invRange {
	plans := make([][][]invRange, len(table))
	for n, perPE := range table {
		plans[n] = make([][]invRange, len(perPE))
		for p, sections := range perPE {
			for a, s := range sections {
				for _, r := range s.Rects() {
					plans[n][p] = append(plans[n][p],
						invRange{mem.AddrOf(arrays[a], r.Lo), mem.AddrOf(arrays[a], r.Hi)})
				}
			}
		}
	}
	return plans
}

// New builds a reusable engine for a compiled program.
func New(c *core.Compiled) (*Engine, error) {
	prog := c.Prog
	mp := &c.Machine
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
		mem: mem.New(prog, mp.NumPE, c.TotalWords),
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

	// Precompute CCDP invalidation regions as word-address ranges.
	if c.Mode == core.ModeCCDP && c.Stale != nil {
		e.inv = buildInvPlans(prog.Arrays, c.Stale.Invalidate)
		if c.Stale.HWInvalidate != nil {
			e.hwInv = buildInvPlans(prog.Arrays, c.Stale.HWInvalidate)
		}
	}
	e.domains = mp.DomainSize > 1 && e.inv != nil
	e.domAware = mp.DomainAware()

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
	stackSlab := make([]float64, mp.NumPE*cp.stackDepth)
	for p := 0; p < mp.NumPE; p++ {
		pe := &peSlab[p]
		sLo, sHi := p*cp.nScalars, (p+1)*cp.nScalars
		vLo, vHi := p*cp.nVars, (p+1)*cp.nVars
		*pe = peState{
			id:            p,
			eng:           e,
			cache:         caches[p],
			pq:            pqs[p],
			scalars:       scalarSlab[sLo:sHi:sHi],
			scalarWritten: writtenSlab[sLo:sHi:sHi],
			env:           envSlab[vLo:vHi:vHi],
			bound:         boundSlab[vLo:vHi:vHi],
			stack:         stackSlab[p*cp.stackDepth : (p+1)*cp.stackDepth],
			buffered:      bitset.NewSparse(lines),
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

	mp := &e.c.Machine
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
	if e.net != nil {
		e.net.Reset()
	}
	if e.hw != nil {
		e.hw.dir.Reset()
	}
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
	pe.tr = e.net
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
	mp := &e.c.Machine
	node := inst.node
	e.stats.Epochs++

	// Compiler-directed invalidation (CCDP): each PE drops the cached
	// regions the analysis says may be dirty for it. On machines with
	// multi-PE domains the domain fabric has first invalidated the
	// intra-domain dirty regions, at no cycle cost to the program.
	if e.inv != nil {
		for p, pe := range e.pes {
			if e.hwInv != nil {
				for _, r := range e.hwInv[node.Index][p] {
					pe.stats.DomainHWInvalidations += pe.cache.InvalidateRange(r.lo, r.hi)
				}
			}
			ranges := e.inv[node.Index][p]
			var dropped int64
			for _, r := range ranges {
				dropped += pe.cache.InvalidateRange(r.lo, r.hi)
			}
			if len(ranges) > 0 {
				pe.now += 10 + dropped*mp.InvalidateLineCost
			}
			pe.stats.InvalidatedLines += dropped
			// The epoch's cross-domain refetch ranges double as the
			// compiler's prefetch-skip filter on domained machines
			// (peState.domainSkip).
			pe.crossInv = ranges
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

// parallelEpoch runs the DOALL's chunks PE by PE in PE-major order: PE p's
// whole epoch runs (and books its torus traffic) before PE p+1's. Tasks of
// one epoch touch disjoint data, so this order is one valid interleaving of
// the concurrent machine the paper models; it is the only order the engine
// has, so every run is reproducible bit for bit. The HWDIR modes rely on it
// too: their directory invalidations mutate OTHER PEs' caches.
func (e *Engine) parallelEpoch(node *ir.EpochNode) error {
	loop := e.cp.nodes[node.Index].loop
	for p := range e.pes {
		if err := e.runPE(p, loop); err != nil {
			return err
		}
	}
	return nil
}

// runPE executes PE p's share of a parallel epoch's loop. A panic inside
// the chunk (a program bug: out-of-range subscript, exhausted demotion
// budget) becomes a run error naming the PE.
func (e *Engine) runPE(p int, loop *cLoop) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PE %d: %v", p, r)
		}
	}()
	pe := e.pes[p]
	if e.opts.DetectRaces {
		if pe.raceRd == nil {
			pe.raceRd = bitset.NewSparse(e.mem.Words())
			pe.raceWr = bitset.NewSparse(e.mem.Words())
		}
		pe.reads = pe.raceRd
		pe.writes = pe.raceWr
	}
	switch e.c.Mode {
	case core.ModeBase:
		pe.now += e.c.Machine.CraftDosharedSetupCost
	case core.ModeCCDP:
		pe.now += e.c.Machine.CCDPLoopSetupCost
	}
	return pe.runDoall(loop)
}

// SpecRollbacks always returns 0.
//
// Deprecated: the engine no longer speculates; kept for source
// compatibility only.
func (e *Engine) SpecRollbacks() int64 { return 0 }

// Close does nothing: an Engine owns no goroutines or other resources
// beyond its memory.
//
// Deprecated: kept for source compatibility only.
func (e *Engine) Close() {}

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
	if len(e.violations) < maxRecordedViolations {
		e.violations = append(e.violations, v)
	}
	if e.opts.FailOnStale && e.staleErr == nil {
		e.staleErr = fmt.Errorf("exec: %v", v)
	}
}
