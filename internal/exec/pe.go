package exec

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/coherence/prefetch"
	"repro/internal/core"
	"repro/internal/craft"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/pfq"
	"repro/internal/shmem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// peState is one processing element: its cycle clock, cache, prefetch
// queue, scalar registers and induction-variable environment. All value
// state is slot-indexed through the program's symbol table (dense slices,
// no string-keyed maps): the engine executes the compiled mirror tree
// (compile.go), so its hot path allocates nothing per simulated access.
type peState struct {
	id    int
	eng   *Engine
	now   int64
	cache *cache.Cache
	pq    *pfq.Queue
	stats stats.Stats

	// tr is the torus interconnect this PE books its remote traffic on
	// (the engine's network); nil under the flat topology.
	tr *noc.Network

	// scalars holds the PE-private scalar values, indexed by scalar slot;
	// scalarWritten marks the slots this PE has ever stored to (the set the
	// serial-epoch barrier broadcasts, mirroring the map-key semantics the
	// engine had when scalars were a map).
	scalars       []float64
	scalarWritten []bool

	// env/bound is the integer-variable environment, indexed by var slot:
	// params, induction variables and prefetch pull variables. bound mirrors
	// map-key presence; reading an unbound slot is an engine bug and panics
	// with the same diagnostic the map-based evaluator raised.
	env   []int64
	bound []bool

	// stack is the operand stack postfix expressions evaluate on, sized
	// to the program's deepest expression.
	stack []float64

	// regA/regV model compiler register allocation as a linear-scan window:
	// within one iteration of the innermost executing loop, repeated loads
	// of the same address are register hits costing nothing — in every mode,
	// exactly as the Fortran compiler eliminates redundant loads in both the
	// BASE and CCDP codes. Truncated at each iteration boundary; updated by
	// the PE's own stores. The window holds the handful of addresses one
	// iteration touches, so a scan beats any map.
	regA []int64
	regV []float64

	// buffered records the cache lines fetched by a vector prefetch in the
	// current epoch, keyed by line index (addr/LineWords): shmem_get lands
	// the data in a LOCAL buffer, so a line evicted from the cache refills
	// from local DRAM, not from the remote home. Reset at every epoch
	// boundary (the buffer contents are only coherent for the epoch the get
	// served).
	buffered *bitset.Sparse

	// Race-detection address sets (shared arrays only), per epoch; non-nil
	// only while a parallel epoch runs under Options.DetectRaces. raceRd and
	// raceWr are the lazily-allocated backing sets reads/writes point at.
	reads, writes  *bitset.Sparse
	raceRd, raceWr *bitset.Sparse

	// vpAddrs accumulates a vector prefetch's address list; shScratch is
	// this PE's reusable shmem transfer state.
	vpAddrs   []int64
	shScratch *shmem.Scratch

	// hwPref is this PE's runtime prefetcher (HWDIR modes with
	// machine.HWPrefetcher set; nil otherwise). hwPrefetched tracks the
	// line indices it ever filled, for the usefulness count; prefScratch
	// is the suggestion buffer Observe appends into.
	hwPref       prefetch.Prefetcher
	hwPrefetched *bitset.Sparse
	prefScratch  []int64

	// staleByRef attributes stale-value reads to reference sites
	// (Options.TrackStaleRefs).
	staleByRef map[ir.RefID]int64

	// crossInv is the current epoch's cross-domain refetch ranges (the
	// software invalidation plan), set at epoch entry on domained CCDP
	// runs: the compiler's prefetch-skip filter (domainSkip). nil
	// otherwise.
	crossInv []invRange

	// fault is this PE's seeded fault stream; nil in a fault-free run.
	// shFaults is the prefetch-drop/late hook pair handed to shmem.
	fault    *fault.PE
	shFaults *shmem.Faults
	// demoted counts bypass-fetch fallbacks, checked against the per-PE
	// demotion budget when faults are enabled.
	demoted int64

	// trace, when non-nil, receives one event per memory operation.
	trace *trace.Collector
}

// runDoall executes the PE's share of a parallel epoch.
func (pe *peState) runDoall(l *cLoop) error {
	mp := &pe.eng.c.Machine
	lo := pe.evalAffine(&l.lo)
	hi := pe.evalAffine(&l.hi)
	step := l.step

	// Prologue: vector prefetches hoisted to the epoch entry. A vector
	// over the DOALL's own variable covers only this PE's chunk.
	chunk := craft.Chunk{Lo: lo, Hi: hi}
	if l.sched == ir.SchedStatic && step == 1 {
		if l.alignExt > 0 {
			chunk = craft.AlignedChunk(lo, hi, l.alignExt, mp.NumPE, pe.id)
		} else {
			chunk = craft.BlockChunk(lo, hi, mp.NumPE, pe.id)
		}
	}
	for _, s := range l.prologue {
		if vp, ok := s.(*cVP); ok {
			if vp.varSlot == l.varSlot {
				pe.vectorPrefetch(vp, chunk.Lo, chunk.Hi, step)
			} else {
				pe.vectorPrefetch(vp, pe.evalAffine(&vp.lo), pe.evalAffine(&vp.hi), vp.step)
			}
			continue
		}
		if err := pe.runStmt(s); err != nil {
			return err
		}
	}

	switch {
	case l.sched == ir.SchedDynamic:
		// Deterministic round-robin stand-in for runtime self-scheduling.
		if l.covered != nil && hi >= lo {
			pe.prove(l, lo, lastIter(lo, hi, step))
		}
		for it := lo; it <= hi; it += step {
			if int((it-lo)/step)%mp.NumPE != pe.id {
				continue
			}
			pe.now += mp.DynamicSchedCost + mp.LoopIterCost
			pe.env[l.varSlot] = it
			pe.bound[l.varSlot] = true
			pe.clearRegs()
			if err := pe.runStmts(l.body); err != nil {
				return err
			}
		}
	default:
		if step != 1 {
			return fmt.Errorf("exec: DOALL %q with step %d unsupported", l.src.Var, step)
		}
		if chunk.Empty() {
			break
		}
		if l.covered != nil {
			pe.prove(l, chunk.Lo, chunk.Hi)
		}
		for it := chunk.Lo; it <= chunk.Hi; it++ {
			pe.now += mp.LoopIterCost
			pe.env[l.varSlot] = it
			pe.bound[l.varSlot] = true
			pe.clearRegs()
			if err := pe.runStmts(l.body); err != nil {
				return err
			}
		}
	}
	pe.bound[l.varSlot] = false
	return nil
}

func (pe *peState) clearRegs() {
	pe.regA = pe.regA[:0]
	pe.regV = pe.regV[:0]
}

func (pe *peState) runStmts(body []cStmt) error {
	for _, s := range body {
		if err := pe.runStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (pe *peState) runStmt(s cStmt) error {
	mp := &pe.eng.c.Machine
	switch st := s.(type) {
	case *cLoop:
		if st.parallel {
			return fmt.Errorf("exec: nested parallel loop %q", st.src.Var)
		}
		return pe.runSerialLoop(st)
	case *cAssign:
		pe.now += mp.StmtOverheadCost
		v := pe.evalExpr(st.rhs)
		pe.writeRef(st.lhs, v)
		return nil
	case *cIf:
		pe.now += mp.StmtOverheadCost
		l := pe.evalExpr(st.l)
		r := pe.evalExpr(st.r)
		if evalCmp(st.op, l, r) {
			return pe.runStmts(st.then)
		}
		return pe.runStmts(st.els)
	case *cCall:
		if st.body == nil {
			return fmt.Errorf("exec: call to undefined routine %q", st.name)
		}
		return pe.runStmts(*st.body)
	case *cPrefetch:
		pe.issuePrefetch(st.target)
		return nil
	case *cVP:
		pe.vectorPrefetch(st, pe.evalAffine(&st.lo), pe.evalAffine(&st.hi), st.step)
		return nil
	default:
		return fmt.Errorf("exec: unknown statement %T", s)
	}
}

// runSerialLoop interprets a serial loop, driving any software-pipelined
// prefetch streams attached to it.
func (pe *peState) runSerialLoop(l *cLoop) error {
	mp := &pe.eng.c.Machine
	lo := pe.evalAffine(&l.lo)
	hi := pe.evalAffine(&l.hi)
	step := l.step
	if hi < lo {
		return nil
	}
	if l.covered != nil {
		pe.prove(l, lo, lastIter(lo, hi, step))
	}

	// Pipeline prologue: prime `ahead` iterations per stream.
	for i := range l.pipelined {
		pp := &l.pipelined[i]
		for d := int64(0); d < pp.ahead; d++ {
			it := lo + d*step
			if it > hi {
				break
			}
			pe.issuePrefetchAt(pp.target, l.varSlot, it)
		}
	}

	for it := lo; it <= hi; it += step {
		pe.now += mp.LoopIterCost
		pe.env[l.varSlot] = it
		pe.bound[l.varSlot] = true
		pe.clearRegs()
		// Steady state: prefetch `ahead` iterations forward.
		for i := range l.pipelined {
			pp := &l.pipelined[i]
			fut := it + pp.ahead*step
			if fut <= hi {
				pe.issuePrefetchAt(pp.target, l.varSlot, fut)
			}
		}
		if err := pe.runStmts(l.body); err != nil {
			return err
		}
	}
	pe.bound[l.varSlot] = false
	return nil
}

// lastIter is the last value a loop from lo to hi (lo ≤ hi) by a positive
// step takes.
func lastIter(lo, hi, step int64) int64 { return lo + (hi-lo)/step*step }

// prove runs at an entry of l whose variable takes values from first to
// last: it marks each covered site proven when every subscript lies inside
// its extent at both ends and every other slot it reads is bound, and
// unproven otherwise. Subscripts are affine, and while l runs only its own
// variable changes among the slots a covered site reads (cover leaves out
// the variables of nested loops), so a subscript in range at both ends is
// in range on every iteration in between.
func (pe *peState) prove(l *cLoop, first, last int64) {
	v := l.varSlot
	for _, r := range l.covered {
		r.proven = pe.inRange(r, v, first, last)
		if !r.proven {
			continue
		}
		r.entrySlot, r.entryK, r.entryCoef = v, r.flat.k, 0
		for _, t := range r.flat.terms {
			if t.slot == v {
				r.entryCoef = t.coef
			} else {
				r.entryK += t.coef * pe.env[t.slot]
			}
		}
	}
}

// inRange reports whether every subscript of r lies inside its extent with
// slot v at first and at last, and every other slot r reads is bound.
func (pe *peState) inRange(r *cRef, v int32, first, last int64) bool {
	for d := range r.dims {
		cd := &r.dims[d]
		lo, hi := cd.idx.k, cd.idx.k
		for _, t := range cd.idx.terms {
			if t.slot == v {
				lo += t.coef * first
				hi += t.coef * last
				continue
			}
			if !pe.bound[t.slot] {
				return false
			}
			x := t.coef * pe.env[t.slot]
			lo += x
			hi += x
		}
		if uint64(lo) >= uint64(cd.extent) || uint64(hi) >= uint64(cd.extent) {
			return false
		}
	}
	return true
}

// --- Value evaluation -----------------------------------------------------

// evalExpr evaluates a postfix expression on the PE's operand stack. Loads
// and cycle charges happen in instruction order, which is the tree walk's
// order: operands left to right, then the operator's flop.
func (pe *peState) evalExpr(e cExpr) float64 {
	mp := &pe.eng.c.Machine
	st := pe.stack
	sp := 0
	for i := range e {
		in := &e[i]
		if in.ref != nil {
			st[sp] = pe.readRef(in.ref)
			sp++
		}
		switch in.op {
		case opLoad:
		case opNum:
			st[sp] = in.v
			sp++
		case opIVal:
			pe.now++
			st[sp] = float64(pe.evalAffine(in.a))
			sp++
		case opAdd:
			sp--
			st[sp-1] += st[sp]
			pe.flop(mp.FlopCost)
		case opSub:
			sp--
			st[sp-1] -= st[sp]
			pe.flop(mp.FlopCost)
		case opMul:
			sp--
			st[sp-1] *= st[sp]
			pe.flop(mp.FlopCost)
		case opDiv:
			sp--
			st[sp-1] /= st[sp]
			pe.flop(mp.FlopCost)
		case opMin:
			sp--
			st[sp-1] = math.Min(st[sp-1], st[sp])
			pe.flop(mp.FlopCost)
		case opMax:
			sp--
			st[sp-1] = math.Max(st[sp-1], st[sp])
			pe.flop(mp.FlopCost)
		case opNeg:
			st[sp-1] = -st[sp-1]
			pe.flop(mp.FlopCost)
		case opAbs:
			st[sp-1] = math.Abs(st[sp-1])
			pe.flop(mp.FlopCost)
		case opSqrt:
			st[sp-1] = math.Sqrt(st[sp-1])
			pe.flop(8 * mp.FlopCost)
		}
	}
	return st[0]
}

// flop charges c cycles of floating-point work.
func (pe *peState) flop(c int64) {
	pe.now += c
	pe.stats.FlopCycles += c
}

func evalCmp(op ir.CmpOp, l, r float64) bool {
	switch op {
	case ir.CmpLT:
		return l < r
	case ir.CmpLE:
		return l <= r
	case ir.CmpGT:
		return l > r
	case ir.CmpGE:
		return l >= r
	case ir.CmpEQ:
		return l == r
	case ir.CmpNE:
		return l != r
	}
	return false
}

func (pe *peState) evalAffine(a *caff) int64 {
	return a.eval(pe.env, pe.bound)
}

// addrOf resolves an array reference to a word address. A site proven at
// its loop's entry (cRef.proven) takes one multiply-add on the entry's
// fold of its address; every other site takes checkedAddr.
func (pe *peState) addrOf(r *cRef) int64 {
	if r.proven {
		return r.entryK + r.entryCoef*pe.env[r.entrySlot]
	}
	return pe.checkedAddr(r)
}

// checkedAddr resolves an unproven site. Subscripts are all evaluated
// before any bound is checked, and bounds are checked in dimension order —
// the exact panic precedence of mem.AddrOf over MustEval'd indices, which
// it replaces. One pass evaluates, range-checks and accumulates; only an
// out-of-range reference takes boundsPanic's second, ordered pass. The
// inner loop is caff.eval written out: eval is over the compiler's
// inlining budget.
func (pe *peState) checkedAddr(r *cRef) int64 {
	env, bound := pe.env, pe.bound
	addr := r.base
	inRange := true
	for d := range r.dims {
		cd := &r.dims[d]
		x := cd.idx.k
		for i := range cd.idx.terms {
			t := &cd.idx.terms[i]
			if !bound[t.slot] {
				unboundPanic(t.name)
			}
			x += t.coef * env[t.slot]
		}
		inRange = inRange && uint64(x) < uint64(cd.extent)
		addr += x * cd.stride
	}
	if !inRange {
		pe.boundsPanic(r)
	}
	return addr
}

// boundsPanic reports the first out-of-range subscript of r in dimension
// order. Subscript evaluation is pure and every subscript already
// evaluated cleanly once in checkedAddr, so re-evaluating them is exact.
func (pe *peState) boundsPanic(r *cRef) {
	for d := range r.dims {
		if x := r.dims[d].idx.eval(pe.env, pe.bound); x < 0 || x >= r.dims[d].extent {
			mem.BoundsPanic(r.arr, d, x)
		}
	}
}

// --- Register window --------------------------------------------------------

func (pe *peState) regLookup(addr int64) (float64, bool) {
	for i, a := range pe.regA {
		if a == addr {
			return pe.regV[i], true
		}
	}
	return 0, false
}

func (pe *peState) regInsert(addr int64, v float64) {
	pe.regA = append(pe.regA, addr)
	pe.regV = append(pe.regV, v)
}

// regUpdate refreshes an address already in the window (a store updates the
// register copy only if one exists — no-insert, like the map it replaces).
func (pe *peState) regUpdate(addr int64, v float64) {
	for i, a := range pe.regA {
		if a == addr {
			pe.regV[i] = v
			return
		}
	}
}

// --- Memory reference paths ------------------------------------------------

// readRef performs a read through the mode-appropriate path.
func (pe *peState) readRef(r *cRef) float64 {
	if r.isScalar() {
		return pe.scalars[r.scalar]
	}
	addr := pe.addrOf(r)
	if pe.reads != nil && r.shared {
		pe.reads.Add(addr)
	}

	// Register reuse: the compiler keeps a value loaded earlier in the same
	// iteration in a register (all modes).
	if v, ok := pe.regLookup(addr); ok {
		pe.stats.RegisterHits++
		if pe.trace != nil {
			pe.trace.Record(addr, pe.now, trace.KindRegister)
		}
		return v
	}
	v := pe.readMem(r, addr)
	pe.regInsert(addr, v)
	return v
}

// readMem performs the actual memory access for a read that missed the
// register window. Every path ends in oracleCheck: the coherence safety
// oracle verifies the consumed word's generation against memory on every
// read the simulated program makes. addr's home PE costs a division, so
// only the paths that use it compute it: a cache hit does not.
func (pe *peState) readMem(r *cRef, addr int64) float64 {
	// Hardware coherence arena: every cached access goes through the
	// directory protocol instead (hw.go). The HW pipelines never mark refs
	// non-cached or bypass, so no software path is bypassed here.
	if pe.eng.hw != nil {
		return pe.readMemHW(r, addr, ownerRef(r, addr))
	}
	mp := &pe.eng.c.Machine
	m := pe.eng.mem

	// BASE: CRAFT shared data is never cached.
	if r.nonCached {
		home := ownerRef(r, addr)
		local := home == pe.id
		pe.stats.NonCachedRefs++
		pe.now += mp.CraftSharedAccessCost
		if local {
			pe.now += mp.LocalReadCost // read-ahead buffered local DRAM read
			pe.stats.LocalReads++
			pe.record(addr, trace.KindLocalRead)
		} else {
			pe.chargeRemoteRead(home, 1)
			pe.record(addr, trace.KindRemote)
		}
		v, g := m.Read(addr)
		pe.oracleCheck(r, addr, g)
		return v
	}

	// Bypass-cache fetch: stale read not worth prefetching, or dropped
	// prefetch (paper §3.2) — read memory directly around the cache.
	if r.bypass {
		home := ownerRef(r, addr)
		local := home == pe.id
		pe.stats.BypassReads++
		if local {
			pe.now += mp.LocalReadCost
			pe.stats.LocalReads++
			pe.record(addr, trace.KindLocalRead)
		} else {
			pe.chargeRemoteRead(home, 1)
			pe.record(addr, trace.KindRemote)
		}
		v, g := m.Read(addr)
		pe.oracleCheck(r, addr, g)
		return v
	}

	// Forced-eviction fault: the line is knocked out (conflict with
	// interleaved private data) just before the processor consults it.
	if pe.fault != nil && pe.cache.Contains(addr) && pe.fault.EvictLine() {
		pe.cache.InvalidateRange(addr, addr)
	}

	// Cached path.
	demoted := false
	if val, gen, readyAt, hit := pe.cache.Lookup(addr); hit {
		pe.now += mp.HitCost
		if readyAt > pe.now {
			pe.now = readyAt
		}
		if pe.fault != nil && pe.eng.c.Mode != core.ModeIncoherent && gen != m.Gen(addr) {
			// Degraded mode: never consume a stale hit — drop the line
			// and fall through to a fresh demand fetch (§3.2).
			pe.cache.InvalidateRange(addr, addr)
			pe.demote()
			demoted = true
		} else {
			pe.oracleCheck(r, addr, gen)
			pe.record(addr, trace.KindHit)
			return val
		}
	}
	home := ownerRef(r, addr)
	local := home == pe.id

	// Prefetch queue: the compiler scheduled this word ahead of time.
	if e, ok := pe.pq.Take(addr); ok {
		pe.now += mp.PrefetchExtractCost
		if e.ReadyAt > pe.now {
			pe.stats.PrefetchLate++
			pe.now = e.ReadyAt
		}
		if pe.fault != nil && pe.eng.c.Mode != core.ModeIncoherent && e.Gen != m.Gen(addr) {
			// Degraded mode: discard the stale entry, refetch below.
			pe.demote()
		} else {
			pe.oracleCheck(r, addr, e.Gen)
			pe.record(addr, trace.KindPrefetched)
			return e.Val
		}
	} else if r.prefetched && !demoted && !pe.domainSkip(addr, home) {
		// A scheduled prefetch never arrived (queue overflow, or an
		// injected drop): the reference demotes to the demand fetch
		// below, which is exactly the paper's bypass fallback. Words the
		// domain-aware compiler deliberately left unprefetched
		// (domainSkip) are not demotions — hardware kept them fresh.
		pe.demote()
	}

	lineAddr := addr - addr%mp.LineWords
	if local || pe.buffered.Contains(lineAddr/mp.LineWords) {
		// Local miss (or a vector-buffered remote line): fill the line
		// from local DRAM.
		pe.now += mp.LocalMemCost
		pe.stats.LocalReads++
		pe.installLine(addr, pe.now)
		pe.record(addr, trace.KindMiss)
		v, g := m.Read(addr)
		pe.oracleCheck(r, addr, g)
		return v
	}

	// Remote word. The T3D does not cache remote memory: direct read —
	// except in the deliberately broken INCOHERENT mode, which caches it
	// with no coherence action (the failure the paper's scheme prevents).
	if pe.eng.c.Mode == core.ModeIncoherent {
		pe.chargeRemoteRead(home, mp.LineWords) // caches it: a whole line crosses the wire
		pe.installLine(addr, pe.now)
		pe.record(addr, trace.KindRemote)
		v, g := m.Read(addr)
		pe.oracleCheck(r, addr, g)
		return v
	}
	pe.chargeRemoteRead(home, 1)
	pe.record(addr, trace.KindRemote)
	v, g := m.Read(addr)
	pe.oracleCheck(r, addr, g)
	return v
}

// chargeRemoteRead advances the PE clock over one blocking remote read of
// `words` payload words from the home PE. Flat: the constant
// RemoteReadCost (plus any injected spike). Torus: a routed round trip
// whose latency depends on hop distance and link contention; an injected
// spike becomes a hotspot holding the home's reply link, so it also delays
// unrelated traffic routed through that link.
func (pe *peState) chargeRemoteRead(home int, words int64) {
	mp := &pe.eng.c.Machine
	if tr := pe.tr; tr != nil {
		arrive, _ := tr.RoundTrip(pe.id, home, words, pe.now, pe.remoteSpike())
		pe.now = arrive
	} else {
		pe.now += mp.RemoteReadCostFor(pe.id, home) + pe.remoteSpike()
	}
	pe.stats.RemoteReads++
	pe.countDomainWords(home, words)
}

// countDomainWords attributes words moved between this PE and a home PE to
// the near- or far-tier traffic counter on domain-aware machines. A no-op
// everywhere else, so t3d statistics stay byte-identical.
func (pe *peState) countDomainWords(home int, words int64) {
	if !pe.eng.domAware {
		return
	}
	if pe.eng.c.Machine.SameDomain(pe.id, home) {
		pe.stats.DomainNearWords += words
	} else {
		pe.stats.DomainFarWords += words
	}
}

// domainSkip reports whether the domain-aware compiler suppresses a
// scheduled prefetch of addr, homed on PE home, on this PE: the word is
// homed inside the PE's own coherence domain and lies outside the PE's
// cross-domain refetch ranges for the current epoch, so any cached copy of
// it is hardware-fresh and a demand miss costs only the near tier — a
// prefetch would waste issue slots and queue capacity. Cross-domain-homed
// words keep their prefetches (latency hiding), as do near-homed words a
// cross-domain PE may have dirtied (they must be refetched coherently).
func (pe *peState) domainSkip(addr int64, home int) bool {
	if !pe.eng.domains {
		return false
	}
	if !pe.eng.c.Machine.SameDomain(pe.id, home) {
		return false
	}
	for _, r := range pe.crossInv {
		if addr >= r.lo && addr <= r.hi {
			return false
		}
	}
	return true
}

// chargeRemoteWrite charges one buffered, non-blocking remote store to the
// home PE: the PE pays only the constant injection cost, but over a torus
// the store's packet is still booked along the route so it contends with
// other traffic.
func (pe *peState) chargeRemoteWrite(home int) {
	if tr := pe.tr; tr != nil {
		tr.Send(pe.id, home, 1, pe.now, 0)
	}
	pe.now += pe.eng.c.Machine.RemoteWriteCostFor(pe.id, home)
	pe.stats.RemoteWrites++
	pe.countDomainWords(home, 1)
}

// oracleCheck is the coherence safety oracle: every word the simulated
// program consumes must carry memory's current generation for its address.
// The fast path is one load and a compare.
func (pe *peState) oracleCheck(r *cRef, addr int64, gen uint32) {
	if gen == pe.eng.mem.Gen(addr) {
		return
	}
	pe.eng.reportStale(pe, r.src, addr, gen)
}

// remoteSpike draws an injected remote-latency spike (0 when fault-free).
func (pe *peState) remoteSpike() int64 {
	if pe.fault == nil {
		return 0
	}
	return pe.fault.RemoteSpike()
}

// demote counts a bypass-fetch fallback and enforces the per-PE retry
// budget when faults are enabled. Exhausting the budget panics; the engine
// recovers it into a loud run failure naming the PE.
func (pe *peState) demote() {
	pe.stats.Demotions++
	pe.demoted++
	if pe.fault != nil && pe.demoted > pe.fault.MaxDemotions() {
		panic(fmt.Sprintf("fault: demotion budget exhausted after %d bypass fallbacks", pe.demoted))
	}
}

// writeRef performs a write (write-through, no-write-allocate).
func (pe *peState) writeRef(r *cRef, v float64) {
	if r.isScalar() {
		pe.scalars[r.scalar] = v
		pe.scalarWritten[r.scalar] = true
		return
	}
	mp := &pe.eng.c.Machine
	m := pe.eng.mem
	addr := pe.addrOf(r)
	if pe.writes != nil && r.shared {
		pe.writes.Add(addr)
	}
	home := ownerRef(r, addr)
	local := home == pe.id

	pe.regUpdate(addr, v)
	pe.record(addr, trace.KindWrite)
	gen := m.Write(addr, v)

	// Hardware coherence arena: memory is current (write-through above);
	// the directory invalidates every other cached copy (hw.go).
	if pe.eng.hw != nil {
		pe.writeHW(addr, v, gen, home)
		return
	}

	if r.nonCached {
		pe.stats.NonCachedRefs++
		pe.now += mp.CraftSharedAccessCost
		if local {
			pe.now += mp.LocalWriteCost
			pe.stats.LocalWrites++
		} else {
			pe.chargeRemoteWrite(home)
		}
		return
	}
	if local {
		pe.now += mp.LocalWriteCost
		pe.stats.LocalWrites++
	} else {
		pe.chargeRemoteWrite(home)
	}
	// Keep the writer's own cached copy current.
	pe.cache.UpdateWord(addr, v, gen)
}

// record emits one trace event when tracing is enabled.
func (pe *peState) record(addr int64, kind trace.Kind) {
	if pe.trace != nil {
		pe.trace.Record(addr, pe.now, kind)
	}
}

// installLine fills the cache line containing addr from memory.
func (pe *peState) installLine(addr int64, readyAt int64) {
	m := pe.eng.mem
	lw := pe.eng.c.Machine.LineWords
	la := addr - addr%lw
	sc := pe.shScratch
	vals, gens := sc.LineBuffers()
	for k := int64(0); k < lw; k++ {
		if la+k < m.Words() {
			vals[k], gens[k] = m.Read(la + k)
		} else {
			vals[k], gens[k] = 0, 0
		}
	}
	pe.cache.Install(la, vals, gens, readyAt)
}

// --- Prefetch operations ----------------------------------------------------

// issuePrefetch issues a single-word prefetch for the target at the current
// environment.
func (pe *peState) issuePrefetch(target *cRef) {
	addr := pe.addrOf(target)
	pe.issueAt(addr, ownerRef(target, addr))
}

// issuePrefetchAt issues a prefetch for the target with the loop variable at
// slot v bound to iteration it (software pipelining's future-iteration
// address).
func (pe *peState) issuePrefetchAt(target *cRef, v int32, it int64) {
	oldV, oldB := pe.env[v], pe.bound[v]
	pe.env[v], pe.bound[v] = it, true
	addr := pe.addrOf(target)
	pe.env[v], pe.bound[v] = oldV, oldB
	pe.issueAt(addr, ownerRef(target, addr))
}

// issueAt issues a single-word prefetch of addr from its home PE owner.
func (pe *peState) issueAt(addr int64, owner int) {
	mp := &pe.eng.c.Machine
	m := pe.eng.mem
	if pe.domainSkip(addr, owner) {
		// The domain-aware compiler emitted no prefetch for this word at
		// all: it is near-homed and hardware-fresh, so nothing is issued
		// and nothing is charged.
		return
	}
	pe.now += mp.PrefetchIssueCost
	if pe.fault != nil && pe.fault.DropPrefetch() {
		// The prefetch packet is lost in flight: the issue cost is paid
		// but nothing arrives; the consuming read demotes (§3.2).
		return
	}
	var readyAt int64
	if owner == pe.id {
		lat := mp.LocalMemCost
		if pe.fault != nil {
			lat += pe.fault.LateDelay()
		}
		readyAt = pe.now + lat
	} else if tr := pe.tr; tr != nil {
		arrive, wait := tr.RoundTrip(pe.id, owner, 1, pe.now, 0)
		if wait > tr.DropWaitCycles() {
			// Congestion timeout: the network held the prefetch longer than
			// the hardware keeps the request alive, so it never completes.
			// The consuming read will demote to a bypass fetch (§3.2).
			pe.stats.NetDrops++
			return
		}
		if pe.fault != nil {
			arrive += pe.fault.LateDelay()
		}
		readyAt = arrive
	} else {
		lat := mp.RemoteReadCostFor(pe.id, owner)
		if pe.fault != nil {
			lat += pe.fault.LateDelay()
		}
		readyAt = pe.now + lat
	}
	if owner != pe.id {
		pe.countDomainWords(owner, 1)
	}
	v, g := m.Read(addr)
	pe.pq.Issue(pfq.Entry{Addr: addr, Val: v, Gen: g, ReadyAt: readyAt})
}

// vectorPrefetch performs one shmem_get realizing a vector prefetch over
// the pulled loop range [lo,hi] step step.
func (pe *peState) vectorPrefetch(vp *cVP, lo, hi, step int64) {
	if hi < lo {
		return
	}
	pe.vpAddrs = pe.vpAddrs[:0]
	oldV, oldB := pe.env[vp.varSlot], pe.bound[vp.varSlot]
	pe.bound[vp.varSlot] = true
	for v := lo; v <= hi; v += step {
		pe.env[vp.varSlot] = v
		a := pe.addrOf(vp.target)
		if pe.domainSkip(a, ownerRef(vp.target, a)) {
			// The domain-aware compiler pulls only the words hardware
			// cannot keep fresh; near-homed hardware-coherent words are
			// left out of the gather entirely.
			continue
		}
		pe.vpAddrs = append(pe.vpAddrs, a)
	}
	pe.env[vp.varSlot], pe.bound[vp.varSlot] = oldV, oldB
	if len(pe.vpAddrs) == 0 {
		return
	}
	cost, droppedLines := shmem.GetOverNet(pe.eng.mem, pe.cache, &pe.eng.c.Machine, pe.tr, pe.id, pe.vpAddrs, pe.now, pe.shFaults, pe.shScratch)
	pe.now += cost
	lw := pe.eng.c.Machine.LineWords
	for _, a := range pe.vpAddrs {
		la := a - a%lw
		if droppedLines.Contains(la) {
			// Lost in flight: the line is neither cached nor locally
			// buffered, so its reads fall back to demand remote fetches.
			continue
		}
		pe.buffered.Add(la / lw)
	}
	if pe.eng.domAware {
		for _, a := range pe.vpAddrs {
			if home := ownerRef(vp.target, a); home != pe.id {
				pe.countDomainWords(home, 1)
			}
		}
	}
	pe.stats.VectorPrefetches++
	pe.stats.VectorWords += int64(len(pe.vpAddrs))
}
