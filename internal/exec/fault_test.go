package exec

import (
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pfq"
	"repro/internal/shmem"
)

// spProg returns a program whose consumer loop is software-pipelined with
// single-word prefetches (the serial inner loop over a remote region is too
// irregular for a vector get), exercising the prefetch-queue fault paths.
func spProg() *ir.Program {
	b := ir.NewBuilder("spfault")
	a := b.SharedArray("A", 4096)
	c := b.SharedArray("C", 4096)
	b.Routine("main",
		ir.DoAll("w", ir.K(0), ir.K(4095), ir.Set(ir.At(a, ir.I("w")), ir.IV(ir.I("w")))),
		ir.DoAll("j", ir.K(0), ir.K(0),
			ir.DoSerial("i", ir.K(0), ir.K(4095),
				ir.Set(ir.At(c, ir.I("i")), ir.L(ir.At(a, ir.I("i").Neg().AddConst(4095)))))),
	)
	return b.Build()
}

func allKindsPlan(seed int64, rate float64) fault.Plan {
	return fault.Plan{Seed: seed, Rate: rate, Kinds: fault.AllKinds()}
}

func onlyKind(k fault.Kind, seed int64, rate float64) fault.Plan {
	return fault.Plan{Seed: seed, Rate: rate, Kinds: []fault.Kind{k}}
}

// A zero-rate plan must leave the machine bit-identical to a fault-free run.
func TestFaultRateZeroBitIdentical(t *testing.T) {
	prog := stencilProg(256, 4)
	ref := run(t, prog, core.ModeCCDP, 4, Options{})
	zero := run(t, prog, core.ModeCCDP, 4, Options{Fault: fault.Plan{}})
	// Rate 0 with kinds listed is still disabled.
	idle := run(t, prog, core.ModeCCDP, 4, Options{Fault: fault.Plan{Seed: 99, Kinds: fault.AllKinds()}})
	for _, r := range []*Result{zero, idle} {
		if r.Cycles != ref.Cycles {
			t.Errorf("cycles differ under disabled fault plan: %d vs %d", r.Cycles, ref.Cycles)
		}
		for p := range ref.PECycles {
			if r.PECycles[p] != ref.PECycles[p] {
				t.Errorf("PE %d cycles differ: %d vs %d", p, r.PECycles[p], ref.PECycles[p])
			}
		}
		if r.Stats.FaultsInjected() != 0 || r.Stats.Demotions != 0 {
			t.Errorf("disabled plan injected faults: %+v", r.Stats)
		}
	}
}

// Under every fault kind at once the run degrades but must stay correct:
// bit-identical results to sequential, zero oracle violations.
func TestFaultedRunStillCorrect(t *testing.T) {
	prog := stencilProg(256, 4)
	seq := run(t, prog, core.ModeSeq, 1, Options{})
	faulted := run(t, prog, core.ModeCCDP, 4, Options{FailOnStale: true, Fault: allKindsPlan(1, 0.05)})
	if !arraysEqual(t, prog, seq, faulted, "A") {
		t.Error("faulted CCDP run computed wrong values")
	}
	if faulted.Stats.FaultsInjected() == 0 {
		t.Error("no faults injected at rate 0.05")
	}
	if faulted.Stats.OracleViolations != 0 {
		t.Errorf("faults caused %d oracle violations; injected faults must degrade timing, not correctness",
			faulted.Stats.OracleViolations)
	}
	// Determinism: the same seed replays the same degraded execution.
	again := run(t, prog, core.ModeCCDP, 4, Options{FailOnStale: true, Fault: allKindsPlan(1, 0.05)})
	if again.Cycles != faulted.Cycles {
		t.Errorf("same seed, different cycles: %d vs %d", again.Cycles, faulted.Cycles)
	}
}

// Dropped prefetches must demote the consuming reads to bypass fetches
// (paper §3.2) and still produce correct results.
func TestDroppedPrefetchDemotes(t *testing.T) {
	prog := spProg()
	seq := run(t, prog, core.ModeSeq, 1, Options{})
	r := run(t, prog, core.ModeCCDP, 2, Options{FailOnStale: true, Fault: onlyKind(fault.KindDrop, 2, 1)})
	if r.Stats.FaultDrops == 0 {
		t.Fatal("drop-only plan at rate 1 dropped nothing")
	}
	if r.Stats.Demotions == 0 {
		t.Error("dropped prefetches never demoted to bypass fetches")
	}
	if r.Stats.OracleViolations != 0 {
		t.Errorf("%d oracle violations under dropped prefetches", r.Stats.OracleViolations)
	}
	if !arraysEqual(t, prog, seq, r, "C") {
		t.Error("wrong values after dropped-prefetch demotion")
	}
}

// Late prefetch arrivals stall the consuming read (counted as late) but the
// word consumed is still the correct, current one.
func TestLatePrefetchFallback(t *testing.T) {
	prog := spProg()
	seq := run(t, prog, core.ModeSeq, 1, Options{})
	free := run(t, prog, core.ModeCCDP, 2, Options{FailOnStale: true})
	late := run(t, prog, core.ModeCCDP, 2, Options{FailOnStale: true, Fault: onlyKind(fault.KindLate, 3, 1)})
	if late.Stats.FaultLate == 0 {
		t.Fatal("late-only plan at rate 1 delayed nothing")
	}
	if late.Stats.PrefetchLate <= free.Stats.PrefetchLate {
		t.Errorf("injected delays did not increase late prefetches: %d vs fault-free %d",
			late.Stats.PrefetchLate, free.Stats.PrefetchLate)
	}
	if late.Cycles <= free.Cycles {
		t.Errorf("late arrivals cost nothing: %d vs fault-free %d cycles", late.Cycles, free.Cycles)
	}
	if late.Stats.OracleViolations != 0 {
		t.Errorf("%d oracle violations under late arrivals", late.Stats.OracleViolations)
	}
	if !arraysEqual(t, prog, seq, late, "C") {
		t.Error("wrong values under late prefetch arrivals")
	}
}

// A full prefetch queue drops the incoming word (hardware behavior the
// scheduler budgets around but the fault model can still trigger); the
// dropped word's read must demote to a fresh demand fetch, not corrupt.
func TestPrefetchQueueOverflowDemotes(t *testing.T) {
	eng, pe := plantPE(t, Options{})
	pe.pq = pfq.New(1) // 1-word queue: the second issue must overflow
	arr := eng.c.Prog.ArrayByName("A")
	addr0 := mem.AddrOf(arr, []int64{0})
	addr1 := mem.AddrOf(arr, []int64{1})
	eng.mem.Write(addr0, 5.0)
	eng.mem.Write(addr1, 7.0)

	pe.issueAt(addr0, eng.mem.OwnerOf(addr0))
	pe.issueAt(addr1, eng.mem.OwnerOf(addr1))
	if pe.pq.Dropped != 1 {
		t.Fatalf("queue dropped %d words, want 1", pe.pq.Dropped)
	}

	ref0 := ir.At(arr, ir.K(0))
	ref0.Prefetched = true
	if v := pe.readMem(compileRef(t, eng, ref0), addr0); v != 5.0 {
		t.Errorf("queued word read %v, want 5.0", v)
	}
	if pe.pq.Consumed != 1 || pe.stats.Demotions != 0 {
		t.Errorf("surviving entry not consumed cleanly: consumed=%d demotions=%d",
			pe.pq.Consumed, pe.stats.Demotions)
	}

	ref1 := ir.At(arr, ir.K(1))
	ref1.Prefetched = true
	if v := pe.readMem(compileRef(t, eng, ref1), addr1); v != 7.0 {
		t.Errorf("overflow-dropped word read %v, want the fresh 7.0", v)
	}
	if pe.stats.Demotions != 1 {
		t.Errorf("overflow-dropped read demoted %d times, want 1", pe.stats.Demotions)
	}
	if pe.stats.OracleViolations != 0 {
		t.Errorf("%d oracle violations after queue overflow", pe.stats.OracleViolations)
	}
}

// A prefetch queue too small for the pipelining depth must make the
// scheduler itself degrade (bypass-cache reads) rather than overflow at
// runtime — and the run stays correct.
func TestTinyQueueSchedulerDegradesGracefully(t *testing.T) {
	prog := spProg()
	seq := run(t, prog, core.ModeSeq, 1, Options{})
	mp := machine.T3D(2)
	mp.PrefetchQueueWords = 1 // below any useful pipelining depth
	c, err := core.Compile(prog, core.ModeCCDP, mp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(c, Options{FailOnStale: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.PrefetchDropped != 0 {
		t.Errorf("scheduler let the queue overflow %d times", r.Stats.PrefetchDropped)
	}
	if r.Stats.BypassReads == 0 {
		t.Error("no bypass reads: expected targets demoted by the queue budget")
	}
	if !arraysEqual(t, prog, seq, r, "C") {
		t.Error("wrong values with a 1-word prefetch queue")
	}
}

// Exhausting the per-PE demotion budget must kill the run loudly, naming
// the cause, instead of degrading forever.
func TestDemotionBudgetExhaustedFailsLoudly(t *testing.T) {
	plan := onlyKind(fault.KindDrop, 2, 1)
	plan.MaxDemotions = 1
	c, err := core.Compile(spProg(), core.ModeCCDP, machine.T3D(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(c, Options{FailOnStale: true, Fault: plan})
	if err == nil {
		t.Fatal("run survived with a 1-demotion budget under rate-1 drops")
	}
	if !strings.Contains(err.Error(), "demotion budget exhausted") {
		t.Errorf("budget exhaustion not named in error: %v", err)
	}
}

// plantPE builds a single-PE engine by hand so tests can plant cache state
// directly and drive readMem against it.
func plantPE(t *testing.T, opts Options) (*Engine, *peState) {
	t.Helper()
	b := ir.NewBuilder("plant")
	a := b.SharedArray("A", 64)
	b.Routine("main", ir.DoSerial("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.N(0))))
	c, err := core.Compile(b.Build(), core.ModeCCDP, machine.T3D(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := opts.Fault.Validate(); err != nil {
		t.Fatal(err)
	}
	m := mem.New(c.Prog, 1, c.TotalWords)
	eng := &Engine{c: c, mem: m, opts: opts, inj: fault.NewInjector(opts.Fault, 1)}
	pe := &peState{
		id:            0,
		eng:           eng,
		cache:         cache.New(c.Machine.CacheWords, c.Machine.LineWords),
		pq:            pfq.New(c.Machine.PrefetchQueueWords),
		scalars:       make([]float64, c.Syms.NumScalars()),
		scalarWritten: make([]bool, c.Syms.NumScalars()),
		env:           make([]int64, c.Syms.NumVars()),
		bound:         make([]bool, c.Syms.NumVars()),
		buffered:      bitset.NewSparse(c.TotalWords/c.Machine.LineWords + 1),
		shScratch:     shmem.NewScratch(m, &c.Machine),
	}
	if eng.inj != nil {
		pe.fault = eng.inj.PE(0)
	}
	eng.pes = []*peState{pe}
	return eng, pe
}

// compileRef lowers a hand-built reference the way Run's program lowering
// would, so tests can drive readMem directly.
func compileRef(t *testing.T, eng *Engine, r *ir.Ref) *cRef {
	t.Helper()
	cc := &compiler{prog: eng.c.Prog, syms: eng.c.Syms, numPE: eng.c.Machine.NumPE, routines: map[string]*[]cStmt{}}
	cr, err := cc.ref(r)
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// The oracle must catch a deliberately planted stale cache line the moment
// a fault-free coherent run consumes it.
func TestOracleCatchesPlantedStaleLine(t *testing.T) {
	eng, pe := plantPE(t, Options{FailOnStale: true})
	arr := eng.c.Prog.ArrayByName("A")
	addr := mem.AddrOf(arr, []int64{0})
	ref := ir.At(arr, ir.K(0))

	eng.mem.Write(addr, 1.0) // gen 1
	pe.installLine(addr, 0)  // cache now holds gen 1
	eng.mem.Write(addr, 2.0) // gen 2: the cached copy is stale

	v := pe.readMem(compileRef(t, eng, ref), addr)
	if v != 1.0 {
		t.Fatalf("planted stale hit returned %v, want the stale 1.0", v)
	}
	if pe.stats.OracleViolations != 1 || pe.stats.StaleValueReads != 1 {
		t.Errorf("oracle missed the planted line: %+v", pe.stats)
	}
	if len(eng.violations) != 1 {
		t.Fatalf("recorded %d violations, want 1", len(eng.violations))
	}
	viol := eng.violations[0]
	if viol.PE != 0 || viol.Addr != addr || viol.Array != "A" || viol.Gen != 1 || viol.MemGen != 2 {
		t.Errorf("violation fields wrong: %+v", viol)
	}
	if eng.staleErr == nil || !strings.Contains(eng.staleErr.Error(), "coherence violation") {
		t.Errorf("FailOnStale error missing or unnamed: %v", eng.staleErr)
	}
}

// With fault injection armed, the same planted stale line must instead be
// dropped and re-fetched fresh: degradation, not corruption.
func TestPlantedStaleLineDemotesUnderFaults(t *testing.T) {
	// Skew-only plan: arms the degraded-mode paths without any fault that
	// could itself touch this read.
	eng, pe := plantPE(t, Options{FailOnStale: true, Fault: onlyKind(fault.KindSkew, 1, 1)})
	arr := eng.c.Prog.ArrayByName("A")
	addr := mem.AddrOf(arr, []int64{0})
	ref := ir.At(arr, ir.K(0))

	eng.mem.Write(addr, 1.0)
	pe.installLine(addr, 0)
	eng.mem.Write(addr, 2.0)

	v := pe.readMem(compileRef(t, eng, ref), addr)
	if v != 2.0 {
		t.Fatalf("degraded read returned %v, want the fresh 2.0", v)
	}
	if pe.stats.Demotions != 1 {
		t.Errorf("stale hit under faults demoted %d times, want 1", pe.stats.Demotions)
	}
	if pe.stats.OracleViolations != 0 {
		t.Errorf("oracle violations in degraded mode: %d", pe.stats.OracleViolations)
	}
}
