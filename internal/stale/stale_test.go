package stale

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// findRef locates the unique read of the named array in the program whose
// printed form contains the needle.
func findRef(t *testing.T, p *ir.Program, needle string) *ir.Ref {
	t.Helper()
	var found *ir.Ref
	for _, r := range p.Refs() {
		if strings.Contains(r.String(), needle) {
			if found != nil {
				t.Fatalf("needle %q ambiguous (%v and %v)", needle, found, r)
			}
			found = r
		}
	}
	if found == nil {
		t.Fatalf("needle %q not found", needle)
	}
	return found
}

// Program: epoch 0 writes A distributed; epoch 1 every PE reads all of A.
// Cross-PE reads are potentially stale.
func TestCrossPEReadIsStale(t *testing.T) {
	b := ir.NewBuilder("cross")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(63))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(-j + 63)")
	if !res.StaleReads[rd.ID] {
		t.Error("reversed read of remotely-written data not flagged stale")
	}
}

// Aligned read: PE p reads exactly what PE p wrote — not stale.
func TestAlignedReadNotStale(t *testing.T) {
	b := ir.NewBuilder("aligned")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j"))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(j)")
	if res.StaleReads[rd.ID] {
		t.Error("perfectly aligned read flagged stale")
	}
}

// Halo read: PE p reads j+1, which crosses its chunk boundary — stale.
func TestHaloReadIsStale(t *testing.T) {
	b := ir.NewBuilder("halo")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(62),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").AddConst(1))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(j + 1)")
	if !res.StaleReads[rd.ID] {
		t.Error("halo read not flagged stale")
	}
}

// A shifted read whose chunking happens to re-align with the writer's
// chunks is provably fresh — the analysis must not over-flag it.
func TestShiftAlignedReadNotStale(t *testing.T) {
	b := ir.NewBuilder("shift")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		// j in 1..63 chunks as 1..16 / 17..32 / 33..48 / 49..63, so A(j-1)
		// reads exactly the reader's own writes from epoch 0.
		ir.DoAll("j", ir.K(1), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").AddConst(-1))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(j - 1)")
	if res.StaleReads[rd.ID] {
		t.Error("chunk-realigned read flagged stale")
	}
}

// Read before any write can't be stale (caches start cold).
func TestReadBeforeWriteNotStale(t *testing.T) {
	b := ir.NewBuilder("first")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(63))))),
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(-j + 63)")
	if res.StaleReads[rd.ID] {
		t.Error("read before any write flagged stale")
	}
}

// Intertask locality: after PE p (coherently) reads a region, a re-read in
// a later epoch is fresh until someone else writes it again.
func TestIntertaskLocalityRefinement(t *testing.T) {
	b := ir.NewBuilder("intertask")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	d := b.SharedArray("D", 64)
	rev := func(v string) *ir.Ref { return ir.At(a, ir.I(v).Neg().AddConst(63)) }
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(63), ir.Set(ir.At(c, ir.I("j")), ir.L(rev("j")))),
		ir.DoAll("k", ir.K(0), ir.K(63), ir.Set(ir.At(d, ir.I("k")), ir.L(rev("k")))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := findRef(t, p, "A(-j + 63)")
	second := findRef(t, p, "A(-k + 63)")
	if !res.StaleReads[first.ID] {
		t.Error("first cross-PE read should be stale")
	}
	if res.StaleReads[second.ID] {
		t.Error("re-read after coherent read should be fresh (intertask locality)")
	}
}

// Time-step loop: writes in one iteration make next iteration's halo reads
// stale again (back edge in the epoch graph).
func TestTimeStepLoopBackEdge(t *testing.T) {
	b := ir.NewBuilder("ts")
	a := b.SharedArray("A", 64)
	tmp := b.SharedArray("T", 64)
	b.Routine("main",
		ir.DoAll("i0", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i0")), ir.IV(ir.I("i0")))),
		ir.DoSerial("t", ir.K(1), ir.K(5),
			ir.DoAll("i", ir.K(1), ir.K(62),
				ir.Set(ir.At(tmp, ir.I("i")),
					ir.Add(ir.L(ir.At(a, ir.I("i").AddConst(-1))), ir.L(ir.At(a, ir.I("i").AddConst(1)))))),
			ir.DoAll("j", ir.K(1), ir.K(62),
				ir.Set(ir.At(a, ir.I("j")), ir.L(ir.At(tmp, ir.I("j"))))),
		),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	left := findRef(t, p, "A(i - 1)")
	right := findRef(t, p, "A(i + 1)")
	if !res.StaleReads[left.ID] || !res.StaleReads[right.ID] {
		t.Error("halo reads in time-step loop not stale")
	}
	// Aligned read of T is written by self in the same iteration... T(j) is
	// written by PE owning chunk of i (same chunking) in the first DOALL:
	// aligned -> not stale.
	tr := findRef(t, p, "T(j)")
	if res.StaleReads[tr.ID] {
		t.Error("aligned read of T flagged stale")
	}
}

// Dynamic scheduling defeats the alignment argument: everything written by
// a possibly-different PE is stale.
func TestDynamicSchedulingIsConservative(t *testing.T) {
	b := ir.NewBuilder("dyn")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAllDynamic("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j"))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(j)")
	if !res.StaleReads[rd.ID] {
		t.Error("read after dynamically-scheduled write should be conservatively stale")
	}
}

// Single PE: nothing can be stale.
func TestSinglePENothingStale(t *testing.T) {
	b := ir.NewBuilder("single")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(63))))),
	)
	p := b.Build()
	res, err := Analyze(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StaleReads) != 0 {
		t.Errorf("stale refs on 1 PE: %v", res.StaleReads)
	}
}

// Serial epochs run on PE 0: their writes dirty everyone else.
func TestSerialEpochWritesDirtyOthers(t *testing.T) {
	b := ir.NewBuilder("serial")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		// Parallel epoch reads A (cold, fresh) so later reads depend on kills.
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j"))))),
		// Serial epoch on PE 0 rewrites A.
		ir.DoSerial("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.N(7))),
		// Now everyone re-reads.
		ir.DoAll("k", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("k")), ir.L(ir.At(a, ir.I("k"))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	second := findRef(t, p, "A(k)")
	if !res.StaleReads[second.ID] {
		t.Error("read after serial-epoch write not stale for PEs != 0")
	}
	first := findRef(t, p, "A(j)")
	if res.StaleReads[first.ID] {
		t.Error("cold read flagged stale")
	}
}

// Interprocedural: writes inside a called routine are seen.
func TestInterproceduralWritesSeen(t *testing.T) {
	b := ir.NewBuilder("interproc")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.CallTo("init"),
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(63))))),
	)
	b.Routine("init",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(-j + 63)")
	if !res.StaleReads[rd.ID] {
		t.Error("write inside callee not propagated")
	}
}

// Writes under if-statements are may-writes: they gen staleness but never
// kill.
func TestIfWritesAreMayNotMust(t *testing.T) {
	b := ir.NewBuilder("ifw")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		// Epoch 0: all PEs read-all of A? No: write A distributed.
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		// Epoch 1: owner PE conditionally rewrites its own A(j) — a
		// may-write that cannot kill the dirt from epoch 0 for OTHER data,
		// and gens dirt for other PEs.
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.When(ir.CondOf(ir.CmpLT, ir.L(ir.At(a, ir.I("j"))), ir.N(100)),
				[]ir.Stmt{ir.Set(ir.At(a, ir.I("j")), ir.N(0))}, nil)),
		// Epoch 2: everyone reads own chunk. The conditional write was by
		// self (aligned), but being a may-write it cannot refresh; it also
		// cannot dirty self. Alignment means not stale.
		ir.DoAll("k", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("k")), ir.L(ir.At(a, ir.I("k"))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(k)")
	if res.StaleReads[rd.ID] {
		t.Error("aligned conditional self-write made aligned read stale")
	}

	// Invalidate regions for epoch 1's read of A(j) must be empty (cold +
	// aligned).
	sum := res.Summaries[1]
	if sum.MustWrite[0][0].Size() != 0 { // A is array slot 0
		t.Error("conditional write leaked into must-write")
	}
}

func TestInvalidateRegionsCoverStaleReads(t *testing.T) {
	b := ir.NewBuilder("inv")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(62),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").AddConst(1))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1: PE 0 (chunk j=0..15) reads A(16) written by PE 1 -> 16 must
	// be in PE 0's invalidate region.
	inv := res.Invalidate[1][0][0] // A is array slot 0
	if inv.IsEmpty() || !inv.Contains([]int64{16}) {
		t.Errorf("invalidate region for PE0 = %v, want to contain 16", inv)
	}
	// PE 3 (chunk j=48..62) reads A(49..63), all self-written (48..63):
	// nothing to invalidate.
	inv3 := res.Invalidate[1][3][0]
	if !inv3.IsEmpty() {
		t.Errorf("PE3 invalidate region should be empty, got %v", inv3)
	}
}

func TestFixpointTerminatesOnPingPong(t *testing.T) {
	// Two arrays written and read alternately inside a time loop with
	// shifting sections: exercises widening.
	b := ir.NewBuilder("pp")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoSerial("t", ir.K(0), ir.K(9),
			ir.DoAll("i", ir.K(1), ir.K(62),
				ir.Set(ir.At(c, ir.I("i")), ir.L(ir.At(a, ir.I("i").AddConst(1))))),
			ir.DoAll("j", ir.K(1), ir.K(62),
				ir.Set(ir.At(a, ir.I("j")), ir.L(ir.At(c, ir.I("j").AddConst(-1))))),
		),
	)
	p := b.Build()
	res, err := Analyze(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StaleReads[findRef(t, p, "A(i + 1)").ID] {
		t.Error("A(i+1) should be stale")
	}
	if !res.StaleReads[findRef(t, p, "C(j - 1)").ID] {
		t.Error("C(j-1) should be stale")
	}
}

func TestReportMentionsEpochsAndRefs(t *testing.T) {
	b := ir.NewBuilder("rep")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(62),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").AddConst(1))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if !strings.Contains(rep, "epoch 0") || !strings.Contains(rep, "A(j + 1)") {
		t.Errorf("report incomplete:\n%s", rep)
	}
}

func TestRemoteReadsDetected(t *testing.T) {
	b := ir.NewBuilder("remote")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(63),
			// Reversed read: leaves every PE's slab.
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(63))))),
	)
	p := b.Build()
	res, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rev := findRef(t, p, "A(-j + 63)")
	if !res.RemoteReads[rev.ID] {
		t.Error("reversed read not marked remote")
	}
	// The aligned write A(i) and aligned-by-ID read... the write is not a
	// read; C(j) write likewise. The init IVal has no refs. So only the
	// reversed read (and possibly none other) is remote.
	aligned := findRef(t, p, "C(j)")
	if res.RemoteReads[aligned.ID] {
		t.Error("aligned write marked as remote read")
	}
}
