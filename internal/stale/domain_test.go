package stale

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// reversedProg builds the canonical cross-PE witness: epoch 0 writes A
// distributed, epoch 1 reads it reversed, so PE p reads PE (P-1-p)'s chunk.
func reversedProg() *ir.Program {
	b := ir.NewBuilder("rev")
	a := b.SharedArray("A", 64)
	c := b.SharedArray("C", 64)
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(63), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoAll("j", ir.K(0), ir.K(63),
			ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(63))))),
	)
	return b.Build()
}

// With every PE in one coherence domain, all dirt is intra-domain: the
// blind-stale reversed read must be demoted to non-stale with a recorded
// domain reason, software invalidation must vanish, and the hardware set
// must take its place.
func TestDomainSingleDomainDemotesAll(t *testing.T) {
	p := reversedProg()
	blind, err := Analyze(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(-j + 63)")
	if !blind.StaleReads[rd.ID] {
		t.Fatal("blind analysis did not flag the reversed read: witness broken")
	}

	res, err := AnalyzeOpt(p, 4, Options{Domains: []int{0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StaleReads) != 0 {
		t.Errorf("single-domain machine still has %d stale reads", len(res.StaleReads))
	}
	if !res.DemotedIntra[rd.ID] {
		t.Error("reversed read not demoted on a single-domain machine")
	}
	why := res.DemotedWhy[rd.ID]
	if why == "" {
		t.Error("demoted read has no recorded reason")
	}
	for n := range res.Invalidate {
		for pe := range res.Invalidate[n] {
			for a, s := range res.Invalidate[n][pe] {
				if !s.IsEmpty() {
					t.Errorf("software invalidation of %s survives at epoch %d PE %d", p.Arrays[a].Name, n, pe)
				}
			}
		}
	}
	if res.HWInvalidate == nil {
		t.Fatal("no hardware invalidation table on a domained machine")
	}
	hw := false
	for n := range res.HWInvalidate {
		for pe := range res.HWInvalidate[n] {
			for _, s := range res.HWInvalidate[n][pe] {
				if !s.IsEmpty() {
					hw = true
				}
			}
		}
	}
	if !hw {
		t.Error("hardware invalidation table is empty: the demoted dirt went nowhere")
	}
}

// With two domains of two, PE 0's reversed read reaches PE 3's chunk across
// the domain boundary: the reference must stay potentially stale and keep
// its software invalidation.
func TestDomainCrossRetention(t *testing.T) {
	p := reversedProg()
	res, err := AnalyzeOpt(p, 4, Options{Domains: []int{0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rd := findRef(t, p, "A(-j + 63)")
	if !res.StaleReads[rd.ID] {
		t.Error("cross-domain reversed read demoted: the domain split is unsound")
	}
	if res.DemotedIntra[rd.ID] {
		t.Error("reference both stale and demoted")
	}
	sw := false
	for n := range res.Invalidate {
		for pe := range res.Invalidate[n] {
			for _, s := range res.Invalidate[n][pe] {
				if !s.IsEmpty() {
					sw = true
				}
			}
		}
	}
	if !sw {
		t.Error("no software invalidation despite a retained cross-domain stale read")
	}
}

// Table-driven soundness of the domain split on every paper workload at two
// domain sizes: demotion may only shrink the stale set, every blind-stale
// reference must land in the domained stale set or the demoted set (the
// split loses no writes), and the two sets never overlap. At domain size 8
// the whole 8-PE machine is one domain, so every blind-stale reference must
// be demoted; at domain size 4 the boundary between domains {0..3} and
// {4..7} must retain at least one stale reference on the workloads that
// have any.
func TestDomainWorkloadsTable(t *testing.T) {
	demotedTotal := 0
	for _, spec := range workloads.Small() {
		blind, err := Analyze(spec.Prog, 8)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, domainSize := range []int{4, 8} {
			mp := machine.T3D(8)
			mp.DomainSize = domainSize
			res, err := AnalyzeOpt(spec.Prog, 8, Options{Domains: mp.DomainTable()})
			if err != nil {
				t.Fatalf("%s D=%d: %v", spec.Name, domainSize, err)
			}
			for id := range res.StaleReads {
				if !blind.StaleReads[id] {
					t.Errorf("%s D=%d: ref #%d stale only under domains", spec.Name, domainSize, id)
				}
				if res.DemotedIntra[id] {
					t.Errorf("%s D=%d: ref #%d both stale and demoted", spec.Name, domainSize, id)
				}
			}
			for id := range blind.StaleReads {
				if !res.StaleReads[id] && !res.DemotedIntra[id] {
					t.Errorf("%s D=%d: blind-stale ref #%d vanished without a demotion record",
						spec.Name, domainSize, id)
				}
			}
			for id := range res.DemotedIntra {
				if res.DemotedWhy[id] == "" {
					t.Errorf("%s D=%d: demoted ref #%d has no reason", spec.Name, domainSize, id)
				}
			}
			demotedTotal += len(res.DemotedIntra)
			if domainSize == 8 && len(res.StaleReads) != 0 {
				t.Errorf("%s D=8: single-domain machine kept %d stale reads",
					spec.Name, len(res.StaleReads))
			}
			if domainSize == 4 && len(blind.StaleReads) > 0 && len(res.StaleReads) == 0 &&
				spec.Name == "SWIM" {
				t.Errorf("%s D=4: stencil halo at the domain boundary was not retained", spec.Name)
			}
		}
	}
	if demotedTotal == 0 {
		t.Error("no workload demoted any reference at any domain size: the split is vacuous")
	}
}

// A table where every PE is its own domain must reproduce the domain-blind
// analysis exactly — the cxl-pcc profile at domain size 1 compiles to the
// same stale sets as t3d.
func TestDomainPerPETableMatchesBlind(t *testing.T) {
	for _, spec := range workloads.Small() {
		blind, err := Analyze(spec.Prog, 8)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		table := []int{0, 1, 2, 3, 4, 5, 6, 7}
		res, err := AnalyzeOpt(spec.Prog, 8, Options{Domains: table})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(res.StaleReads) != len(blind.StaleReads) {
			t.Errorf("%s: %d stale reads with per-PE domains, %d blind",
				spec.Name, len(res.StaleReads), len(blind.StaleReads))
		}
		for id := range blind.StaleReads {
			if !res.StaleReads[id] {
				t.Errorf("%s: ref #%d stale blind but not with per-PE domains", spec.Name, id)
			}
		}
		if len(res.DemotedIntra) != 0 {
			t.Errorf("%s: %d demotions with per-PE domains", spec.Name, len(res.DemotedIntra))
		}
		if res.Report() != blind.Report() {
			t.Errorf("%s: per-PE-domain report differs from blind report", spec.Name)
		}
	}
}
