package fuzz

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// With CCDP's epoch-boundary invalidation deliberately disabled, the
// campaign must flag an oracle violation within a bounded number of
// generated programs, and the shrinker must reduce the witness to a repro
// of at most 3 epochs that replays deterministically. This is the
// mutation test that proves the oracle referee is not vacuous.
func TestMutationNoInvalidateFlagged(t *testing.T) {
	const bound = 60
	sum, err := Run(Config{
		Programs:    bound,
		Matrix:      CoherenceMatrix(),
		Mutation:    MutNoInvalidate,
		Shrink:      true,
		MaxFindings: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Findings) == 0 {
		t.Fatalf("invalidation disabled, yet %d programs ran clean: the oracle referee is vacuous", bound)
	}
	f := sum.Findings[0]
	if f.Referee != RefereeOracle {
		t.Fatalf("expected an oracle finding, got %s: %s", f.Referee, f.Detail)
	}
	g, err := ir.BuildEpochGraph(f.Program)
	if err != nil {
		t.Fatalf("minimized program has no epoch graph: %v", err)
	}
	if len(g.Nodes) > 3 {
		t.Fatalf("minimized repro has %d epochs, want <= 3:\n%s", len(g.Nodes), ir.Format(f.Program))
	}

	// The artifact replays deterministically: parsing it back and
	// re-refereeing observes the same violation, twice over.
	art := FormatFinding(f)
	back, err := ParseFinding(art)
	if err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, art)
	}
	if FormatFinding(back) != art {
		t.Fatal("artifact round-trip is not byte-identical")
	}
	r1, r2 := Replay(back), Replay(back)
	if r1 == nil || r2 == nil {
		t.Fatal("artifact did not reproduce on replay")
	}
	if r1.Referee != RefereeOracle || r1.Detail != r2.Detail {
		t.Fatalf("replay not deterministic: %s %q vs %s %q", r1.Referee, r1.Detail, r2.Referee, r2.Detail)
	}
}

// With the hardware directory's invalidations booked but never delivered,
// every directory organization keeps stale copies alive, and the campaign
// must flag an oracle violation within a bounded number of generated
// programs — the mutation test that proves the oracle referee also guards
// the arena's hardware modes. The finding must replay deterministically
// from its artifact, mutation included.
func TestMutationNoDirInvalidateFlagged(t *testing.T) {
	const bound = 60
	sum, err := Run(Config{
		Programs:    bound,
		Matrix:      HWMatrix(),
		Mutation:    MutNoDirInvalidate,
		Shrink:      true,
		MaxFindings: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Findings) == 0 {
		t.Fatalf("directory invalidations dropped, yet %d programs ran clean: the oracle referee is vacuous for the hardware modes", bound)
	}
	f := sum.Findings[0]
	if f.Referee != RefereeOracle {
		t.Fatalf("expected an oracle finding, got %s: %s", f.Referee, f.Detail)
	}
	if !f.Config.Mode.IsHW() {
		t.Fatalf("finding not under a hardware mode: %s", f.Config)
	}
	art := FormatFinding(f)
	back, err := ParseFinding(art)
	if err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, art)
	}
	if back.Mutation != MutNoDirInvalidate {
		t.Fatalf("artifact lost the mutation: %s", back.Mutation)
	}
	r := Replay(back)
	if r == nil || r.Referee != RefereeOracle {
		t.Fatalf("artifact did not reproduce the oracle finding on replay: %+v", r)
	}
}

// With the software (cross-domain) invalidations of a domained machine
// emptied while the hardware intra-domain invalidations stay intact, the
// free epoch-entry hardware invalidation cannot cover writers in other
// coherence domains, and the campaign must flag an oracle violation within
// a bounded number of generated programs — the mutation test that proves
// the domain-aware analysis's cross/intra split is load-bearing. On an
// undomained machine the same sabotage is a no-op, so the t3d slice of the
// matrix must stay clean under it.
func TestMutationNoDomainDemotionFlagged(t *testing.T) {
	const bound = 60
	sum, err := Run(Config{
		Programs:    bound,
		Matrix:      DomainMatrix(),
		Mutation:    MutNoDomainDemotion,
		Shrink:      true,
		MaxFindings: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Findings) == 0 {
		t.Fatalf("cross-domain invalidations dropped, yet %d programs ran clean: the oracle referee is vacuous for domained profiles", bound)
	}
	f := sum.Findings[0]
	if f.Referee != RefereeOracle {
		t.Fatalf("expected an oracle finding, got %s: %s", f.Referee, f.Detail)
	}
	if f.Config.Profile != "cxl-pcc" {
		t.Fatalf("finding not under the cxl-pcc profile: %s", f.Config)
	}
	art := FormatFinding(f)
	back, err := ParseFinding(art)
	if err != nil {
		t.Fatalf("artifact does not parse: %v\n%s", err, art)
	}
	if back.Mutation != MutNoDomainDemotion {
		t.Fatalf("artifact lost the mutation: %s", back.Mutation)
	}
	if back.Config.Profile != "cxl-pcc" {
		t.Fatalf("artifact lost the profile: %s", back.Config)
	}
	r := Replay(back)
	if r == nil || r.Referee != RefereeOracle {
		t.Fatalf("artifact did not reproduce the oracle finding on replay: %+v", r)
	}

	// The sabotage is explicitly gated on multi-PE domains: the identical
	// campaign on the undomained t3d matrix must run clean.
	clean, err := Run(Config{Programs: 20, Matrix: CoherenceMatrix(), Mutation: MutNoDomainDemotion})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range clean.Findings {
		t.Errorf("t3d run flagged under a domains-only sabotage: %s under %s: %s", f.Referee, f.Config, f.Detail)
	}
}

// With the scheduler's reference marks cleared (statements untouched), the
// compiled-program invariant referee must flag the Stale-flag disagreement
// within a bounded number of programs.
func TestMutationNoSchedMarksFlagged(t *testing.T) {
	const bound = 20
	sum, err := Run(Config{
		Programs:    bound,
		Matrix:      CoherenceMatrix(),
		Mutation:    MutNoSchedMarks,
		Shrink:      true,
		MaxFindings: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Findings) == 0 {
		t.Fatalf("scheduler marks cleared, yet %d programs ran clean: the invariant referee is vacuous", bound)
	}
	f := sum.Findings[0]
	if f.Referee != RefereeInvariant {
		t.Fatalf("expected an invariant finding, got %s: %s", f.Referee, f.Detail)
	}
	if !strings.Contains(f.Detail, "Stale flag") {
		t.Fatalf("unexpected invariant detail: %s", f.Detail)
	}
	if Replay(f) == nil {
		t.Fatal("minimized invariant finding did not reproduce")
	}
}

// At head, an unmutated campaign across the full default matrix runs clean.
// (CI's fuzz-smoke job runs a much longer budgeted version of this.)
func TestHeadCampaignClean(t *testing.T) {
	sum, err := Run(Config{Seed: 9000, Programs: 12, Shrink: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Findings {
		t.Errorf("seed %d: %s finding under %s: %s\n%s",
			f.Seed, f.Referee, f.Config, f.Detail, ir.Format(f.Program))
	}
	if sum.Runs == 0 || sum.Programs != 12 {
		t.Fatalf("campaign did not run: %+v", sum)
	}
}

// Out-of-range accesses panic inside the execution engine by design (the
// shmem get panics and the mem subscript check guard the same read path);
// the per-run recover must surface them as recorded run findings, not
// crash the campaign.
func TestShmemPanicCapturedAsFinding(t *testing.T) {
	b := ir.NewBuilder("oob")
	a := b.SharedArray("A", 16)
	c := b.SharedArray("B", 16)
	b.Routine("main",
		ir.DoAllAligned("i", ir.K(0), ir.K(15), 16,
			ir.Set(ir.At(a, ir.I("i")), ir.L(ir.At(c, ir.I("i").AddConst(100000))))))
	p := b.Build()

	f, _ := CheckProgram(p, []RunConfig{{Mode: core.ModeCCDP, PEs: 4}}, MutNone)
	if f == nil {
		t.Fatal("out-of-range access produced no finding")
	}
	if f.Referee != RefereeRun {
		t.Fatalf("expected a run finding, got %s: %s", f.Referee, f.Detail)
	}
	if !strings.Contains(f.Detail, "out of range") && !strings.Contains(f.Detail, "shmem") {
		t.Fatalf("finding does not name the out-of-range panic: %s", f.Detail)
	}
}

// Every run configuration of the default matrix round-trips through its
// String form, so artifacts can record configurations exactly.
func TestRunConfigRoundTrip(t *testing.T) {
	for _, rc := range append(append(DefaultMatrix(7), CoherenceMatrix()...), DomainMatrix()...) {
		back, err := ParseRunConfig(rc.String())
		if err != nil {
			t.Fatalf("%s: %v", rc, err)
		}
		if back.String() != rc.String() {
			t.Fatalf("round trip changed config: %q vs %q", rc, back)
		}
	}
}

// Campaigns are resumable and deterministic: splitting one campaign into
// two via NextSeed finds the same findings as running it in one piece.
func TestCampaignResume(t *testing.T) {
	matrix := CoherenceMatrix()
	whole, err := Run(Config{Programs: 40, Matrix: matrix, Mutation: MutNoInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(Config{Programs: 17, Matrix: matrix, Mutation: MutNoInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	rest, err := Run(Config{Seed: first.NextSeed, Programs: 23, Matrix: matrix, Mutation: MutNoInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	var a, b []int64
	for _, f := range whole.Findings {
		a = append(a, f.Seed)
	}
	for _, f := range append(first.Findings, rest.Findings...) {
		b = append(b, f.Seed)
	}
	if len(a) != len(b) {
		t.Fatalf("split campaign found %d findings, whole found %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("finding %d: seed %d vs %d", i, a[i], b[i])
		}
	}
}
