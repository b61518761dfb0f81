package workloads

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/machine"
)

func runMode(t *testing.T, s *Spec, mode core.Mode, numPE int, opts exec.Options) *exec.Result {
	t.Helper()
	c, err := core.Compile(s.Prog, mode, machine.T3D(numPE))
	if err != nil {
		t.Fatalf("%s %v compile: %v", s.Name, mode, err)
	}
	res, err := exec.Run(c, opts)
	if err != nil {
		t.Fatalf("%s %v run: %v", s.Name, mode, err)
	}
	return res
}

func checkAgainst(t *testing.T, s *Spec, ref, got *exec.Result, label string) {
	t.Helper()
	for _, name := range s.CheckArrays {
		arr := s.Prog.ArrayByName(name)
		a := ref.Mem.ArrayData(arr)
		b := got.Mem.ArrayData(arr)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("%s %s: array %s differs at %d: %v vs %v", s.Name, label, name, k, a[k], b[k])
			}
		}
	}
}

func checkGolden(t *testing.T, s *Spec, res *exec.Result) {
	t.Helper()
	if s.Golden == nil {
		return
	}
	want := s.Golden()
	for name, w := range want {
		arr := s.Prog.ArrayByName(name)
		got := res.Mem.ArrayData(arr)
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("%s: golden mismatch in %s at %d: got %v want %v", s.Name, name, k, got[k], w[k])
			}
		}
	}
}

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	for _, s := range Small() {
		if err := ir.Validate(s.Prog); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
	}
	for _, s := range Paper() {
		if err := ir.Validate(s.Prog); err != nil {
			t.Errorf("%s (paper size) invalid: %v", s.Name, err)
		}
	}
}

// The cornerstone correctness test: for every workload, SEQ, BASE and CCDP
// produce bit-identical results, with zero stale-value reads, at several PE
// counts, with the epoch-model race checker on.
func TestAllModesAgreeOnAllWorkloads(t *testing.T) {
	for _, s := range Small() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			seq := runMode(t, s, core.ModeSeq, 1, exec.Options{FailOnStale: true})
			checkGolden(t, s, seq)
			for _, p := range []int{2, 4, 7} {
				opts := exec.Options{FailOnStale: true, DetectRaces: true}
				base := runMode(t, s, core.ModeBase, p, opts)
				checkAgainst(t, s, seq, base, "BASE")
				ccdp := runMode(t, s, core.ModeCCDP, p, opts)
				checkAgainst(t, s, seq, ccdp, "CCDP")
				if ccdp.Stats.StaleValueReads != 0 {
					t.Errorf("P=%d: CCDP stale reads = %d", p, ccdp.Stats.StaleValueReads)
				}
			}
		})
	}
}

// TOMCATV under incoherent caching must observe stale values —
// demonstrating both the problem and that the checker sees it. (MXM's A is
// read-only after initialization so naive caching happens to be safe there,
// and SWIM's small test-scale working set is evicted between time steps;
// the generic cross-PE demonstration lives in the exec package's stencil
// test.)
func TestIncoherentCachingBreaksTOMCATV(t *testing.T) {
	var s *Spec
	for _, c := range Small() {
		if c.Name == "TOMCATV" {
			s = c
		}
	}
	inc := runMode(t, s, core.ModeIncoherent, 4, exec.Options{})
	if inc.Stats.StaleValueReads == 0 {
		t.Error("TOMCATV: incoherent caching produced no stale reads")
	}
}

// VPENTA accesses only local data: CCDP flags nothing stale.
func TestVPENTAHasNoStaleReferences(t *testing.T) {
	s := VPENTA(32, 2)
	c, err := core.Compile(s.Prog, core.ModeCCDP, machine.T3D(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Stale.StaleReads) != 0 {
		refs := []string{}
		for id := range c.Stale.StaleReads {
			refs = append(refs, c.Prog.Ref(id).String())
		}
		t.Errorf("VPENTA stale refs: %v", refs)
	}
}

// MXM's four A references must become vector prefetches hoisted into the
// DOALL prologue (the paper's signature optimization for MXM).
func TestMXMSchedulesVectorPrefetchesForA(t *testing.T) {
	s := MXM(64, 16, 16)
	c, err := core.Compile(s.Prog, core.ModeCCDP, machine.T3D(4))
	if err != nil {
		t.Fatal(err)
	}
	vpg := 0
	for _, d := range c.Sched.Decisions {
		if d.Ref.Array.Name == "A" && d.Technique.String() == "VPG" {
			vpg++
			if !d.Hoisted {
				t.Errorf("A vector prefetch not hoisted: %+v", d)
			}
		}
	}
	if vpg != 4 {
		t.Errorf("got %d VPG decisions for A, want 4 (unrolled refs)", vpg)
	}
}

// TOMCATV's forward/backward sweeps (parallel-inner, serial-outer) must
// flag the cross-distribution reads stale.
func TestTOMCATVSweepReadsAreStale(t *testing.T) {
	s := TOMCATV(33, 2)
	c, err := core.Compile(s.Prog, core.ModeCCDP, machine.T3D(4))
	if err != nil {
		t.Fatal(err)
	}
	staleArrays := map[string]bool{}
	for id := range c.Stale.StaleReads {
		staleArrays[c.Prog.Ref(id).Array.Name] = true
	}
	for _, want := range []string{"X", "AA", "DD", "RX", "RY"} {
		if !staleArrays[want] {
			t.Errorf("expected stale reads of %s, stale set: %v", want, staleArrays)
		}
	}
}

// SWIM halo reads are a small fraction of references: CCDP should flag
// some (halo columns, periodic copies) but far from all reads.
func TestSWIMStaleFractionIsSmall(t *testing.T) {
	s := SWIM(33, 2)
	c, err := core.Compile(s.Prog, core.ModeCCDP, machine.T3D(4))
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	ir.WalkRefs(c.Prog.MainRoutine().Body, func(r *ir.Ref, w bool) {})
	for _, rt := range []string{"calc1", "calc2", "calc3"} {
		ir.WalkRefs(c.Prog.Routine(rt).Body, func(r *ir.Ref, w bool) {
			if !w && !r.IsScalar() {
				reads++
			}
		})
	}
	nStale := len(c.Stale.StaleReads)
	if nStale == 0 {
		t.Fatal("SWIM has no stale reads — halo/periodic traffic missed")
	}
	if nStale*2 > reads {
		t.Errorf("SWIM stale fraction too large: %d of %d reads", nStale, reads)
	}
}

// Values must stay finite (no blow-up) over the iteration counts used.
func TestWorkloadValuesStayFinite(t *testing.T) {
	for _, s := range Small() {
		seq := runMode(t, s, core.ModeSeq, 1, exec.Options{})
		for _, name := range s.CheckArrays {
			data := seq.Mem.ArrayData(s.Prog.ArrayByName(name))
			for k, v := range data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: %s[%d] = %v", s.Name, name, k, v)
				}
			}
		}
	}
}

// The paper's §6 extension — prefetching non-stale remote references too —
// must stay coherent and reduce residual direct remote reads on TOMCATV.
func TestNonStalePrefetchExtension(t *testing.T) {
	s := TOMCATV(65, 2)
	mp := machine.T3D(8)
	std := runMode(t, s, core.ModeCCDP, 8, exec.Options{FailOnStale: true})

	mp.PrefetchNonStale = true
	c, err := core.Compile(s.Prog, core.ModeCCDP, mp)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := exec.Run(c, exec.Options{FailOnStale: true})
	if err != nil {
		t.Fatal(err)
	}
	seq := runMode(t, s, core.ModeSeq, 1, exec.Options{})
	checkAgainst(t, s, seq, ext, "CCDP+nonstale")
	if ext.Stats.RemoteReads > std.Stats.RemoteReads {
		t.Errorf("extension increased residual remote reads: %d vs %d",
			ext.Stats.RemoteReads, std.Stats.RemoteReads)
	}
}

// Build must agree with the pools it replaces lookups into: every name
// builds, at either scale, the same program Paper and Small build.
func TestBuildMatchesPools(t *testing.T) {
	for i, name := range Names() {
		for _, small := range []bool{false, true} {
			s := Build(strings.ToLower(name), small)
			want := Paper()[i]
			if small {
				want = Small()[i]
			}
			if s == nil || s.Name != name || s.Prog.Name != want.Prog.Name {
				t.Errorf("Build(%q, small=%v) = %v, want %s", name, small, s, want.Prog.Name)
			}
		}
	}
	if Build("FFT", true) != nil {
		t.Error("Build accepted an unknown name")
	}
}
