package exec_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/workloads"
)

// pdesVariant is one concurrent execution flavour the equivalence property
// test checks against the canonical sequential order. skew, when set,
// perturbs the optimistic mode's round-trip predictions so a healthy share
// of speculative epochs is convicted and re-executed — the rollback path
// must converge to the same results, and the variant asserts it actually
// ran (a passing test with zero rollbacks would prove nothing).
type pdesVariant struct {
	name string
	skew bool
}

var pdesVariants = []pdesVariant{
	{"optimistic", false},
	{"optimistic-skewed", true},
}

// TestParallelTorusMatchesSequential is the engine-level PDES equivalence
// property test: every workload runs over the torus with Options.SerialTorus
// (the canonical sequential PE-major booking order the golden CSVs pin) and
// then through optimistic speculation (plus a variant with mispredictions
// injected to force rollbacks), with goroutine yields injected at every
// speculative transport call. Every observable must match exactly: total and per-PE
// cycles, the full stats block, the complete per-link network summary, and
// the computed array contents. GOMAXPROCS is forced above 1 so the PDES
// paths actually engage even on single-core CI runners; running under -race
// additionally proves the concurrent paths' synchronization sound.
func TestParallelTorusMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	cases := []struct {
		name string
		spec *workloads.Spec
		mode core.Mode
		pes  int
	}{
		{"MXM-CCDP-8PE", workloads.MXM(64, 32, 16), core.ModeCCDP, 8},
		{"MXM-CCDP-4PE", workloads.MXM(64, 32, 16), core.ModeCCDP, 4},
		{"VPENTA-CCDP-8PE", workloads.VPENTA(64, 2), core.ModeCCDP, 8},
		{"TOMCATV-CCDP-8PE", workloads.TOMCATV(65, 2), core.ModeCCDP, 8},
		{"SWIM-BASE-8PE", workloads.SWIM(65, 2), core.ModeBase, 8},
	}
	topo, err := noc.Parse("torus")
	if err != nil {
		t.Fatal(err)
	}
	// Rollbacks are counted across all workloads: a workload whose parallel
	// epochs make no remote round trips has nothing to skew (VPENTA's
	// chunks are all-local), but if NO skewed run anywhere rolled back, the
	// rollback path was never exercised and the convergence claim is
	// untested.
	var totalRollbacks int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mp := machine.T3D(tc.pes)
			mp.Topology = topo
			c, err := core.Compile(tc.spec.Prog, tc.mode, mp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exec.Run(c, exec.Options{FailOnStale: true, SerialTorus: true})
			if err != nil {
				t.Fatal(err)
			}
			wantData := map[string][]float64{}
			for _, name := range tc.spec.CheckArrays {
				wantData[name] = want.Mem.ArrayData(want.Mem.ArrayNamed(name))
			}

			for _, v := range pdesVariants {
				t.Run(v.name, func(t *testing.T) {
					// A fresh Engine per variant, so each starts from
					// just-built state.
					eng, err := exec.New(c)
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					var yields atomic.Int64
					noc.TestCommitYield = func() {
						if yields.Add(1)%5 == 0 {
							runtime.Gosched()
						}
					}
					defer func() { noc.TestCommitYield = nil }()
					if v.skew {
						var skews atomic.Int64
						noc.TestSpecSkew = func() int64 {
							if skews.Add(1)%7 == 1 {
								return 31
							}
							return 0
						}
						defer func() { noc.TestSpecSkew = nil }()
					}
					got, err := eng.Run(exec.Options{FailOnStale: true})
					noc.TestCommitYield = nil
					noc.TestSpecSkew = nil
					if err != nil {
						t.Fatal(err)
					}
					if v.skew {
						totalRollbacks += eng.SpecRollbacks()
					}

					if got.Cycles != want.Cycles {
						t.Errorf("cycles: pdes %d != sequential %d", got.Cycles, want.Cycles)
					}
					if !reflect.DeepEqual(got.PECycles, want.PECycles) {
						t.Errorf("per-PE cycles diverge:\npdes: %v\nseq:  %v", got.PECycles, want.PECycles)
					}
					if got.Stats != want.Stats {
						t.Errorf("stats diverge:\npdes: %+v\nseq:  %+v", got.Stats, want.Stats)
					}
					if !reflect.DeepEqual(got.Net, want.Net) {
						t.Errorf("network summaries diverge")
						diffSummaries(t, got.Net, want.Net)
					}
					for _, name := range tc.spec.CheckArrays {
						gotData := got.Mem.ArrayData(got.Mem.ArrayNamed(name))
						if !reflect.DeepEqual(gotData, wantData[name]) {
							t.Errorf("array %s contents diverge", name)
						}
					}
				})
			}
		})
	}
	if totalRollbacks == 0 {
		t.Error("no skewed optimistic run performed a rollback; the convergence property is untested")
	}
}

func diffSummaries(t *testing.T, got, want *noc.Summary) {
	t.Helper()
	if got == nil || want == nil {
		t.Logf("pdes: %+v\nseq:  %+v", got, want)
		return
	}
	if got.Messages != want.Messages || got.WaitCycles != want.WaitCycles ||
		got.Contended != want.Contended || got.MaxWait != want.MaxWait {
		t.Logf("totals: pdes {msgs %d wait %d cont %d max %d} seq {msgs %d wait %d cont %d max %d}",
			got.Messages, got.WaitCycles, got.Contended, got.MaxWait,
			want.Messages, want.WaitCycles, want.Contended, want.MaxWait)
	}
	if !reflect.DeepEqual(got.HopHist, want.HopHist) {
		t.Logf("hop hist: pdes %v seq %v", got.HopHist, want.HopHist)
	}
	n := len(got.Links)
	if len(want.Links) < n {
		n = len(want.Links)
	}
	shown := 0
	for i := 0; i < n && shown < 5; i++ {
		if !reflect.DeepEqual(got.Links[i], want.Links[i]) {
			t.Logf("link %d: pdes %+v seq %+v", i, got.Links[i], want.Links[i])
			shown++
		}
	}
}

// resultSnap deep-copies the comparable observables of a Result: a Result
// returned by Engine.Run aliases Engine-owned storage that the next Run on
// the same Engine overwrites, so cross-run comparisons must copy first.
type resultSnap struct {
	cycles   int64
	stats    interface{}
	pecycles []int64
	hopHist  []int64
	links    []noc.LinkStat
	netTot   [4]int64
	data     []float64
}

func snapResult(r *exec.Result, data []float64) resultSnap {
	s := resultSnap{
		cycles:   r.Cycles,
		stats:    r.Stats,
		pecycles: append([]int64(nil), r.PECycles...),
		data:     append([]float64(nil), data...),
	}
	if r.Net != nil {
		s.hopHist = append([]int64(nil), r.Net.HopHist...)
		s.links = append([]noc.LinkStat(nil), r.Net.Links...)
		s.netTot = [4]int64{r.Net.Messages, r.Net.WaitCycles, r.Net.Contended, r.Net.MaxWait}
	}
	return s
}

// TestEngineReuseIsDeterministic pins the arena behaviour the Engine split
// exists for: one Engine Run repeatedly — alternating the serial reference
// order with the default path on the same arenas — must reproduce the
// identical result every time. The default path is optimistic speculation
// for the fault-free row and the serial fallback for the faulted one.
func TestEngineReuseIsDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)

	topo, err := noc.Parse("torus")
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.MXM(32, 16, 8)
	for _, v := range []struct {
		name  string
		fault fault.Plan
	}{
		{"optimistic", fault.Plan{}},
		{"faulted", fault.Plan{Seed: 5, Rate: 0.02, Kinds: fault.AllKinds()}},
	} {
		t.Run(v.name, func(t *testing.T) {
			mp := machine.T3D(8)
			mp.Topology = topo
			c, err := core.Compile(spec.Prog, core.ModeCCDP, mp)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := exec.New(c)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var ref resultSnap
			have := false
			for i := 0; i < 4; i++ {
				serial := i%2 == 1
				r, err := eng.Run(exec.Options{FailOnStale: true, SerialTorus: serial, Fault: v.fault})
				if err != nil {
					t.Fatal(err)
				}
				data := r.Mem.ArrayData(r.Mem.ArrayNamed(spec.CheckArrays[0]))
				got := snapResult(r, data)
				if !have {
					ref, have = got, true
					continue
				}
				label := fmt.Sprintf("run %d (serial=%v)", i, serial)
				if got.cycles != ref.cycles || got.stats != ref.stats {
					t.Errorf("%s: stats diverge from run 0", label)
				}
				if !reflect.DeepEqual(got.pecycles, ref.pecycles) {
					t.Errorf("%s: per-PE cycles diverge from run 0", label)
				}
				if got.netTot != ref.netTot || !reflect.DeepEqual(got.hopHist, ref.hopHist) ||
					!reflect.DeepEqual(got.links, ref.links) {
					t.Errorf("%s: network summary diverges from run 0", label)
				}
				if !reflect.DeepEqual(got.data, ref.data) {
					t.Errorf("%s: results diverge from run 0", label)
				}
			}
		})
	}
}

// TestIncoherentFallbackMatchesSerial guards the runs the concurrent
// schemes exclude — stale-ref attribution and fault injection — on both
// topologies: torus speculation and the settled flat fan-out leave them to
// the canonical sequential order. INCOHERENT SWIM and TOMCATV consume
// stale words in nearly every epoch, so any concurrent execution that lets
// a line fill race a same-epoch write shows up as a drifting violation
// count. Every run at GOMAXPROCS 4 must reproduce the reference taken at
// GOMAXPROCS 1 exactly: oracle violations (and the whole stats block),
// per-PE cycles, the network summary and the per-ref stale attribution.
func TestIncoherentFallbackMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const runs = 30
	torus, err := noc.Parse("torus")
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		topo noc.Config
	}{{"torus", torus}, {"flat", noc.Config{}}}
	apps := []*workloads.Spec{workloads.SWIM(65, 2), workloads.TOMCATV(65, 2)}
	variants := []struct {
		name string
		opts exec.Options
	}{
		{"stale-refs", exec.Options{TrackStaleRefs: true}},
		{"faulted", exec.Options{Fault: fault.Plan{Seed: 11, Rate: 0.02, Kinds: fault.AllKinds()}}},
	}
	for _, tp := range topos {
		for _, spec := range apps {
			mp := machine.T3D(8)
			mp.Topology = tp.topo
			c, err := core.Compile(spec.Prog, core.ModeIncoherent, mp)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				t.Run(tp.name+"/"+spec.Name+"/"+v.name, func(t *testing.T) {
					runtime.GOMAXPROCS(1)
					want, err := exec.Run(c, v.opts)
					runtime.GOMAXPROCS(4)
					if err != nil {
						t.Fatal(err)
					}
					if want.Stats.OracleViolations == 0 {
						t.Fatal("reference run reports no oracle violations; the test is vacuous")
					}
					mismatches := 0
					for i := 0; i < runs; i++ {
						got, err := exec.Run(c, v.opts)
						if err != nil {
							t.Fatal(err)
						}
						same := got.Stats == want.Stats &&
							reflect.DeepEqual(got.PECycles, want.PECycles) &&
							reflect.DeepEqual(got.Net, want.Net) &&
							reflect.DeepEqual(got.StaleByRef, want.StaleByRef)
						if !same {
							if mismatches == 0 {
								t.Errorf("run %d: oracle violations %d, serial %d; cycles %d, serial %d",
									i, got.Stats.OracleViolations, want.Stats.OracleViolations, got.Cycles, want.Cycles)
							}
							mismatches++
						}
					}
					if mismatches > 0 {
						t.Errorf("%d of %d runs diverge from the GOMAXPROCS 1 reference", mismatches, runs)
					}
				})
			}
		}
	}
}
