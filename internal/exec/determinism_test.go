package exec_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/workloads"
)

// TestRunIndependentOfGOMAXPROCS pins the engine's determinism: a run is a
// pure function of the compiled program and its options, whatever the
// scheduler's thread count. Each case runs once at GOMAXPROCS 1 and then
// several times at GOMAXPROCS 4, on the torus and on the flat machine, and
// every observable must match exactly: total and per-PE cycles, the whole
// stats block, the network summary, the checked arrays, the recorded
// oracle violations and the per-ref stale attribution. The INCOHERENT cases
// consume stale words in nearly every epoch, so a line fill that observed a
// same-epoch write out of PE-major order would show up as a drifting
// violation count; they run with stale-ref attribution and with fault
// injection, the runs whose per-ref counts and fault streams depend most on
// execution order.
func TestRunIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	const runs = 5
	torus, err := noc.Parse("torus")
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		opts exec.Options
	}
	plain := []variant{{"plain", exec.Options{FailOnStale: true}}}
	incoherent := []variant{
		{"stale-refs", exec.Options{TrackStaleRefs: true}},
		{"faulted", exec.Options{Fault: fault.Plan{Seed: 11, Rate: 0.02, Kinds: fault.AllKinds()}}},
	}
	cases := []struct {
		name     string
		spec     *workloads.Spec
		mode     core.Mode
		pes      int
		variants []variant
	}{
		{"MXM-CCDP-8PE", workloads.MXM(64, 32, 16), core.ModeCCDP, 8, plain},
		{"MXM-CCDP-4PE", workloads.MXM(64, 32, 16), core.ModeCCDP, 4, plain},
		{"VPENTA-CCDP-8PE", workloads.VPENTA(64, 2), core.ModeCCDP, 8, plain},
		{"TOMCATV-CCDP-8PE", workloads.TOMCATV(65, 2), core.ModeCCDP, 8, plain},
		{"SWIM-BASE-8PE", workloads.SWIM(65, 2), core.ModeBase, 8, plain},
		{"SWIM-INCOHERENT-8PE", workloads.SWIM(65, 2), core.ModeIncoherent, 8, incoherent},
		{"TOMCATV-INCOHERENT-8PE", workloads.TOMCATV(65, 2), core.ModeIncoherent, 8, incoherent},
	}
	topos := []struct {
		name string
		topo noc.Config
	}{{"torus", torus}, {"flat", noc.Config{}}}
	for _, tp := range topos {
		t.Run(tp.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					mp := machine.T3D(tc.pes)
					mp.Topology = tp.topo
					c, err := core.Compile(tc.spec.Prog, tc.mode, mp)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range tc.variants {
						t.Run(v.name, func(t *testing.T) {
							runtime.GOMAXPROCS(1)
							want, err := exec.Run(c, v.opts)
							runtime.GOMAXPROCS(4)
							if err != nil {
								t.Fatal(err)
							}
							if tc.mode == core.ModeIncoherent && want.Stats.OracleViolations == 0 {
								t.Fatal("reference run reports no oracle violations; the test is vacuous")
							}
							if (tp.topo.Kind == noc.KindFlat) != (want.Net == nil) {
								t.Fatalf("network summary %v does not match the %s topology", want.Net, tp.name)
							}
							for i := 0; i < runs; i++ {
								got, err := exec.Run(c, v.opts)
								if err != nil {
									t.Fatal(err)
								}
								if d := diffResults(tc.spec, got, want); d != "" {
									t.Fatalf("run %d at GOMAXPROCS 4 diverges from GOMAXPROCS 1: %s", i, d)
								}
							}
						})
					}
				})
			}
		})
	}
}

// diffResults names the first observable on which got and want differ, or
// returns "" when they agree on all of them.
func diffResults(spec *workloads.Spec, got, want *exec.Result) string {
	switch {
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d, want %d", got.Cycles, want.Cycles)
	case !reflect.DeepEqual(got.PECycles, want.PECycles):
		return fmt.Sprintf("per-PE cycles %v, want %v", got.PECycles, want.PECycles)
	case got.Stats != want.Stats:
		return fmt.Sprintf("stats\n%+v\nwant\n%+v", got.Stats, want.Stats)
	case !reflect.DeepEqual(got.Net, want.Net):
		return "network summaries differ"
	case !reflect.DeepEqual(got.Violations, want.Violations):
		return fmt.Sprintf("violations %v, want %v", got.Violations, want.Violations)
	case !reflect.DeepEqual(got.StaleByRef, want.StaleByRef):
		return fmt.Sprintf("stale-by-ref %v, want %v", got.StaleByRef, want.StaleByRef)
	}
	for _, name := range spec.CheckArrays {
		if !reflect.DeepEqual(got.Mem.ArrayData(got.Mem.ArrayNamed(name)),
			want.Mem.ArrayData(want.Mem.ArrayNamed(name))) {
			return "array " + name + " contents differ"
		}
	}
	return ""
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
// exists for: one Engine Run repeatedly on the same arenas must reproduce
// the identical result every time, fault-free and faulted.
func TestEngineReuseIsDeterministic(t *testing.T) {
	topo, err := noc.Parse("torus")
	if err != nil {
		t.Fatal(err)
	}
	spec := workloads.MXM(32, 16, 8)
	for _, v := range []struct {
		name  string
		fault fault.Plan
	}{
		{"plain", fault.Plan{}},
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
			var ref resultSnap
			for i := 0; i < 4; i++ {
				r, err := eng.Run(exec.Options{FailOnStale: true, Fault: v.fault})
				if err != nil {
					t.Fatal(err)
				}
				data := r.Mem.ArrayData(r.Mem.ArrayNamed(spec.CheckArrays[0]))
				got := snapResult(r, data)
				if i == 0 {
					ref = got
					continue
				}
				label := fmt.Sprintf("run %d", i)
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
