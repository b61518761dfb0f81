// Benchmarks regenerating the paper's evaluation artifacts, one per table,
// figure and ablation (DESIGN.md's per-experiment index). Each benchmark
// reports the SIMULATED T3D metrics (cycles, speedups, improvement %) as
// custom benchmark metrics alongside the host-side ns/op; the paper-shape
// comparison lives in EXPERIMENTS.md, regenerated by cmd/ccdpbench at full
// scale. Benchmarks run the reduced (test-scale) instances so the whole
// suite stays fast; pass -scale via cmd/ccdpbench for the paper-size runs.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/stale"
	"repro/internal/target"
	"repro/internal/workloads"
)

const benchPEs = 8

// mustCompile lowers one configuration outside the timed loop: the
// benchmarks below measure engine execution, not compilation (Figure 2's
// benchmark measures scheduling and keeps Compile inside its loop).
func mustCompile(b *testing.B, spec *workloads.Spec, mode core.Mode, mp machine.Params) *core.Compiled {
	b.Helper()
	c, err := core.Compile(spec.Prog, mode, mp)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func mustExec(b *testing.B, c *core.Compiled) *exec.Result {
	b.Helper()
	r, err := exec.Run(c, exec.Options{FailOnStale: true})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchTables runs SEQ/BASE/CCDP for one app and reports the Table 1
// speedups and Table 2 improvement as metrics.
func benchTables(b *testing.B, spec *workloads.Spec) {
	seqC := mustCompile(b, spec, core.ModeSeq, machine.T3D(1))
	baseC := mustCompile(b, spec, core.ModeBase, machine.T3D(benchPEs))
	ccdpC := mustCompile(b, spec, core.ModeCCDP, machine.T3D(benchPEs))
	b.ReportAllocs()
	b.ResetTimer()
	var seqCycles, baseCycles, ccdpCycles int64
	for i := 0; i < b.N; i++ {
		seqCycles = mustExec(b, seqC).Cycles
		baseCycles = mustExec(b, baseC).Cycles
		ccdpCycles = mustExec(b, ccdpC).Cycles
	}
	b.ReportMetric(float64(baseCycles), "BASE-cycles")
	b.ReportMetric(float64(ccdpCycles), "CCDP-cycles")
	b.ReportMetric(float64(seqCycles)/float64(baseCycles), "T1-BASE-speedup")
	b.ReportMetric(float64(seqCycles)/float64(ccdpCycles), "T1-CCDP-speedup")
	b.ReportMetric(100*(1-float64(ccdpCycles)/float64(baseCycles)), "T2-improv-%")
}

// --- Table 1 and Table 2 (speedups and improvement), one per application ---

func BenchmarkTable1Table2_MXM(b *testing.B)     { benchTables(b, workloads.MXM(64, 32, 16)) }
func BenchmarkTable1Table2_VPENTA(b *testing.B)  { benchTables(b, workloads.VPENTA(64, 2)) }
func BenchmarkTable1Table2_TOMCATV(b *testing.B) { benchTables(b, workloads.TOMCATV(65, 2)) }
func BenchmarkTable1Table2_SWIM(b *testing.B)    { benchTables(b, workloads.SWIM(65, 2)) }

// --- Figure 1: the prefetch target analysis algorithm itself ---

func BenchmarkFigure1_TargetAnalysis(b *testing.B) {
	spec := workloads.TOMCATV(65, 2)
	mp := machine.T3D(benchPEs)
	// The analyses run on the source program directly (no Compile clone), so
	// lay it out here: the locality grouping reads array base addresses.
	mem.Layout(spec.Prog, mp.LineWords)
	sres, err := stale.Analyze(spec.Prog, benchPEs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var targets int
	for i := 0; i < b.N; i++ {
		tres := target.Analyze(spec.Prog, sres.StaleReads, mp.LineWords)
		targets = len(tres.Targets)
	}
	b.ReportMetric(float64(targets), "targets")
}

// --- Figure 2: the prefetch scheduling algorithm ---

func BenchmarkFigure2_PrefetchScheduling(b *testing.B) {
	spec := workloads.TOMCATV(65, 2)
	mp := machine.T3D(benchPEs)
	var res *sched.Result
	for i := 0; i < b.N; i++ {
		// Schedule mutates, so re-clone each iteration via Compile.
		c, err := core.Compile(spec.Prog, core.ModeCCDP, mp)
		if err != nil {
			b.Fatal(err)
		}
		res = c.Sched
	}
	b.ReportMetric(float64(res.NumVPG), "VPG")
	b.ReportMetric(float64(res.NumSP), "SP")
	b.ReportMetric(float64(res.NumMBP), "MBP")
	b.ReportMetric(float64(res.NumBypass), "bypass")
}

// --- Ablation A: vector prefetch generation on MXM ---

func BenchmarkAblationVPG(b *testing.B) {
	spec := workloads.MXM(64, 32, 16)
	withC := mustCompile(b, spec, core.ModeCCDP, machine.T3D(benchPEs))
	mp := machine.T3D(benchPEs)
	mp.VectorMaxWords = 0 // VPG disabled: SP/MBP take over
	withoutC := mustCompile(b, spec, core.ModeCCDP, mp)
	b.ReportAllocs()
	b.ResetTimer()
	var with, without int64
	for i := 0; i < b.N; i++ {
		with = mustExec(b, withC).Cycles
		without = mustExec(b, withoutC).Cycles
	}
	b.ReportMetric(float64(with), "CCDP-cycles")
	b.ReportMetric(float64(without), "noVPG-cycles")
	b.ReportMetric(100*(1-float64(with)/float64(without)), "VPG-gain-%")
}

// --- Ablation B: moving-back window on SWIM ---

func BenchmarkAblationMBP(b *testing.B) {
	spec := workloads.SWIM(65, 2)
	mp := machine.T3D(benchPEs)
	mp.VectorMaxWords = 0
	mp.PrefetchQueueWords = 1
	mp.MinMoveBackCycles = 5
	tightC := mustCompile(b, spec, core.ModeCCDP, mp)
	mp.MinMoveBackCycles = 2000
	wideC := mustCompile(b, spec, core.ModeCCDP, mp)
	b.ReportAllocs()
	b.ResetTimer()
	var tight, wide int64
	for i := 0; i < b.N; i++ {
		tight = mustExec(b, tightC).Cycles
		wide = mustExec(b, wideC).Cycles
	}
	b.ReportMetric(float64(tight), "minDist5-cycles")
	b.ReportMetric(float64(wide), "minDist2000-cycles")
}

// --- Ablation C: headroom of prefetching non-stale references (paper §6) ---

func BenchmarkAblationNonStale(b *testing.B) {
	spec := workloads.TOMCATV(65, 2)
	c := mustCompile(b, spec, core.ModeCCDP, machine.T3D(benchPEs))
	b.ReportAllocs()
	b.ResetTimer()
	var misses, remote int64
	for i := 0; i < b.N; i++ {
		r := mustExec(b, c)
		misses = r.Stats.Misses
		remote = r.Stats.RemoteReads
	}
	b.ReportMetric(float64(misses), "local-misses")
	b.ReportMetric(float64(remote), "residual-remote")
}

// --- Coherence checker overhead: the engine with and without verification ---

func BenchmarkEngineRaceDetection(b *testing.B) {
	spec := workloads.VPENTA(64, 2)
	c := mustCompile(b, spec, core.ModeCCDP, machine.T3D(benchPEs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(c, exec.Options{DetectRaces: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Compiler front half: stale reference analysis throughput ---

// BenchmarkStaleAnalysis times one analysis of SWIM(65,2) on 16 PEs, with
// per-PE coherence domains (t3d) and with domains of 4 PEs (cxl-pcc), which
// adds the intra-domain dataflow.
func BenchmarkStaleAnalysis(b *testing.B) {
	spec := workloads.SWIM(65, 2)
	for _, bc := range []struct {
		name string
		mp   machine.Params
	}{
		{"t3d", machine.T3D(16)},
		{"cxl-pcc", machine.MustProfileParams("cxl-pcc", 16)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := stale.Options{Domains: bc.mp.DomainTable()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stale.AnalyzeOpt(spec.Prog, bc.mp.NumPE, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
