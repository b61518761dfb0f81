package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/report"
	"repro/internal/workloads"
)

// passStats is what one pass reports.
type passStats struct {
	wall time.Duration
	// probe is the part of a traced pass's wall spent on measurements the
	// untraced pass does not make; it is left out of the tracing overhead.
	probe     time.Duration
	jobsMs    []float64 // host latency of every job
	attempted int
	failed    int
	errs      []string
	// samples holds workload-specific measurements by name.
	samples map[string][]float64
}

func (ps *passStats) fail(n int, format string, args ...any) {
	ps.failed += n
	if len(ps.errs) < 5 {
		ps.errs = append(ps.errs, fmt.Sprintf(format, args...))
	}
}

func (ps *passStats) sample(name string, v float64) {
	if ps.samples == nil {
		ps.samples = map[string][]float64{}
	}
	ps.samples[name] = append(ps.samples[name], v)
}

// runner is one set-up workload.
type runner interface {
	// pass runs untraced pass k.
	pass(k int) passStats
	// replay runs traced pass k through rp's layer calls.
	replay(k int, rp *replay) passStats
	// extras derives the workload's own metrics from its passes.
	extras(untraced, traced []passStats) map[string]metric
}

// workload is one entry of the benchmark's workload set.
type workload struct {
	name string
	// procs is the GOMAXPROCS of the measuring child process; tracedProcs,
	// when set, replaces it in the traced run.
	procs, tracedProcs int
	setup              func(cfg config) (runner, error)
}

// The torus tables are timed on one thread, where the engine books links
// in the canonical serial order: on two threads a pass takes the same
// time (finding 2), but its time swings with whatever else the host runs.
// The traced run keeps two threads, so that its ledger measures optimistic
// PDES — speculation, rollback, and noc.pdes_speedup.
var workloadSet = []workload{
	{"tables-flat", 1, 0, func(cfg config) (runner, error) { return newTables(cfg, "flat") }},
	{"tables-torus64", 1, 2, func(cfg config) (runner, error) { return newTables(cfg, "torus") }},
	{"fuzz-campaign", 1, 0, newFuzz},
	{"served-mixed", 1, 0, newServed},
}

// childProcs is the GOMAXPROCS of w's measuring child.
func (w workload) childProcs(trace bool) int {
	if trace && w.tracedProcs > 0 {
		return w.tracedProcs
	}
	return w.procs
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloadSet {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q: valid workloads are %v", name, names)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// digest is the hex SHA-256 of data; the csv sabotage flips one byte
// first, standing in for a simulator that drifted by one character.
func digest(data []byte, flip bool) string {
	if flip && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 1
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// --- tables-flat, tables-torus64 ---------------------------------------------

// tablesBuilders are the four applications of Tables 1 and 2. The full
// size is the paper's array shapes (MXM 256×128×64, VPENTA 128², TOMCATV
// 257², SWIM 513²) with two time steps, not the paper scale's four and
// five, so that a 20 s run holds two flat passes.
func tablesBuilders(tiny bool) []func() *workloads.Spec {
	if tiny {
		return []func() *workloads.Spec{
			func() *workloads.Spec { return workloads.MXM(32, 16, 8) },
			func() *workloads.Spec { return workloads.VPENTA(32, 2) },
			func() *workloads.Spec { return workloads.TOMCATV(33, 2) },
			func() *workloads.Spec { return workloads.SWIM(33, 2) },
		}
	}
	return []func() *workloads.Spec{
		func() *workloads.Spec { return workloads.MXM(256, 128, 64) },
		func() *workloads.Spec { return workloads.VPENTA(128, 2) },
		func() *workloads.Spec { return workloads.TOMCATV(257, 2) },
		func() *workloads.Spec { return workloads.SWIM(513, 2) },
	}
}

type tablesRunner struct {
	cfg      config
	topology string
	pes      []int
	hc       harness.Config
	builders []func() *workloads.Spec
	specs    []*workloads.Spec
	pin      string
}

// newTables builds the applications. The seed does not change them: the
// tables are the paper's fixed experiment.
func newTables(cfg config, topology string) (runner, error) {
	tb := &tablesRunner{cfg: cfg, topology: topology, builders: tablesBuilders(cfg.tiny)}
	switch {
	case topology == "flat" && cfg.tiny:
		tb.pes = []int{2, 4}
	case topology == "flat":
		tb.pes = []int{8, 64}
	case cfg.tiny:
		tb.pes = []int{8}
	default:
		tb.pes = []int{64}
	}
	hc, err := driver.SweepConfig("t3d", 0, topology, "optimistic", 0, "", 0)
	if err != nil {
		return nil, err
	}
	hc.PECounts = tb.pes
	tb.hc = hc
	for _, build := range tb.builders {
		tb.specs = append(tb.specs, build())
	}
	tb.pin = pinnedCSV[pinKey(cfg, topology)]
	return tb, nil
}

// points is how many verified BASE and CCDP runs a pass makes.
func (tb *tablesRunner) points() int { return len(tb.builders) * len(tb.pes) * 2 }

// render produces what a user of the tables reads; only the CSV is
// pinned, the tables are derived from the same rows.
func render(results []*harness.AppResult) string {
	csv := report.CSV(results)
	_ = report.Table1(results) + report.Table2(results)
	return csv
}

// check fails every point of the pass when its CSV differs from the pin.
func (tb *tablesRunner) check(ps *passStats, csv string) {
	if got := digest([]byte(csv), tb.cfg.sabotage == "csv"); got != tb.pin {
		ps.fail(ps.attempted-ps.failed, "report CSV digest %s, pinned %s", got, tb.pin)
	}
}

func (tb *tablesRunner) pass(int) passStats {
	ps := passStats{attempted: tb.points()}
	start := time.Now()
	var results []*harness.AppResult
	for _, s := range tb.specs {
		t0 := time.Now()
		ar, err := harness.RunApp(s, tb.hc)
		ps.jobsMs = append(ps.jobsMs, msSince(t0))
		if err != nil {
			ps.fail(len(tb.pes)*2, "%v", err)
			continue
		}
		results = append(results, ar)
	}
	csv := render(results)
	ps.wall = time.Since(start)
	tb.check(&ps, csv)
	return ps
}

func (tb *tablesRunner) replay(_ int, rp *replay) passStats {
	ps := passStats{attempted: tb.points()}
	t := rp.t
	start := time.Now()
	var results []*harness.AppResult
	for _, build := range tb.builders {
		tr := t.newTrace()
		id := t.begin("workloads.build", 0, tr)
		s := build()
		t.end(id)
		ar, err := rp.sweep(sweepSpec{spec: s, profile: "t3d", topology: tb.topology, pes: tb.pes,
			pdesProbe: tb.topology != "flat"}, 0, 0)
		if err != nil {
			ps.fail(len(tb.pes)*2, "%v", err)
			continue
		}
		results = append(results, ar)
	}
	id := t.begin("report.render", 0, t.newTrace())
	csv := render(results)
	t.end(id)
	ps.wall = time.Since(start)
	spans := rp.spans()
	for _, ms := range append(durationsMs(spans, "exec.serial_rerun"), durationsMs(spans, "noc.pdes_probe")...) {
		ps.probe += time.Duration(ms * 1e6)
	}
	tb.check(&ps, csv)
	return ps
}

func (tb *tablesRunner) extras(_, _ []passStats) map[string]metric { return nil }

// rerunFlatPoints times reps runs of every tables-flat BASE and CCDP
// point, keyed by pointName. Each run gets a fresh engine, as the traced
// pass's runs do.
func rerunFlatPoints(cfg config, reps int) (map[string][]float64, error) {
	r, err := newTables(cfg, "flat")
	if err != nil {
		return nil, err
	}
	tb := r.(*tablesRunner)
	out := map[string][]float64{}
	for _, s := range tb.specs {
		for _, p := range tb.pes {
			for _, mode := range []core.Mode{core.ModeBase, core.ModeCCDP} {
				mp, err := driver.Machine("t3d", p, 0, "flat", "optimistic")
				if err != nil {
					return nil, err
				}
				c, err := core.Compile(s.Prog, mode, mp)
				if err != nil {
					return nil, err
				}
				name := pointName(s.Name, mode, p)
				for i := 0; i < reps; i++ {
					ms, err := coldRun(c)
					if err != nil {
						return nil, fmt.Errorf("%s: %w", name, err)
					}
					out[name] = append(out[name], ms)
				}
			}
		}
	}
	return out, nil
}

// coldRun times one Engine.Run of c on a fresh engine, in ms.
func coldRun(c *core.Compiled) (float64, error) {
	e, err := exec.New(c)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	t0 := time.Now()
	_, err = e.Run(exec.Options{FailOnStale: true})
	return msSince(t0), err
}

// --- fuzz-campaign -----------------------------------------------------------

type fuzzRunner struct {
	cfg    config
	seeds  []int64       // generator seeds, in the order they are checked
	progs  []*ir.Program // the program of each seed
	matrix []fuzz.RunConfig
	mut    fuzz.Mutation
}

// newFuzz fixes the campaign and generates its programs: generator seeds
// 1..N, taken in order, so every pass and every run checks the same
// programs and their times compare; programs differ several-fold in cost,
// and a seed-drawn set moves a pass's time by about 5% at N = 128. The
// seed sets the fault plans of the matrix's faulted configurations.
func newFuzz(cfg config) (runner, error) {
	n := 128
	if cfg.tiny {
		n = 8
	}
	f := &fuzzRunner{cfg: cfg, matrix: fuzz.DefaultMatrix(cfg.seed)}
	for i := 1; i <= n; i++ {
		f.seeds = append(f.seeds, int64(i))
		f.progs = append(f.progs, progen.Generate(rand.New(rand.NewSource(int64(i))), progen.DefaultConfig()))
	}
	if cfg.sabotage == "mutation" {
		f.mut = fuzz.MutNoSchedMarks
	}
	return f, nil
}

// pass referees the campaign's programs one at a time, as a one-job
// fuzz.Run does, so each program's latency is its own. With two jobs, or
// on two threads, programs compete for the engine's fan-out token, and
// pass times spread 3-10% between runs instead of 1%.
func (f *fuzzRunner) pass(int) passStats {
	ps := passStats{attempted: len(f.seeds)}
	runs := 0
	start := time.Now()
	for i, p := range f.progs {
		seed := f.seeds[i]
		t0 := time.Now()
		fd, n := fuzz.CheckProgram(p, f.matrix, f.mut)
		ps.jobsMs = append(ps.jobsMs, msSince(t0))
		runs += n
		switch {
		case fd != nil:
			ps.fail(1, "seed %d: %s finding under %s: %s", seed, fd.Referee, fd.Config, fd.Detail)
		case n != pinnedFuzzRuns:
			ps.fail(1, "seed %d: %d runs, pinned %d", seed, n, pinnedFuzzRuns)
		}
	}
	ps.wall = time.Since(start)
	ps.sample("fuzz.runs", float64(runs))
	return ps
}

func (f *fuzzRunner) replay(_ int, rp *replay) passStats {
	ps := passStats{attempted: len(f.seeds)}
	if len(f.matrix) != pinnedFuzzRuns {
		ps.fail(ps.attempted, "matrix has %d configurations, pinned %d", len(f.matrix), pinnedFuzzRuns)
	}
	start := time.Now()
	for _, seed := range f.seeds {
		if err := rp.fuzzProgram(seed, f.matrix, f.mut); err != nil {
			ps.fail(1, "%v", err)
		}
	}
	ps.wall = time.Since(start)
	return ps
}

func (f *fuzzRunner) extras(untraced, _ []passStats) map[string]metric {
	var walls, runs []float64
	for _, ps := range untraced {
		walls = append(walls, ps.wall.Seconds())
		runs = append(runs, ps.samples["fuzz.runs"]...)
	}
	return map[string]metric{
		"programs_per_s": {float64(len(f.seeds)) / median(walls), "1/s"},
		"fuzz.runs":      {median(runs), "count"},
	}
}
