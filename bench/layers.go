package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/fuzz"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/pass"
	"repro/internal/progen"
	"repro/internal/workloads"
)

// ledger holds one traced pass's layer counters that spans cannot carry.
type ledger struct {
	compiles    int64
	passMs      map[string]float64 // Compiled.Timings summed by pass name
	simRefs     int64
	epochs      int64
	peEpochs    int64 // Σ Stats.Epochs × PEs: the base of the rollback ratio
	rollbacks   int64
	nocMessages int64
	nocWait     int64
	// pdesRatio is SerialTorus ÷ default Engine.Run time, per probed point.
	pdesRatio []float64
	// pointRunMs is the Engine.Run time of every named point.
	pointRunMs map[string]float64
}

func newLedger() *ledger {
	return &ledger{passMs: map[string]float64{}, pointRunMs: map[string]float64{}}
}

// simRefs counts a run's simulated memory references: reads served by a
// register, the cache, the prefetch queue, local or remote memory, plus
// local and remote writes.
func simRefs(r *exec.Result) int64 {
	s := &r.Stats
	return s.RegisterHits + s.Hits + s.PrefetchConsumed + s.LocalReads + s.RemoteReads +
		s.LocalWrites + s.RemoteWrites
}

// replay drives configurations through the layer calls one at a time —
// the steps harness.RunApp and fuzz.Run take internally — with a span
// around each call.
type replay struct {
	t    *tracer
	l    *ledger
	mark int // the tracer's span count when the pass began
}

func newReplay(t *tracer) *replay { return &replay{t: t, l: newLedger(), mark: t.mark()} }

// spans returns the spans recorded since the replay began.
func (rp *replay) spans() []span { return rp.t.since(rp.mark) }

// point is one configuration to compile, run and detach.
type point struct {
	name string // keys ledger.pointRunMs when set
	prog *ir.Program
	mode core.Mode
	mp   machine.Params
	opts exec.Options
	mut  fuzz.Mutation
	// serialRerun reruns the point on the canonical serial booking order
	// (exec.Options.SerialTorus) and requires identical PE cycles: the fuzz
	// campaign's canonical-timing referee.
	serialRerun bool
	// pdesProbe does the serial rerun and then a second run of the default
	// scheme; the ratio of the two warm runs' times is noc.pdes_speedup.
	pdesProbe bool
}

func pointName(app string, mode core.Mode, pes int) string {
	return fmt.Sprintf("%s/%s/%d", app, mode, pes)
}

// run takes pt through core.Compile → pass.Check → exec.New →
// Engine.Run → detach, each under a span of trace tr, and returns the
// detached result.
func (rp *replay) run(pt point, parent, tr int64) (*exec.Result, error) {
	t := rp.t
	id := t.begin("core.compile", parent, tr)
	c, err := core.Compile(pt.prog, pt.mode, pt.mp)
	t.end(id)
	if err != nil {
		return nil, err
	}
	fuzz.Sabotage(c, pt.mut)
	id = t.begin("pass.check", parent, tr)
	err = pass.Check(&pass.Context{Prog: c.Prog, Machine: c.Machine, Stale: c.Stale,
		Targets: c.Targets, Sched: c.Sched, Syms: c.Syms, Prov: c.Prov})
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("invariant check: %w", err)
	}
	id = t.begin("exec.new", parent, tr)
	e, err := exec.New(c)
	t.end(id)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	id = t.begin("exec.run", parent, tr)
	start := time.Now()
	r, err := e.Run(pt.opts)
	runDur := time.Since(start)
	t.end(id)
	if err != nil {
		return nil, err
	}
	rollbacks := e.SpecRollbacks()
	id = t.begin("exec.detach", parent, tr)
	out := detach(r)
	t.end(id)

	var ratio float64
	if pt.serialRerun || pt.pdesProbe {
		opts := pt.opts
		opts.SerialTorus = true
		id = t.begin("exec.serial_rerun", parent, tr)
		start := time.Now()
		sr, err := e.Run(opts)
		serialDur := time.Since(start)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("canonical serial rerun: %w", err)
		}
		if !slices.Equal(sr.PECycles, out.PECycles) {
			return nil, fmt.Errorf("cycles diverge from the canonical serial order: got %d, canonical %d",
				out.Cycles, sr.Cycles)
		}
		if pt.pdesProbe {
			id = t.begin("noc.pdes_probe", parent, tr)
			start := time.Now()
			_, err := e.Run(pt.opts)
			warmDur := time.Since(start)
			t.end(id)
			if err != nil {
				return nil, err
			}
			ratio = float64(serialDur) / float64(warmDur)
		}
	}

	l := rp.l
	l.compiles++
	for _, tm := range c.Timings {
		l.passMs[tm.Pass] += float64(tm.Duration) / 1e6
	}
	l.simRefs += simRefs(out)
	l.epochs += out.Stats.Epochs
	l.peEpochs += out.Stats.Epochs * int64(c.Machine.NumPE)
	l.rollbacks += rollbacks
	l.nocMessages += out.Stats.NetMessages
	l.nocWait += out.Stats.NetWaitCycles
	if pt.pdesProbe {
		l.pdesRatio = append(l.pdesRatio, ratio)
	}
	if pt.name != "" {
		l.pointRunMs[pt.name] = float64(runDur) / 1e6
	}
	return out, nil
}

// detach copies everything in an Engine.Run result that aliases engine
// storage, as exec.Run does before returning an engine to its pool.
func detach(r *exec.Result) *exec.Result {
	out := *r
	out.PECycles = slices.Clone(r.PECycles)
	out.Violations = slices.Clone(r.Violations)
	out.Mem = r.Mem.Clone()
	if r.Net != nil {
		out.Net = r.Net.Clone()
	}
	return &out
}

func snapshot(r *exec.Result, arrays []string) map[string][]float64 {
	out := make(map[string][]float64, len(arrays))
	for _, name := range arrays {
		out[name] = slices.Clone(r.Mem.ArrayData(r.Mem.ArrayNamed(name)))
	}
	return out
}

// verify holds a run to the sequential golden arrays and to zero stale
// reads and oracle violations.
func verify(golden map[string][]float64, r *exec.Result) error {
	if n := r.Stats.StaleValueReads; n != 0 {
		return fmt.Errorf("%d stale-value reads", n)
	}
	if n := r.Stats.OracleViolations; n != 0 {
		return fmt.Errorf("%d oracle violations", n)
	}
	for name, want := range golden {
		got := r.Mem.ArrayData(r.Mem.ArrayNamed(name))
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("array %s differs from sequential at %d: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
	return nil
}

// sweepSpec is one application sweep as harness.RunApp runs it.
type sweepSpec struct {
	spec              *workloads.Spec
	profile, topology string
	pes               []int
	// pdesProbe probes every multi-PE torus point (see point).
	pdesProbe bool
}

// sweep replays harness.RunApp: the sequential golden run, then BASE and
// CCDP at each PE count, each verified against it.
// It returns the AppResult the harness builds from the same runs. With
// tr == 0 every point is its own trace; otherwise the points are spans of
// trace tr under parent.
func (rp *replay) sweep(ss sweepSpec, parent, tr int64) (*harness.AppResult, error) {
	t := rp.t
	// runPoint runs one configuration and, given golden arrays, verifies it.
	runPoint := func(golden map[string][]float64, mode core.Mode, pes int) (*exec.Result, error) {
		mp, err := driver.Machine(ss.profile, pes, 0, ss.topology, "optimistic")
		if err != nil {
			return nil, err
		}
		ptr, pparent := tr, parent
		if tr == 0 {
			ptr, pparent = t.newTrace(), 0
		}
		root := t.begin("point", pparent, ptr)
		defer t.end(root)
		r, err := rp.run(point{
			name: pointName(ss.spec.Name, mode, pes),
			prog: ss.spec.Prog, mode: mode, mp: mp,
			opts:      exec.Options{FailOnStale: true},
			pdesProbe: ss.pdesProbe && mp.Topology.Kind != noc.KindFlat && pes > 1,
		}, root, ptr)
		if err == nil && golden != nil {
			id := t.begin("verify", root, ptr)
			err = verify(golden, r)
			t.end(id)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s P=%d: %w", ss.spec.Name, mode, pes, err)
		}
		return r, nil
	}

	seq, err := runPoint(nil, core.ModeSeq, 1)
	if err != nil {
		return nil, err
	}
	golden := snapshot(seq, ss.spec.CheckArrays)
	mp1, err := driver.Machine(ss.profile, 1, 0, "flat", "optimistic")
	if err != nil {
		return nil, err
	}
	ar := &harness.AppResult{Name: ss.spec.Name, Profile: mp1.Profile, SeqCycles: seq.Cycles}
	for _, p := range ss.pes {
		row := harness.Row{PEs: p}
		r, err := runPoint(golden, core.ModeBase, p)
		if err != nil {
			return nil, err
		}
		row.BaseCycles, row.BaseStats, row.BaseNet, row.BaseAttempts = r.Cycles, r.Stats, r.Net, 1
		row.BaseSpeedup = float64(seq.Cycles) / float64(r.Cycles)
		r, err = runPoint(golden, core.ModeCCDP, p)
		if err != nil {
			return nil, err
		}
		row.CCDPCycles, row.CCDPStats, row.CCDPNet, row.CCDPAttempts = r.Cycles, r.Stats, r.Net, 1
		row.CCDPSpeedup = float64(seq.Cycles) / float64(r.Cycles)
		row.Improvement = 100 * (1 - float64(row.CCDPCycles)/float64(row.BaseCycles))
		ar.Rows = append(ar.Rows, row)
	}
	return ar, nil
}

// fuzzProgram replays fuzz.CheckSeed for one generator seed: generate the
// program, run the sequential golden, then every matrix configuration
// under the fuzz referees — invariant check, run error, oracle, divergence
// and, where the concurrent torus path engages, the canonical-timing
// rerun.
func (rp *replay) fuzzProgram(seed int64, matrix []fuzz.RunConfig, mut fuzz.Mutation) error {
	t := rp.t
	tr := t.newTrace()
	root := t.begin("program", 0, tr)
	defer t.end(root)
	id := t.begin("workloads.build", root, tr)
	p := progen.Generate(rand.New(rand.NewSource(seed)), progen.DefaultConfig())
	t.end(id)

	seqMP, err := fuzz.RunConfig{Mode: core.ModeSeq, PEs: 1}.MachineParams()
	if err != nil {
		return err
	}
	seq, err := rp.run(point{prog: p, mode: core.ModeSeq, mp: seqMP}, root, tr)
	if err != nil {
		return fmt.Errorf("seed %d sequential golden: %w", seed, err)
	}
	var shared []string
	for _, a := range p.Arrays {
		if a.Shared {
			shared = append(shared, a.Name)
		}
	}
	golden := snapshot(seq, shared)
	concurrent := runtime.GOMAXPROCS(0) > 1
	for _, rc := range matrix {
		mp, err := rc.MachineParams()
		if err != nil {
			return err
		}
		r, err := rp.run(point{prog: p, mode: rc.Mode, mp: mp, opts: exec.Options{Fault: rc.Fault}, mut: mut,
			serialRerun: rc.Topology.Kind != noc.KindFlat && rc.PEs > 1 && concurrent}, root, tr)
		if err == nil {
			id := t.begin("verify", root, tr)
			err = verify(golden, r)
			t.end(id)
		}
		if err != nil {
			return fmt.Errorf("seed %d %s: %w", seed, rc, err)
		}
	}
	return nil
}
