// Command bench is the repository's benchmark. It measures the host cost
// of regenerating the paper's tables, of a differential fuzz campaign and
// of a served sweep, checks every output against pinned values, and in a
// traced run splits the cost across the simulator's layers. README.md
// defines the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload tables-flat [--seed 1] [--seconds 20] [--trace 0|1]
//
// Each workload runs in a child process of its own, with the workload's
// GOMAXPROCS set in the child's environment. The command prints one
// "name workload value unit" line per metric, writes result.json (and,
// traced, trace-<workload>.json) under -out, ends its output with one
// JSON object, and exits non-zero when any output check fails.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roleEnv tells a child process which part of a run it plays.
const roleEnv = "CCDP_BENCH_ROLE"

const (
	roleRun  = "run"  // set up, then measure
	roleGMP2 = "gmp2" // rerun the tables-flat points at GOMAXPROCS 2
)

// The measuring child sets its workload up again and again, untimed for
// setupWarmup, then timed for setupWindow; setup_s is the median of the
// timed set-ups. A set-up takes 5-200 µs, and single times vary by a
// third with the garbage collector and the CPU's caches. Each set-up
// starts after a forced collection, as the first one in a fresh process
// does: otherwise a set-up pays for collecting the previous ones' garbage.
// The rest keeps the median from jumping between two speeds from one child
// process to the next: in the first ~100 ms of a process, set-ups
// sometimes take twice as long, and later there are stretches of a few
// hundred milliseconds where they take half as long, so a median over a
// few milliseconds of set-ups landed on one speed or the other.
const (
	setupWarmup = 200 * time.Millisecond
	setupWindow = 500 * time.Millisecond
)

// The metrics BENCHMARK.json declares, in its order. Every workload
// reports every one of them.
var (
	endToEnd = []string{"setup_s", "wall_s"}
	perLayer = []string{
		"workloads.build_ms",
		"core.compile_ms", "core.compiles",
		"core.pass.clone_ms", "core.pass.layout_ms", "core.pass.base-lower_ms",
		"core.pass.stale-analysis_ms", "core.pass.select-candidates_ms", "core.pass.target-analysis_ms",
		"core.pass.prefetch-sched_ms", "core.pass.remap-ids_ms", "core.pass.validate_ms",
		"core.pass.intern-syms_ms",
		"pass.check_ms",
		"exec.new_ms", "exec.run_ms", "exec.detach_ms",
		"exec.sim_refs", "exec.epochs", "exec.ns_per_sim_ref",
		"exec.spec_rollbacks", "exec.rollback_ratio",
		"noc.messages", "noc.wait_cycles",
		"go.alloc_mb", "go.gc_pause_ms", "go.peak_rss_mb",
		"trace.overhead_pct", "trace.coverage_pct",
	}
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	sabotage string
	out      string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloadSet {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "how long to measure; at least one pass always runs")
	trace := fs.Int("trace", 0, "1 makes the traced run that measures the per-layer metrics")
	size := fs.String("size", "full", "input size: full, or tiny for the tests")
	sabotage := fs.String("sabotage", "", "corrupt one output on purpose, to test the output checks: csv, hit or mutation")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result.json and the trace")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		tiny: *size == "tiny", sabotage: *sabotage, out: *out}
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *size != "full" && *size != "tiny":
		return cfg, fmt.Errorf("-size must be full or tiny, not %q", *size)
	case !slices.Contains([]string{"", "csv", "hit", "mutation"}, *sabotage):
		return cfg, fmt.Errorf("-sabotage must be csv, hit or mutation, not %q", *sabotage)
	}
	_, err := lookupWorkload(cfg.workload)
	return cfg, err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childReport is what a child process writes to its standard output.
type childReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]metric  `json:"metrics,omitempty"`
	Detail    map[string]summary `json:"detail,omitempty"`
	// PointRunMs is the Engine.Run time of each named point, one sample
	// per traced pass (or rerun, for the gmp2 child).
	PointRunMs map[string][]float64 `json:"point_run_ms,omitempty"`
}

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// --- parent ------------------------------------------------------------------

func parentMain(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rep, err := collect(cfg, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := publish(cfg, rep, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// collect runs the measuring child (and, traced on tables-flat, the
// GOMAXPROCS 2 rerun), and adds the metric only the parent can see.
func collect(cfg config, args []string) (*childReport, error) {
	wl, _ := lookupWorkload(cfg.workload)
	rep, ru, err := spawn(args, roleRun, wl.childProcs(cfg.trace))
	if err != nil {
		return nil, err
	}
	// The measuring child's maximum resident size. It is not an end-to-end
	// metric: it swings with garbage-collector timing, 3-44% between runs.
	rep.Metrics["go.peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}

	if cfg.trace && cfg.workload == "tables-flat" {
		g, _, err := spawn(args, roleGMP2, 2)
		if err != nil {
			return nil, err
		}
		var speedups, spreads []float64
		for name, runs := range g.PointRunMs {
			m2 := median(runs)
			speedups = append(speedups, median(rep.PointRunMs[name])/m2)
			spreads = append(spreads, (slices.Max(runs)-slices.Min(runs))/m2)
		}
		rep.Metrics["exec.gmp2_speedup"] = metric{geomean(speedups), "x"}
		rep.Metrics["exec.gmp2_spread"] = metric{median(spreads), "ratio"}
	}
	return rep, nil
}

// spawn runs this program as a child in the given role and returns its
// report and its resource usage.
func spawn(args []string, role string, procs int) (*childReport, *syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := osexec.Command(exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"="+role, "GOMAXPROCS="+strconv.Itoa(procs))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s child: %w", role, err)
	}
	rep := &childReport{}
	if err := json.Unmarshal(out.Bytes(), rep); err != nil {
		return nil, nil, fmt.Errorf("%s child report: %w", role, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, nil, errors.New("no resource usage for the child process")
	}
	return rep, ru, nil
}

// publish prints every metric, writes result.json and prints the final
// JSON line, whose metrics are exactly the ones BENCHMARK.json declares
// for the mode.
func publish(cfg config, rep *childReport, stdout io.Writer) error {
	declared := endToEnd
	if cfg.trace {
		declared = perLayer
	}
	dropUnmeasured(rep.Metrics)
	final := map[string]metric{}
	for _, name := range declared {
		m, ok := rep.Metrics[name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, name)
		}
		final[name] = m
	}
	var extras []string
	for name := range rep.Metrics {
		if !slices.Contains(declared, name) {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range append(slices.Clone(declared), extras...) {
		m := rep.Metrics[name]
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, cfg.workload, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	failRatio := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(stdout, "fail_ratio %s %s ratio\n", cfg.workload, strconv.FormatFloat(failRatio, 'g', -1, 64))
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "bench: check failed:", e)
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Trace     bool               `json:"trace"`
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		FailRatio float64            `json:"fail_ratio"`
		Metrics   map[string]metric  `json:"metrics"`
		Detail    map[string]summary `json:"detail,omitempty"`
		Errors    []string           `json:"errors,omitempty"`
	}{cfg.workload, cfg.seed, cfg.trace, rep.Failed == 0, rep.Attempted, rep.Failed, failRatio,
		rep.Metrics, rep.Detail, rep.Errors}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, final})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// --- child -------------------------------------------------------------------

func childMain(role string, args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err == nil {
		var rep *childReport
		rep, err = runChild(cfg, role)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(rep)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s child: %v\n", role, err)
		return 1
	}
	return 0
}

func runChild(cfg config, role string) (*childReport, error) {
	if role == roleGMP2 {
		runs, err := rerunFlatPoints(cfg, 3)
		return &childReport{PointRunMs: runs}, err
	}
	// Set the workload up repeatedly and keep the last set-up.
	wl, _ := lookupWorkload(cfg.workload)
	var r runner
	var setups []float64
	warmup, window := setupWarmup, setupWindow
	if cfg.tiny {
		// The tests check what is printed, not how steady it is: one set-up.
		warmup, window = 0, 0
	}
	first := time.Now()
	for len(setups) == 0 || time.Since(first) < warmup+window {
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = wl.setup(cfg); err != nil {
			return nil, err
		}
		if start.Sub(first) >= warmup {
			setups = append(setups, time.Since(start).Seconds())
		}
	}
	rep := &childReport{}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	measure(cfg, r, t, rep)
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Detail["setup_s"] = summarize(setups)
	if t != nil {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		if err := t.writeTrace(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), cfg.workload); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measure runs passes until cfg.seconds have passed — untraced ones, and
// with a tracer each followed by a traced one — and reduces them to
// metrics, each a median over passes.
func measure(cfg config, r runner, t *tracer, rep *childReport) {
	var untraced, traced []passStats
	layer := map[string][]float64{} // per-layer values, one per pass
	var comparable, ratios []float64
	points := map[string][]float64{}
	start := time.Now()
	for k := 0; ; k++ {
		var before, after runtime.MemStats
		if t != nil {
			runtime.ReadMemStats(&before)
		}
		ps := r.pass(k)
		untraced = append(untraced, ps)
		if t != nil {
			runtime.ReadMemStats(&after)
			layer["go.alloc_mb"] = append(layer["go.alloc_mb"], float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			layer["go.gc_pause_ms"] = append(layer["go.gc_pause_ms"], float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)

			rp := newReplay(t)
			tps := r.replay(k, rp)
			traced = append(traced, tps)
			for name, v := range layerValues(rp, tps) {
				layer[name] = append(layer[name], v)
			}
			comparable = append(comparable, (tps.wall - tps.probe).Seconds())
			ratios = append(ratios, rp.l.pdesRatio...)
			for name, ms := range rp.l.pointRunMs {
				points[name] = append(points[name], ms)
			}
		}
		if time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}

	rep.Metrics, rep.Detail = map[string]metric{}, map[string]summary{}
	var walls, jobs, passJobs []float64
	for _, ps := range append(slices.Clone(untraced), traced...) {
		rep.Attempted += ps.attempted
		rep.Failed += ps.failed
		rep.Errors = append(rep.Errors, ps.errs...)
	}
	for _, ps := range untraced {
		walls = append(walls, ps.wall.Seconds())
		jobs = append(jobs, ps.jobsMs...)
		passJobs = append(passJobs, median(ps.jobsMs))
	}
	rep.Metrics["wall_s"] = metric{median(walls), "s"}
	rep.Detail["wall_s"] = summarize(walls)
	if len(jobs) > 0 {
		// A pass's median job, then the median over passes: a pass of the
		// tables has four jobs of very different lengths, and the median
		// of all jobs pooled would fall between two of them.
		rep.Metrics["job_ms_p50"] = metric{median(passJobs), "ms"}
		rep.Detail["job_ms"] = summarize(jobs)
		// The tail reported is the highest percentile with at least ten
		// jobs beyond it.
		for _, p := range []float64{99.9, 99, 90} {
			if float64(len(jobs))*(1-p/100) >= 10 {
				rep.Metrics["job_ms_p"+strconv.FormatFloat(p, 'g', -1, 64)] = metric{percentile(jobs, p), "ms"}
				break
			}
		}
		rep.Metrics["jobs"] = metric{float64(len(jobs)), "count"}
	}
	for name, m := range r.extras(untraced, traced) {
		rep.Metrics[name] = m
	}
	defer dropUnmeasured(rep.Metrics)
	if t == nil {
		return
	}
	for name, xs := range layer {
		rep.Metrics[name] = metric{median(xs), unitOf(name)}
	}
	var overhead []float64
	for _, c := range comparable {
		overhead = append(overhead, 100*(c/median(walls)-1))
	}
	rep.Metrics["trace.overhead_pct"] = metric{median(overhead), "%"}
	if len(ratios) > 0 {
		rep.Metrics["noc.pdes_speedup"] = metric{geomean(ratios), "x"}
		rep.Metrics["noc.pdes_points"] = metric{float64(len(ratios)), "count"}
	}
	rep.PointRunMs = points
}

// layerValues reduces one traced pass to its per-layer values: the self
// time of every span name, and the ledger's counters.
func layerValues(rp *replay, ps passStats) map[string]float64 {
	self := layerSelfMs(rp.spans())
	out := map[string]float64{}
	covered := 0.0
	for name, ms := range self {
		out[name+"_ms"] = ms
		covered += ms
	}
	l := rp.l
	out["core.compiles"] = float64(l.compiles)
	for p, ms := range l.passMs {
		out["core.pass."+p+"_ms"] = ms
	}
	out["exec.sim_refs"] = float64(l.simRefs)
	out["exec.epochs"] = float64(l.epochs)
	out["exec.ns_per_sim_ref"] = self["exec.run"] * 1e6 / float64(l.simRefs)
	out["exec.spec_rollbacks"] = float64(l.rollbacks)
	out["exec.rollback_ratio"] = float64(l.rollbacks) / float64(l.peEpochs)
	out["noc.messages"] = float64(l.nocMessages)
	out["noc.wait_cycles"] = float64(l.nocWait)
	out["trace.coverage_pct"] = 100 * covered / (float64(ps.wall) / 1e6)
	return out
}

// dropUnmeasured removes the metrics that had no samples to be computed
// from (NaN) or no base to divide by (±Inf).
func dropUnmeasured(ms map[string]metric) {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(ms, name)
		}
	}
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasPrefix(name, "exec.ns_per"):
		return "ns"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	}
	return "count"
}
