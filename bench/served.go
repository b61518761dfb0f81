package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/driver"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/sweepd"
)

// servedRunner replays what the repository's client, `ccdpbench -server
// URL -scale small`, sends with its default flags: one request holding one
// job per application over the PE ladder, on a flat t3d machine. Each pass
// starts a server with the options cmd/sweepd ships, sends the sweep cold,
// then sends it again, as a user repeating the command would.
type servedRunner struct {
	cfg   config
	specs []sweepd.JobSpec
	pin   string
}

// newServed builds the request. The seed does not change it: like the
// tables, it is the paper's fixed experiment.
func newServed(cfg config) (runner, error) {
	pes := []int{1, 2, 4, 8, 16, 32, 64}
	if cfg.tiny {
		pes = []int{2, 4}
	}
	apps, err := driver.Apps("MXM,VPENTA,TOMCATV,SWIM", "small")
	if err != nil {
		return nil, err
	}
	s := &servedRunner{cfg: cfg, pin: pinnedCSV[pinKey(cfg, "served")]}
	for _, a := range apps {
		s.specs = append(s.specs, sweepd.JobSpec{App: a.Name, Scale: "small", PEs: pes,
			Profile: "t3d", Topology: "flat", PDES: "optimistic", FaultKinds: "all", FaultSeed: 1})
	}
	return s, nil
}

func (s *servedRunner) pass(int) passStats {
	ps, _ := s.serve(nil)
	return ps
}

// serve starts a fresh server, sends the sweep cold and then warm, and
// checks both answers. It returns the cold results for the traced replay.
func (s *servedRunner) serve(t *tracer) (passStats, []*harness.AppResult) {
	n := len(s.specs)
	ps := passStats{attempted: 2 * n}
	srv := sweepd.NewServer(sweepd.Options{})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	client := &sweepd.Client{Base: hs.URL, HTTP: hs.Client()}

	start := time.Now()
	cold, coldHits, err := s.sweep(client, t)
	coldDur := time.Since(start)
	if err != nil {
		ps.wall = coldDur
		ps.fail(ps.attempted, "cold sweep: %v", err)
		return ps, nil
	}
	warmStart := time.Now()
	warm, warmHits, err := s.sweep(client, t)
	ps.wall = time.Since(start)
	ps.sample("served.cold_s", coldDur.Seconds())
	ps.sample("served.warm_ms", float64(time.Since(warmStart))/1e6)
	if err != nil {
		ps.fail(ps.attempted, "warm sweep: %v", err)
		return ps, nil
	}

	if got := digest([]byte(report.CSV(cold)), false); got != s.pin {
		ps.fail(n, "report CSV digest %s, pinned %s", got, s.pin)
	}
	if coldHits != 0 || warmHits != n {
		ps.fail(n, "%d memo hits cold and %d warm, want 0 and %d", coldHits, warmHits, n)
	}
	if s.cfg.sabotage == "hit" {
		warm[0].SeqCycles++ // a memo hit that drifted from the first answer
	}
	for i := range cold {
		if err := sameResult(warm[i], cold[i]); err != nil {
			ps.fail(1, "%s: the warm answer differs from the cold one: %v", s.specs[i].App, err)
		}
	}

	st, err := client.Stats()
	if err != nil {
		ps.fail(n, "server statistics: %v", err)
		return ps, cold
	}
	ps.sample("sweepd.memo_hit_ratio", float64(st.Memo.Hits)/float64(st.Memo.Hits+st.Memo.Misses))
	ps.sample("sweepd.compile_hit_ratio", float64(st.Compile.Hits)/float64(st.Compile.Hits+st.Compile.Misses))
	ps.sample("sweepd.compile_lookups", float64(st.Compile.Hits+st.Compile.Misses))
	ps.sample("sweepd.jobs_run", float64(st.JobsRun))
	return ps, cold
}

// sweep sends the request through the repository's client under a span
// and returns the results and how many of them the memo served.
func (s *servedRunner) sweep(c *sweepd.Client, t *tracer) ([]*harness.AppResult, int, error) {
	tr := t.newTrace()
	root := t.begin("request", 0, tr)
	defer t.end(root)
	id := t.begin("sweepd.serve", root, tr)
	defer t.end(id)
	results, sum, err := c.Sweep(s.specs)
	return results, sum.MemoHits, err
}

// sameResult reports how got and want differ when they do not marshal to
// the same bytes.
func sameResult(got, want *harness.AppResult) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%d bytes, want %d other bytes", len(g), len(w))
	}
	return nil
}

// replay serves traced pass k, then replays each job through the layer
// calls — resolving its spec as the server's admission does — and requires
// the replayed result to marshal to the bytes of the served one. The
// replay is a probe: the untraced pass has no such step.
func (s *servedRunner) replay(_ int, rp *replay) passStats {
	ps, cold := s.serve(rp.t)
	if cold == nil {
		return ps
	}
	start := time.Now()
	for i, js := range s.specs {
		if err := s.replayJob(rp, &ps, js, cold[i]); err != nil {
			ps.fail(1, "replaying %s: %v", js.App, err)
		}
	}
	ps.probe = time.Since(start)
	ps.wall += ps.probe
	ps.attempted += len(s.specs)
	return ps
}

func (s *servedRunner) replayJob(rp *replay, ps *passStats, js sweepd.JobSpec, served *harness.AppResult) error {
	t := rp.t
	tr := t.newTrace()
	root := t.begin("request", 0, tr)
	defer t.end(root)
	id := t.begin("sweepd.resolve", root, tr)
	start := time.Now()
	_, err := js.Resolve()
	ps.sample("sweepd.resolve_us", float64(time.Since(start))/1e3)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("workloads.build", root, tr)
	spec, err := driver.App(js.App, js.Scale)
	t.end(id)
	if err != nil {
		return err
	}
	ar, err := rp.sweep(sweepSpec{spec: spec, profile: js.Profile, topology: js.Topology, pes: js.PEs}, root, tr)
	if err != nil {
		return err
	}
	if err := sameResult(ar, served); err != nil {
		return fmt.Errorf("the replayed result differs from the served one: %w", err)
	}
	return nil
}

func (s *servedRunner) extras(untraced, traced []passStats) map[string]metric {
	m := map[string]metric{
		"sweepd.resolve_us_p50": {percentile(samples(traced, "sweepd.resolve_us"), 50), "us"},
	}
	for name, unit := range map[string]string{
		"served.cold_s": "s", "served.warm_ms": "ms",
		"sweepd.memo_hit_ratio": "ratio", "sweepd.compile_hit_ratio": "ratio",
		"sweepd.compile_lookups": "count", "sweepd.jobs_run": "count",
	} {
		m[name] = metric{median(samples(untraced, name)), unit}
	}
	return m
}

// samples pools the named samples of every pass.
func samples(passes []passStats, name string) []float64 {
	var out []float64
	for _, ps := range passes {
		out = append(out, ps.samples[name]...)
	}
	return out
}
