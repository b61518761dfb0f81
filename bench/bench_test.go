package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets this test binary stand in for the benchmark's child
// processes, which the command starts by re-executing itself.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of ../BENCHMARK.json the tests check the
// command against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runOutput struct {
	code  int
	lines map[string]metric // "name workload value unit" lines, by name
	final finalLine
}

// runTiny runs the command on a tiny input and parses what it prints.
func runTiny(t *testing.T, workload string, extra ...string) runOutput {
	t.Helper()
	args := append([]string{"-workload", workload, "-size", "tiny", "-seconds", "0", "-out", t.TempDir()}, extra...)
	var buf bytes.Buffer
	out := runOutput{code: parentMain(args, &buf), lines: map[string]metric{}}
	text := strings.TrimSpace(buf.String())
	if text == "" {
		t.Fatalf("%s %v printed nothing (exit %d)", workload, extra, out.code)
	}
	rows := strings.Split(text, "\n")
	if err := json.Unmarshal([]byte(rows[len(rows)-1]), &out.final); err != nil {
		t.Fatalf("%s %v: last line is not the result object: %v", workload, extra, err)
	}
	for _, row := range rows[:len(rows)-1] {
		f := strings.Fields(row)
		if len(f) != 4 || f[1] != workload {
			t.Fatalf("%s: malformed metric line %q", workload, row)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("%s: metric line %q: %v", workload, row, err)
		}
		out.lines[f[0]] = metric{v, f[3]}
	}
	return out
}

func names(ms []declaredMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks the command against BENCHMARK.json: every declared metric is
// printed with its declared unit and is in the final object, outputs are
// correct, and the layers' self times fit in the traced wall time.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var wls []string
	for _, w := range bf.Workloads {
		wls = append(wls, w.Name)
	}
	var ours []string
	for _, w := range workloadSet {
		ours = append(ours, w.name)
	}
	if !slices.Equal(wls, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, command has %v", wls, ours)
	}
	if got := names(bf.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Fatalf("BENCHMARK.json end_to_end %v, command reports %v", got, endToEnd)
	}
	if got := names(bf.PerLayer); !slices.Equal(got, perLayer) {
		t.Fatalf("BENCHMARK.json per_layer %v, command reports %v", got, perLayer)
	}

	start := time.Now()
	for _, w := range wls {
		for trace, declared := range [][]declaredMetric{bf.EndToEnd, bf.PerLayer} {
			out := runTiny(t, w, "-trace", strconv.Itoa(trace))
			if out.code != 0 || !out.final.Correct || out.final.Failed != 0 || out.final.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, final %+v", w, trace, out.code, out.final)
			}
			if fr := out.lines["fail_ratio"]; fr.Value != 0 || fr.Unit != "ratio" {
				t.Errorf("%s trace=%d: fail_ratio %+v", w, trace, fr)
			}
			if len(out.final.Metrics) != len(declared) {
				t.Errorf("%s trace=%d: final object has %d metrics, BENCHMARK.json declares %d",
					w, trace, len(out.final.Metrics), len(declared))
			}
			for _, d := range declared {
				line, printed := out.lines[d.Name]
				final, inFinal := out.final.Metrics[d.Name]
				if !printed || line.Unit != d.Unit || !inFinal || final.Unit != d.Unit {
					t.Errorf("%s trace=%d: %s printed=%v (%+v), final=%v (%+v), want unit %s",
						w, trace, d.Name, printed, line, inFinal, final, d.Unit)
				}
			}
			if trace == 1 {
				// Self times are disjoint pieces of the traced wall time;
				// more than all of it means a span was counted twice.
				if cov := out.lines["trace.coverage_pct"].Value; cov <= 0 || cov > 100 {
					t.Errorf("%s: layer self times cover %.2f%% of the traced wall time", w, cov)
				}
			}
		}
	}
	t.Logf("all workloads, untraced and traced, in %v", time.Since(start))
}

// TestOutputGate corrupts one output of each kind and requires the
// command to count failures and exit non-zero.
func TestOutputGate(t *testing.T) {
	for _, tc := range []struct{ workload, sabotage string }{
		{"tables-flat", "csv"},
		{"served-mixed", "hit"},
		{"fuzz-campaign", "mutation"},
	} {
		out := runTiny(t, tc.workload, "-sabotage", tc.sabotage)
		if out.code == 0 {
			t.Errorf("%s with %s sabotage exited 0", tc.workload, tc.sabotage)
		}
		if fr := out.lines["fail_ratio"].Value; fr <= 0 || out.final.Correct || out.final.Failed == 0 {
			t.Errorf("%s with %s sabotage: fail_ratio %v, final %+v", tc.workload, tc.sabotage, fr, out.final)
		}
	}
}
