// Package workloads defines the paper's four benchmark programs — MXM and
// VPENTA from SPEC CFP92 (NASA7 kernels) and TOMCATV and SWIM from SPEC
// CFP95 — as IR programs with the data distributions and loop schedules the
// paper's CRAFT versions use (§5.3): matrices block-distributed along their
// last (column) dimension, DOALL iterations block-scheduled to match.
//
// Each Spec carries the scaled paper configuration and a small test
// configuration; EXPERIMENTS.md records the scaling. MXM and VPENTA also
// carry hand-written Go golden implementations that mirror the IR statement
// order exactly, validating the execution engine's arithmetic end to end;
// TOMCATV and SWIM are validated by cross-mode equality (SEQ = BASE = CCDP
// bit for bit) plus the coherence checker.
package workloads

import (
	"strings"

	"repro/internal/ir"
)

// Spec describes one benchmark instance.
type Spec struct {
	Name string
	// Prog is the built, laid-out program.
	Prog *ir.Program
	// CheckArrays are the arrays whose final contents define correctness.
	CheckArrays []string
	// Golden, when non-nil, returns the expected contents of each check
	// array, computed by an independent plain-Go implementation.
	Golden func() map[string][]float64
	// Description for reports.
	Description string
}

// apps lists the applications in table order, each with its paper-scale
// and small builders; Paper, Small and Build all derive from it.
var apps = []struct {
	name         string
	paper, small func() *Spec
}{
	{"MXM", func() *Spec { return MXM(256, 128, 64) }, func() *Spec { return MXM(32, 16, 8) }},
	{"VPENTA", func() *Spec { return VPENTA(128, 4) }, func() *Spec { return VPENTA(32, 2) }},
	{"TOMCATV", func() *Spec { return TOMCATV(257, 5) }, func() *Spec { return TOMCATV(33, 2) }},
	{"SWIM", func() *Spec { return SWIM(513, 5) }, func() *Spec { return SWIM(33, 2) }},
}

// Paper returns the four applications at (scaled) paper sizes. The array
// shapes match the paper (MXM 256×128×64, VPENTA 128², TOMCATV 257²,
// SWIM 513²); iteration counts are scaled down from the paper's 100 to
// keep simulated runs tractable — speedups and improvement percentages are
// ratios, and per-iteration behaviour is identical from the second time
// step on (EXPERIMENTS.md quantifies this).
func Paper() []*Spec {
	out := make([]*Spec, len(apps))
	for i, a := range apps {
		out[i] = a.paper()
	}
	return out
}

// Small returns reduced instances for tests.
func Small() []*Spec {
	out := make([]*Spec, len(apps))
	for i, a := range apps {
		out[i] = a.small()
	}
	return out
}

// Names returns the application names in table order.
func Names() []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.name
	}
	return out
}

// Build builds one application by name (case-insensitive) at paper scale,
// or at the small test scale when small is set; nil for an unknown name.
// Only the named application is built.
func Build(name string, small bool) *Spec {
	for _, a := range apps {
		if strings.EqualFold(a.name, name) {
			if small {
				return a.small()
			}
			return a.paper()
		}
	}
	return nil
}
