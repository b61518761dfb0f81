package main

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sweepd"
	"repro/internal/workloads"
)

// The worker pool must never change what the drivers print: every sweep
// emits rows in point order regardless of completion order, so -jobs 1 and
// -jobs 8 produce byte-identical output.

func TestSweepTableByteIdenticalAcrossJobs(t *testing.T) {
	app := workloads.MXM(24, 12, 8)
	points := []sweepPoint{
		{label: "remote=20", tune: func(mp *machine.Params) { mp.RemoteReadCost = 20 }},
		{label: "remote=61", tune: func(mp *machine.Params) { mp.RemoteReadCost = 61 }},
		{label: "remote=122", tune: func(mp *machine.Params) { mp.RemoteReadCost = 122 }},
		{label: "remote=244", tune: func(mp *machine.Params) { mp.RemoteReadCost = 244 }},
	}
	base := harness.Config{PECounts: []int{1, 2, 4}}

	render := func(jobs int) string {
		var buf bytes.Buffer
		if err := sweepTable(&buf, app, base, points, jobs); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return buf.String()
	}
	ref := render(1)
	if got := render(8); got != ref {
		t.Errorf("sweepTable output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", ref, got)
	}
}

func TestFaultSweepByteIdenticalAcrossJobs(t *testing.T) {
	cfg := harness.Config{PECounts: []int{1, 4}}
	apps := []*sweepd.Job{
		{Spec: workloads.MXM(24, 12, 8), Cfg: cfg},
		{Spec: workloads.VPENTA(16, 6), Cfg: cfg},
	}

	render := func(jobs int) string {
		var buf bytes.Buffer
		err := runFaultSweep(&buf, apps, "drop,late", "0.01,0.05", 2, 1, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return buf.String()
	}
	ref := render(1)
	if got := render(8); got != ref {
		t.Errorf("runFaultSweep output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s", ref, got)
	}
}
