package main

import (
	"bytes"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sweepd"
	"repro/internal/workloads"
)

// Every mode starts from the sweep point the flags resolve to, so no mode
// may silently drop a machine flag.

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// The fault sweep's fault-free baseline runs on the -machine-profile
// machine: its CCDP cycles are the plain sweep's at the largest PE count.
func TestFaultSweepHonorsMachineProfile(t *testing.T) {
	out, err := runCLI(t, "-apps", "MXM", "-scale", "small", "-pes", "1,2",
		"-machine-profile", "cxl-pcc", "-faultsweep", "-fault-rates", "0.01", "-fault-trials", "1", "-jobs", "1")
	if err != nil {
		t.Fatal(err)
	}
	var got int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 4 && f[0] == "MXM" && f[1] == "0" {
			got, _ = strconv.ParseInt(f[4], 10, 64)
		}
	}
	cycles := func(profile string) int64 {
		ar, err := harness.RunApp(workloads.MXM(32, 16, 8), harness.Config{PECounts: []int{1, 2}, Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		return ar.Rows[len(ar.Rows)-1].CCDPCycles
	}
	want, t3d := cycles("cxl-pcc"), cycles("t3d")
	if want == t3d {
		t.Fatalf("cxl-pcc and t3d agree (%d cycles): the test cannot tell them apart", want)
	}
	if got != want {
		t.Errorf("faultsweep baseline CCDP cycles = %d, want the cxl-pcc sweep's %d (t3d: %d)\n%s", got, want, t3d, out)
	}
}

// -domain-size 1 collapses cxl-pcc to per-PE domains, which makes its
// arena identical to t3d's.
func TestArenaHonorsDomainSize(t *testing.T) {
	args := []string{"-arena", "-apps", "MXM", "-scale", "small", "-csv", "-jobs", "1"}
	t3d, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	cxl, err := runCLI(t, append(args, "-machine-profile", "cxl-pcc")...)
	if err != nil {
		t.Fatal(err)
	}
	if cxl == t3d {
		t.Fatal("the cxl-pcc arena equals t3d's: the test cannot tell them apart")
	}
	perPE, err := runCLI(t, append(args, "-machine-profile", "cxl-pcc", "-domain-size", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	if perPE != t3d {
		t.Errorf("cxl-pcc -domain-size 1 arena differs from t3d:\n--- t3d ---\n%s--- cxl-pcc, domain 1 ---\n%s", t3d, perPE)
	}
}

// In-process and served sweeps resolve their points through the same
// JobSpec.Resolve, so a bad flag fails both with the same message.
func TestInProcessRejectsLikeServer(t *testing.T) {
	srv := sweepd.NewServer(sweepd.Options{})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	args := []string{"-apps", "MXM", "-scale", "small", "-pes", "1", "-domain-size", "-1"}
	_, local := runCLI(t, args...)
	_, served := runCLI(t, append(args, "-server", hs.URL)...)
	if local == nil || served == nil {
		t.Fatalf("-domain-size -1 accepted: in-process err %v, served err %v", local, served)
	}
	if !strings.HasSuffix(served.Error(), local.Error()) {
		t.Errorf("in-process error %q is not the served error %q", local, served)
	}
}
