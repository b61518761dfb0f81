package driver

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/noc"
)

func TestParseModeValid(t *testing.T) {
	cases := map[string]core.Mode{
		"seq": core.ModeSeq, "base": core.ModeBase, "ccdp": core.ModeCCDP,
		"incoherent": core.ModeIncoherent,
		"CCDP":       core.ModeCCDP, " Base ": core.ModeBase,
	}
	for in, want := range cases {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestParseModeUnknownListsValidModes(t *testing.T) {
	_, err := ParseMode("turbo")
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, want := range []string{"turbo", "seq", "base", "ccdp", "incoherent"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestAppLookup(t *testing.T) {
	s, err := App("mxm", "small")
	if err != nil || s.Name != "MXM" {
		t.Fatalf("App(mxm) = %v, %v", s, err)
	}
	if _, err := App("MXM", "tiny"); err == nil || !strings.Contains(err.Error(), "small, paper") {
		t.Errorf("bad scale error = %v", err)
	}
	_, err = App("FFT", "small")
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, want := range []string{"FFT", "MXM", "VPENTA", "TOMCATV", "SWIM"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestAppsList(t *testing.T) {
	specs, err := Apps("MXM, swim", "small")
	if err != nil || len(specs) != 2 || specs[0].Name != "MXM" || specs[1].Name != "SWIM" {
		t.Fatalf("Apps = %v, %v", specs, err)
	}
	if _, err := Apps("MXM,NOPE", "small"); err == nil {
		t.Error("unknown app in list accepted")
	}
}

func TestParsePEs(t *testing.T) {
	got, err := ParsePEs("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("ParsePEs = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "x", "4,,8"} {
		if _, err := ParsePEs(bad); err == nil {
			t.Errorf("ParsePEs(%q) accepted", bad)
		}
	}
}

func TestFaultFlagsPlan(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	ff := RegisterFault(fs)
	if err := fs.Parse([]string{"-fault-rate", "0.5", "-fault-kinds", "drop,late", "-fault-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	plan, err := ff.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Enabled() || plan.Rate != 0.5 || plan.Seed != 7 {
		t.Errorf("plan = %+v", plan)
	}
	if len(plan.Kinds) != 2 || plan.Kinds[0] != fault.KindDrop || plan.Kinds[1] != fault.KindLate {
		t.Errorf("kinds = %v", plan.Kinds)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	ff = RegisterFault(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	plan, err = ff.Plan()
	if err != nil || plan.Enabled() {
		t.Errorf("default plan = %+v, %v; want disabled", plan, err)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	ff = RegisterFault(fs)
	if err := fs.Parse([]string{"-fault-rate", "0.1", "-fault-kinds", "gremlins"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Plan(); err == nil {
		t.Error("unknown fault kind accepted")
	}
}

func TestMachineFlagsParams(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	mf := RegisterMachine(fs, 8)
	if err := fs.Parse([]string{"-pes", "16", "-topology", "torus"}); err != nil {
		t.Fatal(err)
	}
	mp, err := mf.Params()
	if err != nil {
		t.Fatal(err)
	}
	if mp.NumPE != 16 || mp.Topology.Kind != noc.KindTorus {
		t.Errorf("params = NumPE %d, topology %+v", mp.NumPE, mp.Topology)
	}
	if err := mp.Validate(); err != nil {
		t.Errorf("params invalid: %v", err)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	mf = RegisterMachine(fs, 8)
	if err := fs.Parse([]string{"-topology", "2x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := mf.Params(); err == nil {
		t.Error("bad topology accepted")
	}
}

func TestFatalExitsNonZero(t *testing.T) {
	old := osExit
	defer func() { osExit = old }()
	code := -1
	osExit = func(c int) { code = c }
	Fatal("tool", errors.New("boom"))
	if code != 1 {
		t.Errorf("exit code = %d", code)
	}
}

// The sweep service resolves job specs through the flag-free cores below;
// every malformed value must come back as an error return (the service's
// HTTP 400), never an exit or panic.
func TestSweepConfigErrorReturns(t *testing.T) {
	cfg, err := SweepConfig("cxl-pcc", 2, "torus", "optimistic", 0.25, "drop,late", 9)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Profile != "cxl-pcc" || cfg.DomainSize != 2 ||
		cfg.Topology.Kind != noc.KindTorus {
		t.Errorf("cfg = %+v", cfg)
	}
	if !cfg.Fault.Enabled() || cfg.Fault.Seed != 9 || len(cfg.Fault.Kinds) != 2 {
		t.Errorf("fault plan = %+v", cfg.Fault)
	}

	// The zero-value spec is the default machine: t3d, flat, fault-free.
	cfg, err = SweepConfig("", 0, "", "", 0, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.Kind != noc.KindFlat || cfg.Fault.Enabled() {
		t.Errorf("default cfg = %+v", cfg)
	}

	bad := []struct {
		name       string
		profile    string
		domain     int
		topo, pdes string
		rate       float64
		kinds      string
		wantInMsg  string
	}{
		{"unknown profile", "t4e", 0, "", "", 0, "", "valid profiles"},
		{"bad topology", "", 0, "5x", "", 0, "", "topology"},
		{"unknown pdes", "", 0, "", "warp", 0, "", "pdes"},
		{"removed pdes conservative", "", 0, "", "conservative", 0, "", "removed"},
		{"removed pdes adaptive", "", 0, "", "adaptive", 0, "", "removed"},
		{"negative domain", "", -2, "", "", 0, "", "domain"},
		{"bad fault kind", "", 0, "", "", 0.1, "gremlins", "unknown kind"},
		{"rate out of range", "", 0, "", "", 1.5, "all", "rate"},
	}
	for _, tc := range bad {
		_, err := SweepConfig(tc.profile, tc.domain, tc.topo, tc.pdes, tc.rate, tc.kinds, 1)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantInMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantInMsg)
		}
	}
}

func TestMachineErrorReturns(t *testing.T) {
	mp, err := Machine("pim", 8, 0, "2x2x2", "optimistic")
	if err != nil {
		t.Fatal(err)
	}
	if mp.NumPE != 8 || mp.Profile != "pim" || mp.Topology.X != 2 {
		t.Errorf("params = %+v", mp)
	}
	for _, tc := range []struct{ profile, topo, pdes string }{
		{"warpdrive", "", ""},
		{"", "hypercube", ""},
		{"", "", "psychic"},
		{"", "", "conservative"},
		{"", "", "adaptive"},
	} {
		if _, err := Machine(tc.profile, 8, 0, tc.topo, tc.pdes); err == nil {
			t.Errorf("Machine(%q,%q,%q) accepted", tc.profile, tc.topo, tc.pdes)
		}
	}
}

// BenchmarkBuildApps builds the four small applications the way every
// ccdpbench and t3dsim start, and every sweep point's resolution, does.
// Its allocs/op is gated in CI: validating each program's affines used to
// copy every subscript's variable list.
func BenchmarkBuildApps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Apps("MXM,VPENTA,TOMCATV,SWIM", "small"); err != nil {
			b.Fatal(err)
		}
	}
}
