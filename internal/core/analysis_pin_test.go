package core

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/section"
	"repro/internal/stale"
	"repro/internal/workloads"
)

const analysisPinGolden = "testdata/analysis_pinned.golden"

// pinCase is one (program, machine) point of TestAnalysisPinned.
type pinCase struct {
	name string
	prog *ir.Program
	mp   machine.Params
}

func analysisPinCases() []pinCase {
	var cases []pinCase
	for _, spec := range workloads.Small() {
		for _, pes := range []int{1, 3, 8, 64} {
			cases = append(cases, pinCase{fmt.Sprintf("%s/t3d/p%d", spec.Name, pes), spec.Prog, machine.T3D(pes)})
			for _, d := range []int{2, 4} {
				if pes%d != 0 {
					continue
				}
				mp := machine.MustProfileParams("cxl-pcc", pes)
				mp.DomainSize = d
				cases = append(cases, pinCase{fmt.Sprintf("%s/cxl-pcc-d%d/p%d", spec.Name, d, pes), spec.Prog, mp})
			}
		}
	}
	widen := widenProgram()
	for _, pes := range []int{2, 4} {
		cases = append(cases, pinCase{fmt.Sprintf("widen/t3d/p%d", pes), widen, machine.T3D(pes)})
	}
	mp := machine.MustProfileParams("cxl-pcc", 4)
	mp.DomainSize = 2
	cases = append(cases, pinCase{"widen/cxl-pcc-d2/p4", widen, mp})
	for seed := int64(1); seed <= 64; seed++ {
		prog := progen.Generate(rand.New(rand.NewSource(seed)), progen.DefaultConfig())
		for _, pes := range []int{3, 8} {
			for _, profile := range []string{"t3d", "cxl-pcc"} {
				cases = append(cases, pinCase{fmt.Sprintf("progen-%d/%s/p%d", seed, profile, pes),
					prog, machine.MustProfileParams(profile, pes)})
			}
		}
	}
	return cases
}

// widenProgram exercises the analysis's approximate sections, which no
// workload or progen program reaches: a DOALL writes more scattered points
// of A than a section holds, so the writes widen to an approximate bounding
// box. Around the time loop's back edge that box reaches the serial epoch,
// whose exact whole-array write kills it to an approximate empty set — where
// the first pass, fed only by the prologue DOALL, killed an exact one.
func widenProgram() *ir.Program {
	b := ir.NewBuilder("widen")
	a := b.SharedArray("A", 256)
	c := b.SharedArray("B", 256)
	scattered := make([]ir.Stmt, 0, 2*section.MaxRects)
	for k := int64(0); k < int64(cap(scattered)); k++ {
		scattered = append(scattered, ir.Set(ir.At(a, ir.K(2*k)), ir.IV(ir.I("i"))))
	}
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(255), ir.Set(ir.At(a, ir.I("i")), ir.IV(ir.I("i")))),
		ir.DoSerial("t", ir.K(0), ir.K(3),
			ir.DoSerial("k", ir.K(0), ir.K(255), ir.Set(ir.At(a, ir.I("k")), ir.L(ir.At(c, ir.I("k"))))),
			ir.DoAll("j", ir.K(0), ir.K(255), ir.Set(ir.At(c, ir.I("j")), ir.L(ir.At(a, ir.I("j").Neg().AddConst(255))))),
			ir.DoAll("i", ir.K(0), ir.K(1), scattered...),
		),
	)
	return b.Build()
}

// renderAnalysis writes a canonical rendering of a stale analysis result:
// the three marked-reference maps with their witnesses in RefID order, then
// every per-(node, PE) region table in prog.Arrays order, each section as
// its approx bit plus its rectangles in stored order, ∅ when it has none.
func renderAnalysis(w io.Writer, prog *ir.Program, r *stale.Result) {
	marks := func(label string, set map[ir.RefID]bool, why map[ir.RefID]string) {
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		fmt.Fprintf(w, "%s %d\n", label, len(ids))
		for _, id := range ids {
			fmt.Fprintf(w, "  #%d %v %q\n", id, set[ir.RefID(id)], why[ir.RefID(id)])
		}
		fmt.Fprintf(w, "%s-why %d\n", label, len(why))
	}
	marks("stale", r.StaleReads, r.Why)
	marks("remote", r.RemoteReads, r.RemoteWhy)
	marks("demoted", r.DemotedIntra, r.DemotedWhy)

	table := func(label string, state [][][]section.Set) {
		if state == nil {
			fmt.Fprintf(w, "%s nil\n", label)
			return
		}
		fmt.Fprintf(w, "%s %d\n", label, len(state))
		for n := range state {
			for p := range state[n] {
				fmt.Fprintf(w, "  n%d p%d:", n, p)
				for a, arr := range prog.Arrays {
					s := state[n][p][a]
					fmt.Fprintf(w, " %s=", arr.Name)
					if s.Approx() {
						io.WriteString(w, "~")
					}
					if s.IsEmpty() {
						io.WriteString(w, "∅")
					}
					for _, rect := range s.Rects() {
						io.WriteString(w, rect.String())
					}
				}
				io.WriteString(w, "\n")
			}
		}
	}
	table("dirty", r.DirtyAtEntry)
	table("intra", r.IntraDirty)
	table("inv", r.Invalidate)
	table("hwinv", r.HWInvalidate)
}

// TestAnalysisPinned pins the stale analysis's complete output — marked
// references, witnesses, and every dirty and invalidation region with its
// approx bit — by sha256 over a canonical rendering, for the four small
// apps, 64 progen programs and widenProgram on per-PE and multi-PE
// coherence domains. A
// change to the analysis's representation must leave every digest as is.
// Regenerate with `go test ./internal/core -run TestAnalysisPinned -update`.
func TestAnalysisPinned(t *testing.T) {
	var got strings.Builder
	for _, pc := range analysisPinCases() {
		c, err := Compile(pc.prog, ModeCCDP, pc.mp)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		h := sha256.New()
		renderAnalysis(h, c.Prog, c.Stale)
		fmt.Fprintf(&got, "%s %x\n", pc.name, h.Sum(nil))
	}
	path := filepath.FromSlash(analysisPinGolden)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Errorf("%d cases, golden has %d", len(lines), len(want))
	}
	for _, line := range lines {
		name, digest, _ := strings.Cut(line, " ")
		if want[name] != digest {
			t.Errorf("%s: analysis digest %s, golden %s", name, digest, want[name])
		}
	}
}
