package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The range proof (cLoop.cover, peState.prove) lets a site skip its bound
// and range checks for a whole loop entry. These tests pin the cases that
// must keep the checked path, through Engine.Run, and the proof's coverage
// on the paper's applications.

// runProg compiles prog and runs it on a fresh engine, returning the
// engine for inspection with the run's result and error.
func runProg(t *testing.T, prog *ir.Program, mode core.Mode, numPE int) (*Engine, *Result, error) {
	t.Helper()
	c, err := core.Compile(prog, mode, machine.T3D(numPE))
	if err != nil {
		t.Fatalf("%v compile: %v", mode, err)
	}
	e, err := New(c)
	if err != nil {
		t.Fatalf("%v New: %v", mode, err)
	}
	res, err := e.Run(Options{FailOnStale: true})
	return e, res, err
}

// TestGuardedOutOfRangeSiteRuns: a site that is out of range for part of
// its loop's range, but guarded by an if that never executes it there,
// must not panic, and must compute what the guard lets it compute. Its
// loop's entries cannot prove it, so it keeps the checked path.
func TestGuardedOutOfRangeSiteRuns(t *testing.T) {
	const n = 8
	b := ir.NewBuilder("guarded")
	a := b.SharedArray("A", n)
	out := b.SharedArray("B", n)
	i, j := ir.I("i"), ir.I("j")
	b.Routine("main",
		ir.DoAll("i", ir.K(0), ir.K(n-1), ir.Set(ir.At(a, i), ir.Mul(ir.IV(i), ir.N(3)))),
		// j runs two past the extent; the guard stops both sites there.
		ir.DoAll("j", ir.K(0), ir.K(n+1),
			ir.When(ir.CondOf(ir.CmpLT, ir.IV(j), ir.N(n)),
				[]ir.Stmt{ir.Set(ir.At(out, j), ir.Add(ir.L(ir.At(a, j)), ir.N(1)))}, nil)),
	)
	prog := b.Build()
	for _, mode := range []core.Mode{core.ModeSeq, core.ModeBase, core.ModeCCDP} {
		for _, pes := range []int{1, 3, 4} {
			if mode == core.ModeSeq && pes > 1 {
				continue
			}
			t.Run(fmt.Sprintf("%v/%dPE", mode, pes), func(t *testing.T) {
				_, res, err := runProg(t, prog, mode, pes)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				got := res.Mem.ArrayData(prog.ArrayByName("B"))
				for k := range got {
					if want := float64(3*k + 1); got[k] != want {
						t.Fatalf("B(%d) = %v, want %v", k, got[k], want)
					}
				}
			})
		}
	}
}

// TestOutOfRangeIterationPanicsAsChecked: a site that goes out of range on
// an iteration that executes must fail the run with the checked path's
// diagnostic, naming the same array, dimension and subscript value.
func TestOutOfRangeIterationPanicsAsChecked(t *testing.T) {
	b := ir.NewBuilder("overrun")
	c := b.SharedArray("C", 4, 8)
	i := ir.I("i")
	b.Routine("main",
		// Dimension 1 has extent 8; i reaches 9.
		ir.DoSerial("i", ir.K(0), ir.K(9), ir.Set(ir.At(c, ir.K(1), i), ir.IV(i))),
	)
	prog := b.Build()
	for _, mode := range []core.Mode{core.ModeSeq, core.ModeBase, core.ModeCCDP} {
		t.Run(mode.String(), func(t *testing.T) {
			_, _, err := runProg(t, prog, mode, 1)
			want := "mem: C subscript 1 out of range: 8 (extent 8)"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("run error %v, want it to contain %q", err, want)
			}
		})
	}
}

// TestNestedLoopVariableUnboundAfterExit: a loop whose variable is bound
// when its enclosing loop is entered (here a program parameter of the
// same name) unbinds it on exit, so a later read in the enclosing body
// must still panic as unbound. The enclosing entry's proof cannot rely on
// that slot.
func TestNestedLoopVariableUnboundAfterExit(t *testing.T) {
	b := ir.NewBuilder("unbound")
	a := b.SharedArray("A", 8)
	b.Param("k", 2)
	i, k := ir.I("i"), ir.I("k")
	b.Routine("main",
		ir.DoSerial("i", ir.K(0), ir.K(3),
			ir.DoSerial("k", ir.K(0), ir.K(1), ir.Set(ir.At(a, k), ir.N(1))),
			ir.Set(ir.At(a, i.Add(k)), ir.N(2)),
		),
	)
	prog := b.Build()
	_, _, err := runProg(t, prog, core.ModeSeq, 1)
	if want := `unbound variable "k"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("run error %v, want it to contain %q", err, want)
	}
}

// directSites lists the array sites directly in l's body (if branches
// included, nested loops not) and its pipelined prefetch targets: the
// sites an entry of l proves.
func directSites(l *cLoop) []*cRef {
	var out []*cRef
	add := func(r *cRef) {
		if !r.isScalar() {
			out = append(out, r)
		}
	}
	loads := func(e cExpr) {
		for i := range e {
			if e[i].ref != nil {
				add(e[i].ref)
			}
		}
	}
	var walk func(ss []cStmt)
	walk = func(ss []cStmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *cAssign:
				add(st.lhs)
				loads(st.rhs)
			case *cIf:
				loads(st.l)
				loads(st.r)
				walk(st.then)
				walk(st.els)
			case *cPrefetch:
				add(st.target)
			}
		}
	}
	walk(l.body)
	for _, pp := range l.pipelined {
		add(pp.target)
	}
	return out
}

// forEachLoop calls f on every loop of the compiled program.
func forEachLoop(cp *cProgram, f func(*cLoop)) {
	var walk func(ss []cStmt)
	walk = func(ss []cStmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *cLoop:
				f(st)
				walk(st.prologue)
				walk(st.body)
			case *cIf:
				walk(st.then)
				walk(st.els)
			}
		}
	}
	for _, n := range cp.nodes {
		if n.loop != nil {
			walk([]cStmt{n.loop})
		}
		walk(n.stmts)
	}
}

// TestRangeProofCoversApplications is the proof's coverage floor: after a
// run of SWIM, TOMCATV and MXM, every site directly in a loop body was
// proven at that loop's last entry, in every software mode. A rule change
// that quietly sends sites back to the checked path fails here.
func TestRangeProofCoversApplications(t *testing.T) {
	for _, spec := range workloads.Small() {
		if spec.Name == "VPENTA" {
			continue
		}
		for _, tc := range []struct {
			mode core.Mode
			pes  int
		}{{core.ModeSeq, 1}, {core.ModeBase, 8}, {core.ModeCCDP, 8}} {
			t.Run(fmt.Sprintf("%s/%v", spec.Name, tc.mode), func(t *testing.T) {
				e, _, err := runProg(t, spec.Prog, tc.mode, tc.pes)
				if err != nil {
					t.Fatal(err)
				}
				var loops, sites int
				forEachLoop(e.cp, func(l *cLoop) {
					loops++
					for _, r := range directSites(l) {
						sites++
						if !r.proven {
							t.Errorf("loop %q: site %s not proven at its last entry", l.src.Var, r.src)
						}
					}
				})
				if loops == 0 || sites == 0 {
					t.Fatalf("%d loops, %d sites: nothing to check", loops, sites)
				}
			})
		}
	}
}
