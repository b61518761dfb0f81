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

// refSites collects every array reference site of a compiled program:
// assignment targets, loads, single-word and pipelined prefetch targets,
// vector prefetch targets, and the sites of every called routine.
func refSites(cp *cProgram) []*cRef {
	var out []*cRef
	seen := map[*[]cStmt]bool{}
	add := func(r *cRef) {
		if !r.isScalar() {
			out = append(out, r)
		}
	}
	expr := func(e cExpr) {
		for i := range e {
			if e[i].ref != nil {
				add(e[i].ref)
			}
		}
	}
	var stmts func(ss []cStmt)
	stmts = func(ss []cStmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *cLoop:
				stmts(st.prologue)
				stmts(st.body)
				for _, pp := range st.pipelined {
					add(pp.target)
				}
			case *cAssign:
				add(st.lhs)
				expr(st.rhs)
			case *cIf:
				expr(st.l)
				expr(st.r)
				stmts(st.then)
				stmts(st.els)
			case *cCall:
				if st.body != nil && !seen[st.body] {
					seen[st.body] = true
					stmts(*st.body)
				}
			case *cPrefetch:
				add(st.target)
			case *cVP:
				add(st.target)
			}
		}
	}
	for _, n := range cp.nodes {
		if n.loop != nil {
			stmts([]cStmt{n.loop})
		}
		stmts(n.stmts)
	}
	return out
}

// TestOwnerRefMatchesMemory checks the home PE the interpreter derives from
// a reference site's precomputed divisor against mem.OwnerOf. addrOf only
// returns the site array's base plus an in-bounds offset, so checking every
// word of the array covers every address any run can resolve at the site.
// Each application first runs once on the engine whose sites are checked;
// PE counts include ones that divide no extent.
func TestOwnerRefMatchesMemory(t *testing.T) {
	for _, spec := range workloads.Small() {
		for _, numPE := range []int{3, 8} {
			c, err := core.Compile(spec.Prog, core.ModeCCDP, machine.T3D(numPE))
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(Options{FailOnStale: true}); err != nil {
				t.Fatal(err)
			}
			sites := refSites(e.cp)
			if len(sites) == 0 {
				t.Fatalf("%s: no reference sites", spec.Name)
			}
			for _, r := range sites {
				for addr := r.base; addr < r.base+r.arr.Size(); addr++ {
					if got, want := ownerRef(r, addr), e.mem.OwnerOf(addr); got != want {
						t.Fatalf("%s P=%d %s addr %d: ownerRef %d, mem.OwnerOf %d",
							spec.Name, numPE, r.src, addr, got, want)
					}
				}
			}
		}
	}
}

// TestAddrOfPanicPrecedence pins addrOf's documented diagnostics order:
// every subscript is evaluated before any bound is checked (an unbound
// variable in a later dimension beats an out-of-range earlier one), and
// bounds are checked in dimension order.
func TestAddrOfPanicPrecedence(t *testing.T) {
	arr := &ir.Array{Name: "A", Dims: []int64{4, 4}}
	// Slot 0 ("i") is bound to 9, past both extents; slot 1 ("j") is unbound.
	pe := &peState{env: []int64{9, 0}, bound: []bool{true, false}}
	sub := func(k int64, slots ...int32) cdim {
		a := caff{k: k}
		for _, s := range slots {
			a.terms = append(a.terms, cterm{slot: s, coef: 1, name: []string{"i", "j"}[s]})
		}
		return cdim{idx: a}
	}
	for _, tc := range []struct {
		name string
		dims []cdim
		want string
	}{
		{"first out-of-range dimension wins", []cdim{sub(0, 0), sub(0, 0)}, "A subscript 0 out of range: 9"},
		{"later dimension checked after earlier in range", []cdim{sub(1), sub(0, 0)}, "A subscript 1 out of range: 9"},
		{"unbound variable beats any bound", []cdim{sub(0, 0), sub(0, 1)}, `unbound variable "j"`},
		{"negative subscript", []cdim{sub(-1), sub(0)}, "A subscript 0 out of range: -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := range tc.dims {
				tc.dims[i].extent = arr.Dims[i]
			}
			r := &cRef{arr: arr, scalar: -1, dims: tc.dims}
			defer func() {
				got := fmt.Sprint(recover())
				if !strings.Contains(got, tc.want) {
					t.Errorf("panic %q, want it to name %q", got, tc.want)
				}
			}()
			pe.addrOf(r)
		})
	}
}
