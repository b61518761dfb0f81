package ir

import (
	"sort"

	"repro/internal/expr"
)

// SymTable interns the names a program's execution environment is keyed by:
// every PE-private scalar and every integer variable (loop induction
// variables, program params, vector-prefetch pull variables) gets a dense,
// deterministic index. The execution engine resolves names to slots ONCE at
// compile time and runs its hot path over plain slices — no string hashing
// per simulated memory access.
type SymTable struct {
	scalars   []string
	scalarIdx map[string]int
	vars      []string
	varIdx    map[string]int
}

// CollectSyms builds the symbol table of a finalized program. Index
// assignment is deterministic: names are collected in program order
// (routines main-first then sorted, pre-order within a routine, the same
// order Finalize assigns RefIDs) with params first among the variables.
func CollectSyms(p *Program) *SymTable {
	t := &SymTable{scalarIdx: map[string]int{}, varIdx: map[string]int{}}
	// Params first, sorted by name for determinism (Params is a map).
	params := make([]string, 0, len(p.Params))
	for k := range p.Params {
		params = append(params, k)
	}
	sort.Strings(params)
	for _, k := range params {
		t.internVar(k)
	}
	for _, rt := range p.routinesInOrder() {
		WalkStmts(rt.Body, func(s Stmt) bool {
			switch st := s.(type) {
			case *Loop:
				t.internVar(st.Var)
				t.internAffine(st.Lo)
				t.internAffine(st.Hi)
				t.internAffine(st.Step)
				for _, pr := range st.Prologue {
					if vp, ok := pr.(*VectorPrefetch); ok {
						t.internVectorPrefetch(vp)
					}
				}
			case *VectorPrefetch:
				t.internVectorPrefetch(st)
			}
			return true
		})
		WalkRefs(rt.Body, func(r *Ref, _ bool) {
			if r.IsScalar() {
				t.internScalar(r.Scalar)
				return
			}
			for _, ix := range r.Index {
				t.internAffine(ix)
			}
		})
	}
	return t
}

func (t *SymTable) internScalar(name string) int {
	if i, ok := t.scalarIdx[name]; ok {
		return i
	}
	i := len(t.scalars)
	t.scalars = append(t.scalars, name)
	t.scalarIdx[name] = i
	return i
}

func (t *SymTable) internVar(name string) int {
	if i, ok := t.varIdx[name]; ok {
		return i
	}
	i := len(t.vars)
	t.vars = append(t.vars, name)
	t.varIdx[name] = i
	return i
}

func (t *SymTable) internAffine(a expr.Affine) {
	for i := 0; i < a.NumTerms(); i++ {
		t.internVar(a.TermAt(i).Var)
	}
}

func (t *SymTable) internVectorPrefetch(vp *VectorPrefetch) {
	t.internVar(vp.LoopVar)
	t.internAffine(vp.Lo)
	t.internAffine(vp.Hi)
	t.internAffine(vp.Step)
	for _, ix := range vp.Target.Index {
		t.internAffine(ix)
	}
}

// NumScalars returns the number of interned scalar names.
func (t *SymTable) NumScalars() int { return len(t.scalars) }

// NumVars returns the number of interned integer-variable names.
func (t *SymTable) NumVars() int { return len(t.vars) }

// ScalarIndex returns the slot of a scalar name, or -1 if unknown.
func (t *SymTable) ScalarIndex(name string) int {
	if i, ok := t.scalarIdx[name]; ok {
		return i
	}
	return -1
}

// VarIndex returns the slot of a variable name, or -1 if unknown.
func (t *SymTable) VarIndex(name string) int {
	if i, ok := t.varIdx[name]; ok {
		return i
	}
	return -1
}
