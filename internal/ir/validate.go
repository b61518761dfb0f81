package ir

import (
	"fmt"

	"repro/internal/expr"
)

// Validate checks the static well-formedness rules the analyses and the
// execution engine rely on:
//
//   - the main routine exists, calls resolve, and the call graph is acyclic
//     (no recursion, as in the paper's Fortran codes);
//   - loop steps are positive constants; loop bounds and subscripts only
//     use in-scope induction variables and declared params;
//   - array reference ranks match declarations;
//   - shared distributed arrays are distributed along their last dimension
//     (so per-PE slabs are contiguous in the word address space);
//   - DOALL loops are not nested inside other DOALL loops (the epoch model
//     has one level of parallelism, paper §3.1), and parallel loops do not
//     appear under if-statements at epoch level.
func Validate(p *Program) error {
	if p.MainRoutine() == nil {
		return fmt.Errorf("main routine %q not defined", p.Main)
	}
	for _, a := range p.Arrays {
		if a.Shared && a.Dist == DistBlock && a.Rank() == 0 {
			return fmt.Errorf("array %s: distributed array needs at least one dimension", a.Name)
		}
		for d, ext := range a.Dims {
			if ext < 1 {
				return fmt.Errorf("array %s: dimension %d has non-positive extent %d", a.Name, d, ext)
			}
		}
	}
	// Call-graph acyclicity.
	state := map[string]int{} // 0 unvisited, 1 in-progress, 2 done
	var visitRoutine func(name string) error
	var scanCalls func(body []Stmt) error
	scanCalls = func(body []Stmt) error {
		for _, s := range body {
			switch st := s.(type) {
			case *Call:
				if err := visitRoutine(st.Name); err != nil {
					return err
				}
			case *Loop:
				if err := scanCalls(st.Body); err != nil {
					return err
				}
			case *If:
				if err := scanCalls(st.Then); err != nil {
					return err
				}
				if err := scanCalls(st.Else); err != nil {
					return err
				}
			}
		}
		return nil
	}
	visitRoutine = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("recursive call cycle through routine %q", name)
		case 2:
			return nil
		}
		rt := p.Routine(name)
		if rt == nil {
			return fmt.Errorf("call to undefined routine %q", name)
		}
		state[name] = 1
		if err := scanCalls(rt.Body); err != nil {
			return err
		}
		state[name] = 2
		return nil
	}
	if err := visitRoutine(p.Main); err != nil {
		return err
	}

	// Per-routine scoping and structure. A routine may be called from
	// inside a parallel loop only if it contains no parallel loops itself;
	// we validate each routine in isolation against both possibilities.
	for _, rt := range p.Routines {
		v := &validator{prog: p, scope: map[string]bool{}}
		if err := v.stmts(rt.Body, false); err != nil {
			return fmt.Errorf("routine %s: %w", rt.Name, err)
		}
	}
	return nil
}

type validator struct {
	prog  *Program
	scope map[string]bool // in-scope induction variables
}

func (v *validator) stmts(body []Stmt, inParallel bool) error {
	for _, s := range body {
		if err := v.stmt(s, inParallel); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) stmt(s Stmt, inParallel bool) error {
	switch st := s.(type) {
	case *Loop:
		if st.Parallel && inParallel {
			return fmt.Errorf("DOALL loop %q nested inside another DOALL", st.Var)
		}
		if !st.Step.IsConst() || st.Step.ConstPart() <= 0 {
			return fmt.Errorf("loop %q: step must be a positive constant, got %v", st.Var, st.Step)
		}
		if v.scope[st.Var] {
			return fmt.Errorf("loop variable %q shadows an enclosing loop variable", st.Var)
		}
		if err := v.affine(st.Lo); err != nil {
			return fmt.Errorf("loop %q lower bound: %w", st.Var, err)
		}
		if err := v.affine(st.Hi); err != nil {
			return fmt.Errorf("loop %q upper bound: %w", st.Var, err)
		}
		if len(st.Prologue) > 0 && !st.Parallel {
			return fmt.Errorf("loop %q: prologue on a non-parallel loop", st.Var)
		}
		err := v.stmts(st.Prologue, inParallel)
		v.scope[st.Var] = true
		if err == nil {
			err = v.stmts(st.Body, inParallel || st.Parallel)
		}
		for i := range st.Pipelined {
			if err == nil {
				err = v.ref(st.Pipelined[i].Target)
			}
		}
		delete(v.scope, st.Var)
		return err
	case *Assign:
		if err := v.ref(st.LHS); err != nil {
			return err
		}
		return v.expr(st.RHS)
	case *If:
		if err := v.expr(st.Cond.L); err != nil {
			return err
		}
		if err := v.expr(st.Cond.R); err != nil {
			return err
		}
		if !inParallel && (ContainsParallelLoop(v.prog, st.Then) || ContainsParallelLoop(v.prog, st.Else)) {
			return fmt.Errorf("parallel loop under an if-statement at epoch level is not supported")
		}
		if err := v.stmts(st.Then, inParallel); err != nil {
			return err
		}
		return v.stmts(st.Else, inParallel)
	case *Call:
		callee := v.prog.Routine(st.Name)
		if callee == nil {
			return fmt.Errorf("call to undefined routine %q", st.Name)
		}
		if inParallel && ContainsParallelLoop(v.prog, callee.Body) {
			return fmt.Errorf("routine %q with parallel loops called inside a DOALL", st.Name)
		}
		return nil
	case *Prefetch:
		return v.ref(st.Target)
	case *VectorPrefetch:
		if v.scope[st.LoopVar] {
			return fmt.Errorf("vector prefetch loop var %q shadows an enclosing variable", st.LoopVar)
		}
		if err := v.affine(st.Lo); err != nil {
			return err
		}
		if err := v.affine(st.Hi); err != nil {
			return err
		}
		v.scope[st.LoopVar] = true
		err := v.ref(st.Target)
		delete(v.scope, st.LoopVar)
		return err
	default:
		return fmt.Errorf("unknown statement type %T", s)
	}
}

func (v *validator) ref(r *Ref) error {
	if r == nil {
		return fmt.Errorf("nil reference")
	}
	if r.IsScalar() {
		if r.Scalar == "" {
			return fmt.Errorf("scalar reference with empty name")
		}
		return nil
	}
	if v.prog.ArrayByName(r.Array.Name) != r.Array {
		return fmt.Errorf("reference to undeclared array %q", r.Array.Name)
	}
	if len(r.Index) != r.Array.Rank() {
		return fmt.Errorf("%s: got %d subscripts, want %d", r, len(r.Index), r.Array.Rank())
	}
	for _, ix := range r.Index {
		if err := v.affine(ix); err != nil {
			return fmt.Errorf("%s: %w", r, err)
		}
	}
	return nil
}

func (v *validator) affine(a expr.Affine) error {
	for i := 0; i < a.NumTerms(); i++ {
		name := a.TermAt(i).Var
		if v.scope[name] {
			continue
		}
		if _, ok := v.prog.Params[name]; ok {
			continue
		}
		return fmt.Errorf("unbound variable %q (not a loop variable or param)", name)
	}
	return nil
}

func (v *validator) expr(e Expr) error {
	switch x := e.(type) {
	case Num:
		return nil
	case IVal:
		return v.affine(x.A)
	case Load:
		return v.ref(x.Ref)
	case Bin:
		if err := v.expr(x.L); err != nil {
			return err
		}
		return v.expr(x.R)
	case Un:
		return v.expr(x.X)
	default:
		return fmt.Errorf("unknown expression type %T", e)
	}
}
