package shrink

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/ir"
)

// Reductions enumerates every single-step simplification of p as a fresh,
// finalized clone, in a fixed order chosen so the most aggressive
// reductions come first (greedy descent then converges in few steps):
//
//  1. delete one statement (any statement slot, loop bodies and if
//     branches included — deleting an epoch-level loop drops a whole
//     epoch);
//  2. unwrap one loop, splicing its body in its place (removes time-step
//     back edges; invalid when the body uses the loop variable, which
//     ir.Validate rejects);
//  3. drop all unreferenced arrays / all unreachable routines;
//  4. shrink one loop's trip count (to a single iteration, then by half);
//  5. halve one array extent;
//  6. shrink one subscript's constant offset (to zero, then by half).
//
// Candidates are not validated here; Minimize filters with ir.Validate.
func Reductions(p *ir.Program) []*ir.Program {
	var out []*ir.Program
	info := collectInfo(p)

	// 1. Statement deletions.
	for slot := 0; slot < len(info); slot++ {
		out = append(out, editStmts(p, slot, opDelete))
	}
	// 2. Loop unwraps; single-iteration loops also inline (substitute the
	// loop variable by the lower bound, so the body stays valid even when
	// it uses the variable).
	for slot, si := range info {
		if si.isLoop {
			out = append(out, editStmts(p, slot, opUnwrap))
		}
	}
	for slot, si := range info {
		if si.isLoop && si.singleIter {
			out = append(out, editStmts(p, slot, opInline))
		}
	}
	// 3. Dead declarations.
	if cand, ok := dropUnusedArrays(p); ok {
		out = append(out, cand)
	}
	if cand, ok := dropUnreachableRoutines(p); ok {
		out = append(out, cand)
	}
	// 4. Trip-count shrinks.
	for slot, si := range info {
		if si.isLoop && si.multiIter {
			out = append(out, editStmts(p, slot, opTripOne))
		}
	}
	for slot, si := range info {
		if si.isLoop && si.halvable {
			out = append(out, editStmts(p, slot, opTripHalf))
		}
	}
	// 5. Array extent halvings.
	for ai, a := range p.Arrays {
		for d, ext := range a.Dims {
			if ext >= 2 {
				out = append(out, halveExtent(p, ai, d))
			}
		}
	}
	// 6. Subscript constant-offset shrinks.
	for ri, r := range p.Refs() {
		for d, ix := range r.Index {
			c := ix.ConstPart()
			if c != 0 {
				out = append(out, shiftOffset(p, ri, d, -c))
			}
			if c > 1 || c < -1 {
				out = append(out, shiftOffset(p, ri, d, -(c-c/2)))
			}
		}
	}
	return out
}

type stmtOp int

const (
	opDelete stmtOp = iota
	opUnwrap
	opInline
	opTripOne
	opTripHalf
)

type slotInfo struct {
	isLoop     bool
	multiIter  bool // Hi differs from Lo: a single-iteration shrink applies
	singleIter bool // Hi equals Lo: inlining the body applies
	halvable   bool // constant bounds with at least 3 iterations' span
}

// routinesInOrder yields main first, then the rest sorted by name — the
// same deterministic order ir.Program.Finalize uses, so statement slots and
// reference indices line up with finalized RefIDs.
func routinesInOrder(p *ir.Program) []*ir.Routine {
	out := []*ir.Routine{}
	if m := p.MainRoutine(); m != nil {
		out = append(out, m)
	}
	names := make([]string, 0, len(p.Routines))
	for n := range p.Routines {
		if n != p.Main {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, p.Routines[n])
	}
	return out
}

// collectInfo numbers every statement slot in deterministic pre-order and
// records what reductions apply to it.
func collectInfo(p *ir.Program) []slotInfo {
	var info []slotInfo
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			si := slotInfo{}
			if l, ok := s.(*ir.Loop); ok {
				si.isLoop = true
				si.multiIter = !l.Hi.Equal(l.Lo)
				si.singleIter = l.Hi.Equal(l.Lo)
				if l.Lo.IsConst() && l.Hi.IsConst() {
					si.halvable = l.Hi.ConstPart()-l.Lo.ConstPart() >= 2
				}
			}
			info = append(info, si)
			switch t := s.(type) {
			case *ir.Loop:
				walk(t.Body)
			case *ir.If:
				walk(t.Then)
				walk(t.Else)
			}
		}
	}
	for _, rt := range routinesInOrder(p) {
		walk(rt.Body)
	}
	return info
}

// editStmts clones p and applies one statement-level reduction at the
// given pre-order slot.
func editStmts(p *ir.Program, target int, op stmtOp) *ir.Program {
	cp := ir.CloneProgram(p)
	slot := 0
	var edit func(body []ir.Stmt) []ir.Stmt
	edit = func(body []ir.Stmt) []ir.Stmt {
		out := make([]ir.Stmt, 0, len(body))
		for _, s := range body {
			mine := slot == target
			slot++
			if mine {
				l, isLoop := s.(*ir.Loop)
				switch op {
				case opDelete:
					continue
				case opUnwrap:
					if isLoop {
						out = append(out, l.Body...)
						continue
					}
				case opInline:
					if isLoop {
						substVar(l.Body, l.Var, l.Lo)
						out = append(out, l.Body...)
						continue
					}
				case opTripOne:
					if isLoop {
						l.Hi = l.Lo
					}
				case opTripHalf:
					if isLoop {
						span := l.Hi.ConstPart() - l.Lo.ConstPart()
						l.Hi = l.Lo.AddConst(span / 2)
					}
				}
			}
			switch t := s.(type) {
			case *ir.Loop:
				t.Body = edit(t.Body)
			case *ir.If:
				t.Then = edit(t.Then)
				t.Else = edit(t.Else)
			}
			out = append(out, s)
		}
		return out
	}
	for _, rt := range routinesInOrder(cp) {
		rt.Body = edit(rt.Body)
	}
	cp.Finalize()
	return cp
}

// substVar replaces every use of loop variable v with the affine a, in
// place (callers pass freshly cloned statements).
func substVar(body []ir.Stmt, v string, a expr.Affine) {
	for _, s := range body {
		switch t := s.(type) {
		case *ir.Loop:
			t.Lo = t.Lo.Subst(v, a)
			t.Hi = t.Hi.Subst(v, a)
			t.Step = t.Step.Subst(v, a)
			substVar(t.Body, v, a)
			substVar(t.Prologue, v, a)
			for i := range t.Pipelined {
				substRef(t.Pipelined[i].Target, v, a)
			}
		case *ir.Assign:
			substRef(t.LHS, v, a)
			t.RHS = substExpr(t.RHS, v, a)
		case *ir.If:
			t.Cond.L = substExpr(t.Cond.L, v, a)
			t.Cond.R = substExpr(t.Cond.R, v, a)
			substVar(t.Then, v, a)
			substVar(t.Else, v, a)
		case *ir.Prefetch:
			substRef(t.Target, v, a)
		case *ir.VectorPrefetch:
			t.Lo = t.Lo.Subst(v, a)
			t.Hi = t.Hi.Subst(v, a)
			t.Step = t.Step.Subst(v, a)
			substRef(t.Target, v, a)
		}
	}
}

func substRef(r *ir.Ref, v string, a expr.Affine) {
	for i := range r.Index {
		r.Index[i] = r.Index[i].Subst(v, a)
	}
}

func substExpr(e ir.Expr, v string, a expr.Affine) ir.Expr {
	switch x := e.(type) {
	case ir.IVal:
		return ir.IVal{A: x.A.Subst(v, a)}
	case ir.Load:
		substRef(x.Ref, v, a)
		return x
	case ir.Bin:
		x.L = substExpr(x.L, v, a)
		x.R = substExpr(x.R, v, a)
		return x
	case ir.Un:
		x.X = substExpr(x.X, v, a)
		return x
	default:
		return e
	}
}

// halveExtent clones p and halves dimension d of array ai.
func halveExtent(p *ir.Program, ai, d int) *ir.Program {
	cp := ir.CloneProgram(p)
	a := cp.Arrays[ai]
	dims := make([]int64, len(a.Dims))
	copy(dims, a.Dims)
	dims[d] /= 2
	a.Dims = dims
	cp.Finalize()
	return cp
}

// shiftOffset clones p and adds delta to the constant part of subscript d
// of the reference with finalized index ri.
func shiftOffset(p *ir.Program, ri, d int, delta int64) *ir.Program {
	cp := ir.CloneProgram(p)
	cp.Finalize()
	r := cp.Refs()[ri]
	r.Index[d] = r.Index[d].AddConst(delta)
	return cp
}

// dropUnusedArrays clones p without the arrays no reference names. The
// second result is false when every array is referenced.
func dropUnusedArrays(p *ir.Program) (*ir.Program, bool) {
	used := map[string]bool{}
	for _, rt := range p.Routines {
		ir.WalkRefs(rt.Body, func(r *ir.Ref, _ bool) {
			if r.Array != nil {
				used[r.Array.Name] = true
			}
		})
	}
	if len(used) == len(p.Arrays) {
		return nil, false
	}
	cp := ir.CloneProgram(p)
	kept := cp.Arrays[:0]
	for _, a := range cp.Arrays {
		if used[a.Name] {
			kept = append(kept, a)
		}
	}
	cp.Arrays = kept
	cp.Finalize()
	return cp, true
}

// dropUnreachableRoutines clones p without the routines the call graph
// cannot reach from main. The second result is false when all are live.
func dropUnreachableRoutines(p *ir.Program) (*ir.Program, bool) {
	live := map[string]bool{}
	var mark func(name string)
	mark = func(name string) {
		if live[name] {
			return
		}
		rt := p.Routine(name)
		if rt == nil {
			return
		}
		live[name] = true
		ir.WalkStmts(rt.Body, func(s ir.Stmt) bool {
			if c, ok := s.(*ir.Call); ok {
				mark(c.Name)
			}
			return true
		})
	}
	mark(p.Main)
	if len(live) == len(p.Routines) {
		return nil, false
	}
	cp := ir.CloneProgram(p)
	for name := range cp.Routines {
		if !live[name] {
			delete(cp.Routines, name)
		}
	}
	cp.Finalize()
	return cp, true
}
