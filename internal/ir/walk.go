package ir

// WalkRefs visits every reference in the statement list in pre-order,
// reporting whether each is a write (assignment LHS). Prefetch targets are
// visited as reads. Expression operands are visited left to right.
func WalkRefs(body []Stmt, visit func(r *Ref, isWrite bool)) {
	for _, s := range body {
		walkStmtRefs(s, visit)
	}
}

func walkStmtRefs(s Stmt, visit func(*Ref, bool)) {
	switch st := s.(type) {
	case *Loop:
		WalkRefs(st.Prologue, visit)
		for i := range st.Pipelined {
			visit(st.Pipelined[i].Target, false)
		}
		WalkRefs(st.Body, visit)
	case *Assign:
		walkExprRefs(st.RHS, visit)
		visit(st.LHS, true)
	case *If:
		walkExprRefs(st.Cond.L, visit)
		walkExprRefs(st.Cond.R, visit)
		WalkRefs(st.Then, visit)
		WalkRefs(st.Else, visit)
	case *Call:
		// Callee refs are visited when its routine is walked.
	case *Prefetch:
		visit(st.Target, false)
	case *VectorPrefetch:
		visit(st.Target, false)
	}
}

func walkExprRefs(e Expr, visit func(*Ref, bool)) {
	switch x := e.(type) {
	case Num, IVal:
	case Load:
		visit(x.Ref, false)
	case Bin:
		walkExprRefs(x.L, visit)
		walkExprRefs(x.R, visit)
	case Un:
		walkExprRefs(x.X, visit)
	}
}

// WalkStmts visits every statement in the list in pre-order, descending
// into loop and if bodies. Returning false from visit prunes the subtree.
func WalkStmts(body []Stmt, visit func(s Stmt) bool) {
	for _, s := range body {
		if !visit(s) {
			continue
		}
		switch st := s.(type) {
		case *Loop:
			WalkStmts(st.Body, visit)
		case *If:
			WalkStmts(st.Then, visit)
			WalkStmts(st.Else, visit)
		}
	}
}

// ContainsParallelLoop reports whether any statement in body (recursively,
// following calls through prog) is a DOALL loop.
func ContainsParallelLoop(prog *Program, body []Stmt) bool {
	found := false
	var scan func(ss []Stmt)
	scan = func(ss []Stmt) {
		for _, s := range ss {
			if found {
				return
			}
			switch st := s.(type) {
			case *Loop:
				if st.Parallel {
					found = true
					return
				}
				scan(st.Body)
			case *If:
				scan(st.Then)
				scan(st.Else)
			case *Call:
				if rt := prog.Routine(st.Name); rt != nil {
					scan(rt.Body)
				}
			}
		}
	}
	scan(body)
	return found
}

// LoopIsInner reports whether l contains no nested loops, following calls
// through prog: a loop that calls a routine containing loops is not inner.
func LoopIsInner(prog *Program, l *Loop) bool {
	inner := true
	var scan func(ss []Stmt)
	scan = func(ss []Stmt) {
		for _, s := range ss {
			if !inner {
				return
			}
			switch st := s.(type) {
			case *Loop:
				inner = false
			case *If:
				scan(st.Then)
				scan(st.Else)
			case *Call:
				if rt := prog.Routine(st.Name); rt != nil {
					scan(rt.Body)
				}
			}
		}
	}
	scan(l.Body)
	return inner
}

// LoopContainsCall reports whether the loop body contains a Call statement
// (software pipelining is not applied to such loops, paper §4.3.2).
func LoopContainsCall(l *Loop) bool {
	found := false
	WalkStmts(l.Body, func(s Stmt) bool {
		if _, ok := s.(*Call); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// IsInnerLoop reports whether l contains no nested loops (directly or in
// if bodies), not following calls.
func IsInnerLoop(l *Loop) bool {
	inner := true
	WalkStmts(l.Body, func(s Stmt) bool {
		if _, ok := s.(*Loop); ok {
			inner = false
			return false
		}
		return true
	})
	return inner
}

// LoopContainsIf reports whether the loop body contains an if-statement
// (paper Fig. 2 case 5), not following calls.
func LoopContainsIf(l *Loop) bool {
	found := false
	WalkStmts(l.Body, func(s Stmt) bool {
		if _, ok := s.(*If); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
