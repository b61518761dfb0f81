package ir

import (
	"fmt"
	"strings"
)

// Format renders a program in a Fortran-flavoured pseudo-syntax for
// diagnostics and the ccdpc driver. It is stable (deterministic) so tests
// can compare output.
func Format(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	params := make([]string, 0, len(p.Params))
	for k := range p.Params {
		params = append(params, k)
	}
	sortStrings(params)
	for _, k := range params {
		fmt.Fprintf(&b, "  param %s = %d\n", k, p.Params[k])
	}
	for _, a := range p.Arrays {
		dims := make([]string, len(a.Dims))
		for i, d := range a.Dims {
			dims[i] = fmt.Sprintf("%d", d)
		}
		attr := "private"
		if a.Shared {
			attr = fmt.Sprintf("shared, dist=%s", a.Dist)
		}
		fmt.Fprintf(&b, "  real %s(%s)  ! %s\n", a.Name, strings.Join(dims, ","), attr)
	}
	for _, rt := range p.routinesInOrder() {
		fmt.Fprintf(&b, "routine %s\n", rt.Name)
		formatStmts(&b, rt.Body, 1)
		b.WriteString("end\n")
	}
	return b.String()
}

func formatStmts(b *strings.Builder, body []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range body {
		switch st := s.(type) {
		case *Loop:
			kw := "do"
			if st.Parallel {
				kw = "doall[" + st.Sched.String() + "]"
			}
			bk := ""
			if !st.BoundsKnown {
				bk = " ?bounds"
			}
			if st.AlignExtent > 0 {
				bk += fmt.Sprintf(" align=%d", st.AlignExtent)
			}
			step := ""
			if st.Step.ConstPart() != 1 {
				step = fmt.Sprintf(", %v", st.Step)
			}
			fmt.Fprintf(b, "%s%s %s = %v, %v%s%s\n", ind, kw, st.Var, st.Lo, st.Hi, step, bk)
			if len(st.Prologue) > 0 {
				fmt.Fprintf(b, "%s  !prologue (per PE, after invalidation):\n", ind)
				formatStmts(b, st.Prologue, depth+1)
			}
			for _, pp := range st.Pipelined {
				fmt.Fprintf(b, "%s  !pipelined prefetch %s ahead=%d\n", ind, pp.Target, pp.Ahead)
			}
			formatStmts(b, st.Body, depth+1)
			fmt.Fprintf(b, "%senddo\n", ind)
		case *Assign:
			fmt.Fprintf(b, "%s%s = %s\n", ind, refStr(st.LHS), exprStr(st.RHS))
		case *If:
			fmt.Fprintf(b, "%sif (%s %s %s) then\n", ind, exprStr(st.Cond.L), cmpStr(st.Cond.Op), exprStr(st.Cond.R))
			formatStmts(b, st.Then, depth+1)
			if len(st.Else) > 0 {
				fmt.Fprintf(b, "%selse\n", ind)
				formatStmts(b, st.Else, depth+1)
			}
			fmt.Fprintf(b, "%sendif\n", ind)
		case *Call:
			fmt.Fprintf(b, "%scall %s\n", ind, st.Name)
		case *Prefetch:
			fmt.Fprintf(b, "%sprefetch %s  ! moved back %d cycles\n", ind, refStr(st.Target), st.MovedBack)
		case *VectorPrefetch:
			fmt.Fprintf(b, "%svprefetch %s over %s = %v, %v  ! %d words\n",
				ind, refStr(st.Target), st.LoopVar, st.Lo, st.Hi, st.Words)
		}
	}
}

func refStr(r *Ref) string {
	s := r.String()
	var marks []string
	if r.Stale {
		marks = append(marks, "stale")
	}
	if r.Bypass {
		marks = append(marks, "bypass")
	}
	if r.NonCached {
		marks = append(marks, "nocache")
	}
	if r.Prefetched {
		marks = append(marks, "pf")
	}
	if len(marks) > 0 {
		s += "{" + strings.Join(marks, ",") + "}"
	}
	return s
}

func exprStr(e Expr) string {
	switch x := e.(type) {
	case Num:
		return fmt.Sprintf("%g", x.V)
	case IVal:
		return fmt.Sprintf("real(%v)", x.A)
	case Load:
		return refStr(x.Ref)
	case Bin:
		op := map[BinOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}[x.Op]
		if x.Op == OpMin {
			return fmt.Sprintf("min(%s, %s)", exprStr(x.L), exprStr(x.R))
		}
		if x.Op == OpMax {
			return fmt.Sprintf("max(%s, %s)", exprStr(x.L), exprStr(x.R))
		}
		return fmt.Sprintf("(%s %s %s)", exprStr(x.L), op, exprStr(x.R))
	case Un:
		switch x.Op {
		case OpNeg:
			return fmt.Sprintf("(-%s)", exprStr(x.X))
		case OpAbs:
			return fmt.Sprintf("abs(%s)", exprStr(x.X))
		case OpSqrt:
			return fmt.Sprintf("sqrt(%s)", exprStr(x.X))
		}
	}
	return "?"
}

func cmpStr(op CmpOp) string {
	switch op {
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	}
	return "?"
}
