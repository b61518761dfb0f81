// Package stale implements the paper's stale reference analysis (§4.1,
// following Choi & Yew): identify the read references that may observe an
// out-of-date cached copy, by a dataflow over array sections on the epoch
// graph.
//
// The state tracked for each PE p at each epoch boundary is the
// "dirty-for-p" region of every shared array: the locations another PE may
// have written since p last refreshed (wrote, or coherently read) them. A
// read is potentially stale iff its section intersects the reader's
// dirty-for-p region at epoch entry. Kills (p's own writes, and p's reads —
// which the CCDP scheme makes coherent, so they refresh p's cached copy:
// the intertask-locality refinement) are applied only with exact
// (must-)sections; additions use over-approximate (may-)sections, so the
// result over-approximates true staleness and the scheme stays sound.
package stale

import (
	"repro/internal/craft"
	"repro/internal/expr"
	"repro/internal/ir"
	"repro/internal/section"
)

// emptySections returns one empty section per array, in prog.Arrays
// order: the dense per-PE table every aggregate, dataflow state and
// invalidation region is stored in. Slot a holds the section of
// prog.Arrays[a]; an array the table says nothing about is an empty set of
// the array's rank (never the rank-0 zero value, which UnionRect rejects).
func emptySections(arrays []*ir.Array) []section.Set {
	out := make([]section.Set, len(arrays))
	for a, arr := range arrays {
		out[a] = section.Empty(arr.Rank())
	}
	return out
}

// RefAccess is one reference site inside an epoch with its per-PE section.
type RefAccess struct {
	Ref     *ir.Ref
	IsWrite bool
	// PerPE[p] is the over-approximate section PE p touches through this
	// reference in one activation of the epoch node.
	PerPE []section.Set
	// Exact reports that PerPE is the exact access set (usable as a
	// must-section): dense rectangular coverage, not under an if, no
	// context-variable dependence.
	Exact bool
	// slot is the referenced array's position in prog.Arrays.
	slot int
}

// Summary is the per-PE access summary of one epoch node.
type Summary struct {
	Node *ir.EpochNode
	Refs []*RefAccess
	// Aggregates per PE, each indexed by array slot (emptySections).
	MayRead, MayWrite   [][]section.Set
	MustRead, MustWrite [][]section.Set
}

// summarizer walks epoch bodies building sections.
type summarizer struct {
	prog  *ir.Program
	numPE int
	graph *ir.EpochGraph
	// slot maps each array name to its position in prog.Arrays.
	slot map[string]int
}

// Summarize computes the access summary of every epoch node for numPE PEs.
func Summarize(g *ir.EpochGraph, numPE int) ([]*Summary, error) {
	s := &summarizer{prog: g.Prog, numPE: numPE, graph: g,
		slot: make(map[string]int, len(g.Prog.Arrays))}
	for a, arr := range g.Prog.Arrays {
		s.slot[arr.Name] = a
	}
	out := make([]*Summary, len(g.Nodes))
	for i, n := range g.Nodes {
		sum, err := s.node(n)
		if err != nil {
			return nil, err
		}
		out[i] = sum
	}
	return out, nil
}

// walkEnv carries the per-PE variable bounds and exactness during the walk.
type walkEnv struct {
	lo, hi map[string]int64
	// exactVar marks in-epoch loop variables whose range is exact (bounds
	// independent of other in-epoch variables and context variables).
	exactVar map[string]bool
	underIf  bool
	// inEpoch marks variables bound inside the epoch (vs context).
	inEpoch map[string]bool
}

func (e *walkEnv) clone() *walkEnv {
	c := &walkEnv{
		lo: map[string]int64{}, hi: map[string]int64{},
		exactVar: map[string]bool{}, underIf: e.underIf,
		inEpoch: map[string]bool{},
	}
	for k, v := range e.lo {
		c.lo[k] = v
	}
	for k, v := range e.hi {
		c.hi[k] = v
	}
	for k, v := range e.exactVar {
		c.exactVar[k] = v
	}
	for k, v := range e.inEpoch {
		c.inEpoch[k] = v
	}
	return c
}

func (s *summarizer) node(n *ir.EpochNode) (*Summary, error) {
	sum := &Summary{Node: n}
	sum.MayRead = make([][]section.Set, s.numPE)
	sum.MayWrite = make([][]section.Set, s.numPE)
	sum.MustRead = make([][]section.Set, s.numPE)
	sum.MustWrite = make([][]section.Set, s.numPE)
	for p := 0; p < s.numPE; p++ {
		sum.MayRead[p] = emptySections(s.prog.Arrays)
		sum.MayWrite[p] = emptySections(s.prog.Arrays)
		sum.MustRead[p] = emptySections(s.prog.Arrays)
		sum.MustWrite[p] = emptySections(s.prog.Arrays)
	}

	ctxLo, ctxHi, err := s.graph.ContextBounds(n)
	if err != nil {
		return nil, err
	}

	// accesses[refID] accumulates the RefAccess for a ref site.
	accesses := map[ir.RefID]*RefAccess{}
	record := func(pe int, r *ir.Ref, isWrite bool, env *walkEnv) {
		if r.IsScalar() {
			return
		}
		ra := accesses[r.ID]
		if ra == nil {
			ra = &RefAccess{Ref: r, IsWrite: isWrite, Exact: true, slot: s.slot[r.Array.Name]}
			ra.PerPE = make([]section.Set, s.numPE)
			for p := range ra.PerPE {
				ra.PerPE[p] = section.Empty(r.Array.Rank())
			}
			accesses[r.ID] = ra
		}
		sect, exact := s.refSection(r, env)
		ra.PerPE[pe] = ra.PerPE[pe].Union(sect)
		if !exact {
			ra.Exact = false
		}
	}

	if n.Parallel {
		l := n.Loop
		// Evaluate DOALL bounds against params and context extremes. The
		// bounds of every workload DOALL are context-independent; when they
		// are not, the hull over the context range is used and exactness is
		// dropped.
		lo, hi, boundsExact := evalLoopBounds(l, s.prog, ctxLo, ctxHi)
		step := l.Step.ConstPart()
		for p := 0; p < s.numPE; p++ {
			env := s.baseEnv(ctxLo, ctxHi)
			switch {
			case l.Sched == ir.SchedDynamic || step != 1:
				// Unknown iteration→PE mapping: every PE may run any
				// iteration; nothing is a must.
				env.lo[l.Var], env.hi[l.Var] = lo, hi
				env.exactVar[l.Var] = false
			default:
				c := craft.BlockChunk(lo, hi, s.numPE, p)
				if l.AlignExtent > 0 {
					c = craft.AlignedChunk(lo, hi, l.AlignExtent, s.numPE, p)
				}
				if c.Empty() {
					continue
				}
				env.lo[l.Var], env.hi[l.Var] = c.Lo, c.Hi
				env.exactVar[l.Var] = boundsExact
			}
			env.inEpoch[l.Var] = true
			pe := p
			s.walk(l.Body, env, func(r *ir.Ref, w bool, e *walkEnv) {
				record(pe, r, w, e)
			})
		}
	} else {
		// Serial epochs execute on PE 0 (master).
		env := s.baseEnv(ctxLo, ctxHi)
		s.walk(n.Stmts, env, func(r *ir.Ref, w bool, e *walkEnv) {
			record(0, r, w, e)
		})
	}

	// Deterministic order: by RefID.
	for _, r := range s.prog.Refs() {
		ra := accesses[r.ID]
		if ra == nil {
			continue
		}
		sum.Refs = append(sum.Refs, ra)
		may, must := sum.MayRead, sum.MustRead
		if ra.IsWrite {
			may, must = sum.MayWrite, sum.MustWrite
		}
		a := ra.slot
		for p := 0; p < s.numPE; p++ {
			if ra.PerPE[p].IsEmpty() {
				continue
			}
			may[p][a] = may[p][a].Union(ra.PerPE[p])
			if ra.Exact {
				must[p][a] = must[p][a].Union(ra.PerPE[p])
			}
		}
	}
	return sum, nil
}

// baseEnv seeds a walk environment with params (exact) and context
// variables (ranges over the whole context, not exact).
func (s *summarizer) baseEnv(ctxLo, ctxHi map[string]int64) *walkEnv {
	env := &walkEnv{
		lo: map[string]int64{}, hi: map[string]int64{},
		exactVar: map[string]bool{}, inEpoch: map[string]bool{},
	}
	for k, v := range s.prog.Params {
		env.lo[k], env.hi[k] = v, v
		env.exactVar[k] = true
	}
	for k := range ctxLo {
		if _, isParam := s.prog.Params[k]; isParam {
			continue
		}
		env.lo[k], env.hi[k] = ctxLo[k], ctxHi[k]
		env.exactVar[k] = false // varies across epoch instances
	}
	return env
}

// walk traverses statements (following calls) maintaining bounds.
func (s *summarizer) walk(body []ir.Stmt, env *walkEnv, visit func(*ir.Ref, bool, *walkEnv)) {
	for _, st := range body {
		switch x := st.(type) {
		case *ir.Loop:
			inner := env.clone()
			lo, _, ok1 := x.Lo.Bounds(env.lo, env.hi)
			_, hi, ok2 := x.Hi.Bounds(env.lo, env.hi)
			if !ok1 || !ok2 {
				// Unbounded: treat subscripts using this var as whole-array.
				lo, hi = -1<<40, 1<<40
			}
			inner.lo[x.Var], inner.hi[x.Var] = lo, hi
			// Exact iff step 1 and the bound expressions depend only on
			// exact variables (params), i.e. the range is instance- and
			// iteration-invariant.
			exact := ok1 && ok2 && x.Step.ConstPart() == 1 &&
				varsAllExact(x.Lo, env) && varsAllExact(x.Hi, env)
			inner.exactVar[x.Var] = exact
			inner.inEpoch[x.Var] = true
			s.walk(x.Body, inner, visit)
		case *ir.Assign:
			walkExprRefsEnv(x.RHS, env, visit)
			visit(x.LHS, true, env)
		case *ir.If:
			walkExprRefsEnv(x.Cond.L, env, visit)
			walkExprRefsEnv(x.Cond.R, env, visit)
			inner := env.clone()
			inner.underIf = true
			s.walk(x.Then, inner, visit)
			s.walk(x.Else, inner, visit)
		case *ir.Call:
			if rt := s.prog.Routine(x.Name); rt != nil {
				s.walk(rt.Body, env, visit)
			}
		case *ir.Prefetch, *ir.VectorPrefetch:
			// Prefetches are not data accesses for coherence purposes.
		}
	}
}

func walkExprRefsEnv(e ir.Expr, env *walkEnv, visit func(*ir.Ref, bool, *walkEnv)) {
	switch x := e.(type) {
	case ir.Load:
		visit(x.Ref, false, env)
	case ir.Bin:
		walkExprRefsEnv(x.L, env, visit)
		walkExprRefsEnv(x.R, env, visit)
	case ir.Un:
		walkExprRefsEnv(x.X, env, visit)
	}
}

// refSection builds the rectangular hull of the reference under env and
// reports whether the hull is exact (usable as a must-section).
func (s *summarizer) refSection(r *ir.Ref, env *walkEnv) (section.Set, bool) {
	rank := r.Array.Rank()
	lo := make([]int64, rank)
	hi := make([]int64, rank)
	exact := !env.underIf
	usedVars := map[string]int{}
	for d, sub := range r.Index {
		mn, mx, ok := sub.Bounds(env.lo, env.hi)
		if !ok {
			// Unbounded subscript: whole dimension, inexact.
			mn, mx = 0, r.Array.Dims[d]-1
			exact = false
		}
		// Clamp to the array extent (out-of-range accesses are a program
		// bug caught by the engine, not the analysis).
		if mn < 0 {
			mn = 0
		}
		if mx > r.Array.Dims[d]-1 {
			mx = r.Array.Dims[d] - 1
		}
		lo[d], hi[d] = mn, mx
		if !dimExact(sub, env, usedVars) {
			exact = false
		}
	}
	rect := section.NewRect(lo, hi)
	if rect.Empty() {
		return section.Empty(rank), exact
	}
	return section.Of(rank, rect), exact
}

// dimExact decides whether a subscript covers its hull densely: it must be
// constant over exact variables only, or use exactly one in-epoch exact
// variable with coefficient ±1, each variable appearing in at most one
// dimension.
func dimExact(sub expr.Affine, env *walkEnv, usedVars map[string]int) bool {
	inEpochUsed := ""
	for _, t := range sub.Terms() {
		if !env.exactVar[t.Var] {
			return false
		}
		if env.inEpoch[t.Var] {
			if inEpochUsed != "" {
				return false // two varying vars in one dim
			}
			if t.Coef != 1 && t.Coef != -1 {
				return false // stride > 1: holes in coverage
			}
			inEpochUsed = t.Var
			usedVars[t.Var]++
			if usedVars[t.Var] > 1 {
				return false // same var drives two dims (diagonal)
			}
		}
	}
	return true
}

func varsAllExact(a expr.Affine, env *walkEnv) bool {
	for _, v := range a.Vars() {
		if !env.exactVar[v] {
			return false
		}
	}
	return true
}

// evalLoopBounds evaluates loop bounds against params and (failing that)
// context extremes; exact is false when the context hull was needed.
func evalLoopBounds(l *ir.Loop, prog *ir.Program, ctxLo, ctxHi map[string]int64) (lo, hi int64, exact bool) {
	env := map[string]int64{}
	for k, v := range prog.Params {
		env[k] = v
	}
	l1, e1 := l.Lo.Eval(env)
	h1, e2 := l.Hi.Eval(env)
	if e1 == nil && e2 == nil {
		return l1, h1, true
	}
	mn, _, ok1 := l.Lo.Bounds(ctxLo, ctxHi)
	_, mx, ok2 := l.Hi.Bounds(ctxLo, ctxHi)
	if ok1 && ok2 {
		return mn, mx, false
	}
	return 0, -1, false
}
