package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/craft"
	"repro/internal/expr"
	"repro/internal/ir"
)

// This file lowers the ir tree into the engine's executable form once per
// Run. The interpreter used to walk the ir directly, paying a string-keyed
// map lookup for every induction variable, scalar and subscript evaluation
// and allocating an index vector per address computation; the compiled
// mirror tree resolves every name to a dense slot (core.Compiled.Syms) and
// every subscript to a slot-indexed affine form at compile time, so the
// hot path runs over plain slices with zero allocations. The lowering is
// purely representational: statement order, cost charging and evaluation
// semantics are exactly those of the ir walk, which the flat and torus
// golden-CSV tests pin bit-identically.

// cterm is one coefficient*variable product with the variable resolved to
// its env slot. The name is kept only for the unbound-variable diagnostic.
type cterm struct {
	slot int32
	coef int64
	name string
}

// caff is a compiled affine expression evaluated against the PE's dense
// environment.
type caff struct {
	k     int64
	terms []cterm
}

func (a *caff) eval(env []int64, bound []bool) int64 {
	v := a.k
	for i := range a.terms {
		t := &a.terms[i]
		if !bound[t.slot] {
			unboundPanic(t.name)
		}
		v += t.coef * env[t.slot]
	}
	return v
}

// unboundPanic raises the unbound-variable diagnostic for eval and for
// addrOf's written-out copy of it.
func unboundPanic(name string) {
	panic(fmt.Errorf("expr: unbound variable %q", name))
}

// cdim is one compiled array subscript: the affine index plus the
// dimension's extent (bounds check) and linear stride.
type cdim struct {
	idx    caff
	extent int64
	stride int64
}

// cRef is a compiled reference site. Array refs carry per-dimension
// compiled subscripts; scalar refs carry the interned scalar slot.
type cRef struct {
	src    *ir.Ref // original site: oracle attribution, diagnostics
	arr    *ir.Array
	scalar int32 // scalar slot; -1 for array refs
	dims   []cdim
	base   int64
	// ownDiv is the array's craft.OwnerDivisor: the home PE of an in-bounds
	// address is (addr-base)/ownDiv, or 0 when ownDiv is 0 (ownerRef).
	ownDiv int64

	shared     bool
	nonCached  bool
	bypass     bool
	prefetched bool
}

func (r *cRef) isScalar() bool { return r.scalar >= 0 }

// ownerRef returns the home PE of addr, an address addrOf resolved for r.
// addrOf has bounds-checked every subscript, so addr-base < Size ≤
// ownDiv·numPE and the quotient is already a PE index: this is
// mem.OwnerOf without the array search or the clamp.
func ownerRef(r *cRef, addr int64) int {
	if r.ownDiv == 0 {
		return 0
	}
	return int((addr - r.base) / r.ownDiv)
}

// --- Compiled expressions -----------------------------------------------

type cExpr interface{ isCExpr() }

type cNum struct{ v float64 }
type cLoad struct{ ref *cRef }
type cIVal struct{ a caff }
type cBin struct {
	op   ir.BinOp
	l, r cExpr
}
type cUn struct {
	op ir.UnOp
	x  cExpr
}

func (*cNum) isCExpr()  {}
func (*cLoad) isCExpr() {}
func (*cIVal) isCExpr() {}
func (*cBin) isCExpr()  {}
func (*cUn) isCExpr()   {}

// --- Compiled statements ------------------------------------------------

type cStmt interface{ isCStmt() }

type cPipe struct {
	target *cRef
	ahead  int64
}

type cLoop struct {
	src       *ir.Loop
	varSlot   int32
	lo, hi    caff
	step      int64
	parallel  bool
	sched     ir.SchedKind
	alignExt  int64
	body      []cStmt
	prologue  []cStmt
	pipelined []cPipe
}

type cAssign struct {
	lhs *cRef
	rhs cExpr
}

type cIf struct {
	op        ir.CmpOp
	l, r      cExpr
	then, els []cStmt
}

// cCall resolves the callee at compile time; body stays nil for a call to
// an undefined routine, which (like the ir walk) only errors if executed.
type cCall struct {
	name string
	body *[]cStmt
}

type cPrefetch struct{ target *cRef }

type cVP struct {
	src     *ir.VectorPrefetch
	target  *cRef
	varSlot int32
	lo, hi  caff
	step    int64
}

func (*cLoop) isCStmt()     {}
func (*cAssign) isCStmt()   {}
func (*cIf) isCStmt()       {}
func (*cCall) isCStmt()     {}
func (*cPrefetch) isCStmt() {}
func (*cVP) isCStmt()       {}

// cEpoch is one compiled epoch node.
type cEpoch struct {
	loop  *cLoop  // parallel epochs
	stmts []cStmt // serial epochs
}

// cProgram is the compiled program: one entry per epoch node, plus the
// symbol geometry the PEs size their dense state from.
type cProgram struct {
	syms     *ir.SymTable
	nScalars int
	nVars    int
	nodes    []cEpoch
}

type compiler struct {
	prog     *ir.Program
	syms     *ir.SymTable
	numPE    int
	routines map[string]*[]cStmt
}

// compileProgram lowers every epoch node of the graph.
func compileProgram(c *core.Compiled, g *ir.EpochGraph) (*cProgram, error) {
	syms := c.Syms
	if syms == nil {
		// Callers constructing core.Compiled by hand (old tests) get the
		// table built here; core.Compile pre-resolves it.
		syms = ir.CollectSyms(c.Prog)
	}
	cc := &compiler{prog: c.Prog, syms: syms, numPE: c.Machine.NumPE, routines: map[string]*[]cStmt{}}
	cp := &cProgram{syms: syms, nScalars: syms.NumScalars(), nVars: syms.NumVars()}
	for _, node := range g.Nodes {
		var ep cEpoch
		if node.Parallel {
			l, err := cc.loop(node.Loop)
			if err != nil {
				return nil, err
			}
			ep.loop = l
		} else {
			ss, err := cc.stmts(node.Stmts)
			if err != nil {
				return nil, err
			}
			ep.stmts = ss
		}
		cp.nodes = append(cp.nodes, ep)
	}
	return cp, nil
}

func (cc *compiler) varSlot(name string) (int32, error) {
	if i := cc.syms.VarIndex(name); i >= 0 {
		return int32(i), nil
	}
	return 0, fmt.Errorf("exec: variable %q missing from symbol table", name)
}

func (cc *compiler) affine(a expr.Affine) (caff, error) {
	out := caff{k: a.ConstPart()}
	for _, t := range a.Terms() {
		slot, err := cc.varSlot(t.Var)
		if err != nil {
			return caff{}, err
		}
		out.terms = append(out.terms, cterm{slot: slot, coef: t.Coef, name: t.Var})
	}
	return out, nil
}

func (cc *compiler) ref(r *ir.Ref) (*cRef, error) {
	out := &cRef{src: r, scalar: -1,
		bypass: r.Bypass, nonCached: r.NonCached, prefetched: r.Prefetched}
	if r.IsScalar() {
		i := cc.syms.ScalarIndex(r.Scalar)
		if i < 0 {
			return nil, fmt.Errorf("exec: scalar %q missing from symbol table", r.Scalar)
		}
		out.scalar = int32(i)
		return out, nil
	}
	out.arr = r.Array
	out.base = r.Array.Base
	out.ownDiv = craft.OwnerDivisor(r.Array, cc.numPE)
	out.shared = r.Array.Shared
	stride := int64(1)
	for d := range r.Index {
		idx, err := cc.affine(r.Index[d])
		if err != nil {
			return nil, err
		}
		out.dims = append(out.dims, cdim{idx: idx, extent: r.Array.Dims[d], stride: stride})
		stride *= r.Array.Dims[d]
	}
	return out, nil
}

func (cc *compiler) expr(e ir.Expr) (cExpr, error) {
	switch x := e.(type) {
	case ir.Num:
		return &cNum{v: x.V}, nil
	case ir.IVal:
		a, err := cc.affine(x.A)
		if err != nil {
			return nil, err
		}
		return &cIVal{a: a}, nil
	case ir.Load:
		r, err := cc.ref(x.Ref)
		if err != nil {
			return nil, err
		}
		return &cLoad{ref: r}, nil
	case ir.Bin:
		l, err := cc.expr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.expr(x.R)
		if err != nil {
			return nil, err
		}
		return &cBin{op: x.Op, l: l, r: r}, nil
	case ir.Un:
		in, err := cc.expr(x.X)
		if err != nil {
			return nil, err
		}
		return &cUn{op: x.Op, x: in}, nil
	default:
		return nil, fmt.Errorf("exec: unknown expression %T", e)
	}
}

func (cc *compiler) vectorPrefetch(vp *ir.VectorPrefetch) (*cVP, error) {
	target, err := cc.ref(vp.Target)
	if err != nil {
		return nil, err
	}
	slot, err := cc.varSlot(vp.LoopVar)
	if err != nil {
		return nil, err
	}
	lo, err := cc.affine(vp.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := cc.affine(vp.Hi)
	if err != nil {
		return nil, err
	}
	return &cVP{src: vp, target: target, varSlot: slot, lo: lo, hi: hi,
		step: vp.Step.ConstPart()}, nil
}

func (cc *compiler) loop(l *ir.Loop) (*cLoop, error) {
	slot, err := cc.varSlot(l.Var)
	if err != nil {
		return nil, err
	}
	lo, err := cc.affine(l.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := cc.affine(l.Hi)
	if err != nil {
		return nil, err
	}
	out := &cLoop{src: l, varSlot: slot, lo: lo, hi: hi, step: l.Step.ConstPart(),
		parallel: l.Parallel, sched: l.Sched, alignExt: l.AlignExtent}
	if out.body, err = cc.stmts(l.Body); err != nil {
		return nil, err
	}
	if out.prologue, err = cc.stmts(l.Prologue); err != nil {
		return nil, err
	}
	for _, pp := range l.Pipelined {
		target, err := cc.ref(pp.Target)
		if err != nil {
			return nil, err
		}
		out.pipelined = append(out.pipelined, cPipe{target: target, ahead: pp.Ahead})
	}
	return out, nil
}

func (cc *compiler) stmts(body []ir.Stmt) ([]cStmt, error) {
	if len(body) == 0 {
		return nil, nil
	}
	out := make([]cStmt, 0, len(body))
	for _, s := range body {
		st, err := cc.stmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func (cc *compiler) stmt(s ir.Stmt) (cStmt, error) {
	switch st := s.(type) {
	case *ir.Loop:
		return cc.loop(st)
	case *ir.Assign:
		lhs, err := cc.ref(st.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := cc.expr(st.RHS)
		if err != nil {
			return nil, err
		}
		return &cAssign{lhs: lhs, rhs: rhs}, nil
	case *ir.If:
		l, err := cc.expr(st.Cond.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.expr(st.Cond.R)
		if err != nil {
			return nil, err
		}
		then, err := cc.stmts(st.Then)
		if err != nil {
			return nil, err
		}
		els, err := cc.stmts(st.Else)
		if err != nil {
			return nil, err
		}
		return &cIf{op: st.Cond.Op, l: l, r: r, then: then, els: els}, nil
	case *ir.Call:
		return cc.call(st.Name)
	case *ir.Prefetch:
		target, err := cc.ref(st.Target)
		if err != nil {
			return nil, err
		}
		return &cPrefetch{target: target}, nil
	case *ir.VectorPrefetch:
		return cc.vectorPrefetch(st)
	default:
		return nil, fmt.Errorf("exec: unknown statement %T", s)
	}
}

// call memoizes compiled routine bodies through a pointer so (mutual)
// recursion terminates: the entry is registered before its body compiles.
func (cc *compiler) call(name string) (*cCall, error) {
	if body, ok := cc.routines[name]; ok {
		return &cCall{name: name, body: body}, nil
	}
	rt := cc.prog.Routine(name)
	if rt == nil {
		// Mirror the ir walk: a dead call to an undefined routine only
		// errors if executed.
		return &cCall{name: name}, nil
	}
	body := new([]cStmt)
	cc.routines[name] = body
	compiled, err := cc.stmts(rt.Body)
	if err != nil {
		return nil, err
	}
	*body = compiled
	return &cCall{name: name, body: body}, nil
}
