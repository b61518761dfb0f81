package exec

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/craft"
	"repro/internal/expr"
	"repro/internal/ir"
)

// This file lowers the ir tree into the engine's executable form once per
// Engine: New compiles the mirror tree, and every Run of that Engine
// executes it. The interpreter used to walk the ir directly, paying a
// string-keyed map lookup for every induction variable, scalar and
// subscript evaluation and allocating an index vector per address
// computation; the compiled mirror tree resolves every name to a dense
// slot (core.Compiled.Syms), every subscript to a slot-indexed affine form
// and every expression to a postfix instruction list at compile time, so
// the hot path runs over plain slices with zero allocations. The lowering
// is purely representational: statement order, cost charging and
// evaluation semantics are exactly those of the ir walk, which the flat
// and torus golden-CSV tests pin bit-identically.

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
// checkedAddr's written-out copy of it.
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
// compiled subscripts and their flat address affine; scalar refs carry the
// interned scalar slot.
type cRef struct {
	// The fields every access reads come first, so they share a cache
	// line.
	scalar     int32 // scalar slot; -1 for array refs
	shared     bool
	nonCached  bool
	bypass     bool
	prefetched bool
	// proven is set by each entry of the loop that covers this site
	// (cLoop.covered) when every subscript stays inside its extent over
	// the whole entry. The entry then also folds flat into entryK +
	// entryCoef·env[entrySlot], with entrySlot the loop's variable: every
	// other slot the site reads keeps its value while the loop runs, so
	// that is the whole address, computed with no bound or range checks
	// (addrOf). A site executes only inside its covering loop, and every
	// entry re-proves it, so the fold never outlives the entry it
	// describes.
	proven    bool
	entrySlot int32
	entryK    int64
	entryCoef int64
	base      int64
	// ownDiv is the array's craft.OwnerDivisor: the home PE of an in-bounds
	// address is (addr-base)/ownDiv, or 0 when ownDiv is 0 (ownerRef).
	ownDiv int64

	src  *ir.Ref // original site: oracle attribution, diagnostics
	arr  *ir.Array
	dims []cdim
	// flat is the word address as one affine over env slots: base plus
	// every subscript times its stride, with the terms merged by slot.
	flat caff
}

func (r *cRef) isScalar() bool { return r.scalar >= 0 }

// ownerRef returns the home PE of addr, an address addrOf resolved for r.
// Every subscript is in range (checked or proven), so addr-base < Size ≤
// ownDiv·numPE and the quotient is already a PE index: this is
// mem.OwnerOf without the array search or the clamp.
func ownerRef(r *cRef, addr int64) int {
	if r.ownDiv == 0 {
		return 0
	}
	return int((addr - r.base) / r.ownDiv)
}

// --- Compiled expressions -----------------------------------------------

// exprOp is one postfix instruction's operation.
type exprOp uint8

const (
	opLoad exprOp = iota // nothing beyond the load of ref
	opNum                // push v
	opIVal               // push the integer affine a, charging one cycle
	opAdd                // pop r, pop l, push l op r, charging a flop
	opSub
	opMul
	opDiv
	opMin
	opMax
	opNeg // pop x, push op x, charging a flop (sqrt: eight)
	opAbs
	opSqrt
)

// cInstr is one postfix instruction. An instruction with a ref first
// pushes the value read through it, then applies op: a load that is an
// operator's right (or only) operand travels with the operator, which
// saves a dispatch per load.
type cInstr struct {
	op  exprOp
	v   float64
	ref *cRef
	a   *caff
}

// cExpr is a compiled expression in postfix order: operands before their
// operator, left operand before right, so evaluating the instructions in
// sequence performs every load and charges every cycle in exactly the
// order the tree walk did, with no per-node dispatch on a type.
type cExpr []cInstr

// depth is the operand-stack depth evaluating e needs. An instruction
// pushes at most once (its load, number or integer value) before its
// operator pops.
func (e cExpr) depth() int {
	d, deepest := 0, 0
	for i := range e {
		if in := &e[i]; in.ref != nil || in.op == opNum || in.op == opIVal {
			d++
			deepest = max(deepest, d)
		}
		if op := e[i].op; op >= opAdd && op <= opMax {
			d--
		}
	}
	return deepest
}

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
	// covered lists the array sites each entry of this loop proves in
	// range (see cover).
	covered []*cRef
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
	// stackDepth is the deepest operand stack any expression needs.
	stackDepth int
	nodes      []cEpoch
}

type compiler struct {
	prog       *ir.Program
	syms       *ir.SymTable
	numPE      int
	routines   map[string]*[]cStmt
	stackDepth int
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
	cp.stackDepth = cc.stackDepth
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
	for i := 0; i < a.NumTerms(); i++ {
		t := a.TermAt(i)
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
	out.dims = make([]cdim, len(r.Index))
	stride, nterms := int64(1), 0
	for d := range r.Index {
		idx, err := cc.affine(r.Index[d])
		if err != nil {
			return nil, err
		}
		out.dims[d] = cdim{idx: idx, extent: r.Array.Dims[d], stride: stride}
		stride *= r.Array.Dims[d]
		nterms += len(idx.terms)
	}
	out.flat = caff{k: r.Array.Base, terms: make([]cterm, 0, nterms)}
	for d := range out.dims {
		out.flat.addScaled(&out.dims[d].idx, out.dims[d].stride)
	}
	return out, nil
}

// addScaled adds s·x to a, merging x's terms into a's by slot and dropping
// terms whose coefficients cancel.
func (a *caff) addScaled(x *caff, s int64) {
	a.k += s * x.k
	for _, t := range x.terms {
		i := 0
		for i < len(a.terms) && a.terms[i].slot != t.slot {
			i++
		}
		if i == len(a.terms) {
			a.terms = append(a.terms, cterm{slot: t.slot, name: t.name})
		}
		a.terms[i].coef += s * t.coef
		if a.terms[i].coef == 0 {
			a.terms = append(a.terms[:i], a.terms[i+1:]...)
		}
	}
}

// expr lowers e to postfix form and records the stack depth it needs.
func (cc *compiler) expr(e ir.Expr) (cExpr, error) {
	var out cExpr
	if err := cc.postfix(e, &out); err != nil {
		return nil, err
	}
	if d := out.depth(); d > cc.stackDepth {
		cc.stackDepth = d
	}
	return out, nil
}

var binOps = map[ir.BinOp]exprOp{ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul,
	ir.OpDiv: opDiv, ir.OpMin: opMin, ir.OpMax: opMax}

var unOps = map[ir.UnOp]exprOp{ir.OpNeg: opNeg, ir.OpAbs: opAbs, ir.OpSqrt: opSqrt}

func (cc *compiler) postfix(e ir.Expr, out *cExpr) error {
	switch x := e.(type) {
	case ir.Num:
		*out = append(*out, cInstr{op: opNum, v: x.V})
	case ir.IVal:
		a, err := cc.affine(x.A)
		if err != nil {
			return err
		}
		*out = append(*out, cInstr{op: opIVal, a: &a})
	case ir.Load:
		r, err := cc.ref(x.Ref)
		if err != nil {
			return err
		}
		*out = append(*out, cInstr{op: opLoad, ref: r})
	case ir.Bin:
		op, ok := binOps[x.Op]
		if !ok {
			return fmt.Errorf("exec: unknown binary operator %v", x.Op)
		}
		if err := cc.postfix(x.L, out); err != nil {
			return err
		}
		return cc.operator(op, x.R, out)
	case ir.Un:
		op, ok := unOps[x.Op]
		if !ok {
			return fmt.Errorf("exec: unknown unary operator %v", x.Op)
		}
		return cc.operator(op, x.X, out)
	default:
		return fmt.Errorf("exec: unknown expression %T", e)
	}
	return nil
}

// operator emits operand (a binary operator's right one, a unary
// operator's only one) and then op; a lone load operand is fused into
// op's instruction.
func (cc *compiler) operator(op exprOp, operand ir.Expr, out *cExpr) error {
	n := len(*out)
	if err := cc.postfix(operand, out); err != nil {
		return err
	}
	if len(*out) == n+1 && (*out)[n].op == opLoad {
		(*out)[n].op = op
		return nil
	}
	*out = append(*out, cInstr{op: op})
	return nil
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
	out.cover()
	return out, nil
}

// cover fills l.covered: the array sites directly in l's body, if branches
// included, and its pipelined prefetch targets. An entry's proof relies
// only on slots bound at entry, so a site that reads the variable of a
// loop nested anywhere in the body is left out: the nested loop unbinds
// its variable when it exits, and a later read must still panic. Sites
// outside the body proper keep the checked path too: the prologue (the
// loop variable is not bound there) and vector-prefetch targets (their
// pull loop binds its own variable). A loop with a non-positive step, or
// whose body calls a routine at any depth, covers nothing: a routine body
// is shared between call sites and may rebind any slot.
func (l *cLoop) cover() {
	if l.step <= 0 {
		return
	}
	var sites []*cRef
	var inner []int32
	if !scanBody(l.body, &sites, &inner, true) {
		return
	}
	for _, pp := range l.pipelined {
		sites = append(sites, pp.target)
	}
	l.covered = slices.DeleteFunc(sites, func(r *cRef) bool { return r.isScalar() || r.reads(inner) })
}

// scanBody appends the array sites of body to sites when direct, and the
// variable slot of every loop nested in body to inner. It reports false
// when body calls a routine.
func scanBody(body []cStmt, sites *[]*cRef, inner *[]int32, direct bool) bool {
	add := func(r *cRef) {
		if direct && !r.isScalar() {
			*sites = append(*sites, r)
		}
	}
	loads := func(e cExpr) {
		for i := range e {
			if e[i].ref != nil {
				add(e[i].ref)
			}
		}
	}
	for _, s := range body {
		switch st := s.(type) {
		case *cLoop:
			*inner = append(*inner, st.varSlot)
			if !scanBody(st.body, sites, inner, false) || !scanBody(st.prologue, sites, inner, false) {
				return false
			}
		case *cAssign:
			loads(st.rhs)
			add(st.lhs)
		case *cIf:
			loads(st.l)
			loads(st.r)
			if !scanBody(st.then, sites, inner, direct) || !scanBody(st.els, sites, inner, direct) {
				return false
			}
		case *cCall:
			return false
		case *cPrefetch:
			add(st.target)
		}
	}
	return true
}

// reads reports whether any subscript of r reads one of the slots.
func (r *cRef) reads(slots []int32) bool {
	for d := range r.dims {
		for _, t := range r.dims[d].idx.terms {
			if slices.Contains(slots, t.slot) {
				return true
			}
		}
	}
	return false
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
