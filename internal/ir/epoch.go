package ir

import "fmt"

// The paper's execution model (§3.1) partitions a program into a sequence
// of epochs: a parallel epoch is one DOALL loop whose iterations form
// concurrent tasks; a serial epoch is a run of sequential code executed by
// one task. Synchronization and a memory update happen at every epoch
// boundary.
//
// In the IR, epochs are discovered from the main routine: top-level DOALL
// loops become parallel epochs, maximal runs of sequential statements become
// serial epochs, serial loops that *contain* DOALLs (time-step loops) become
// cycles in the epoch graph, and calls to routines containing DOALLs are
// spliced in (interprocedural epoch discovery).

// EpochNode is a static epoch.
type EpochNode struct {
	Index    int
	Parallel bool
	// Loop is the DOALL of a parallel epoch (nil for serial epochs).
	Loop *Loop
	// Stmts are the statements of a serial epoch (nil for parallel epochs).
	Stmts []Stmt
	// Context lists the enclosing epoch-level serial loops, outermost
	// first: their induction variables are in scope inside the epoch.
	Context []*Loop
}

// Kind returns "parallel" or "serial".
func (n *EpochNode) Kind() string {
	if n.Parallel {
		return "parallel"
	}
	return "serial"
}

// EpochGraph is the epoch-level control-flow graph of a program: nodes in
// program order, consecutive edges, plus a back edge for every epoch-level
// serial loop.
type EpochGraph struct {
	Prog  *Program
	Nodes []*EpochNode
	// Succ[i] lists successors of node i.
	Succ [][]int
	// Pred[i] lists predecessors of node i.
	Pred [][]int

	items []epochItem // structured form driving the instance iterator
}

type epochItem interface{ isEpochItem() }

type epochLeaf struct{ node *EpochNode }

type epochLoop struct {
	loop  *Loop
	items []epochItem
}

func (epochLeaf) isEpochItem() {}
func (epochLoop) isEpochItem() {}

// BuildEpochGraph partitions the program's main routine into epochs.
func BuildEpochGraph(p *Program) (*EpochGraph, error) {
	g := &EpochGraph{Prog: p}
	items, err := g.partition(p.MainRoutine().Body, nil, map[string]bool{})
	if err != nil {
		return nil, err
	}
	g.items = items
	// Edges: consecutive program order plus loop back edges.
	n := len(g.Nodes)
	g.Succ = make([][]int, n)
	g.Pred = make([][]int, n)
	for i := 0; i+1 < n; i++ {
		g.addEdge(i, i+1)
	}
	var backEdges func(items []epochItem)
	backEdges = func(items []epochItem) {
		for _, it := range items {
			if el, ok := it.(epochLoop); ok {
				first, last, ok2 := span(el.items)
				if ok2 && last >= first {
					g.addEdge(last, first)
				}
				backEdges(el.items)
			}
		}
	}
	backEdges(items)
	return g, nil
}

func (g *EpochGraph) addEdge(from, to int) {
	for _, s := range g.Succ[from] {
		if s == to {
			return
		}
	}
	g.Succ[from] = append(g.Succ[from], to)
	g.Pred[to] = append(g.Pred[to], from)
}

// span returns the first and last node indices covered by an item list.
func span(items []epochItem) (first, last int, ok bool) {
	first, last = -1, -1
	var walk func(items []epochItem)
	walk = func(items []epochItem) {
		for _, it := range items {
			switch x := it.(type) {
			case epochLeaf:
				if first < 0 {
					first = x.node.Index
				}
				last = x.node.Index
			case epochLoop:
				walk(x.items)
			}
		}
	}
	walk(items)
	return first, last, first >= 0
}

// partition splits a statement list into epoch items. ctx is the stack of
// enclosing epoch-level serial loops; seen guards against call cycles.
func (g *EpochGraph) partition(body []Stmt, ctx []*Loop, inlining map[string]bool) ([]epochItem, error) {
	var items []epochItem
	var run []Stmt
	flush := func() {
		if len(run) == 0 {
			return
		}
		node := &EpochNode{Index: len(g.Nodes), Stmts: run, Context: append([]*Loop(nil), ctx...)}
		g.Nodes = append(g.Nodes, node)
		items = append(items, epochLeaf{node: node})
		run = nil
	}
	for _, s := range body {
		switch st := s.(type) {
		case *Loop:
			switch {
			case st.Parallel:
				flush()
				node := &EpochNode{Index: len(g.Nodes), Parallel: true, Loop: st,
					Context: append([]*Loop(nil), ctx...)}
				g.Nodes = append(g.Nodes, node)
				items = append(items, epochLeaf{node: node})
			case ContainsParallelLoop(g.Prog, st.Body):
				flush()
				sub, err := g.partition(st.Body, append(ctx, st), inlining)
				if err != nil {
					return nil, err
				}
				items = append(items, epochLoop{loop: st, items: sub})
			default:
				run = append(run, st)
			}
		case *Call:
			callee := g.Prog.Routine(st.Name)
			if callee == nil {
				return nil, fmt.Errorf("ir: epoch partition: undefined routine %q", st.Name)
			}
			if ContainsParallelLoop(g.Prog, callee.Body) {
				if inlining[st.Name] {
					return nil, fmt.Errorf("ir: epoch partition: call cycle through %q", st.Name)
				}
				flush()
				inlining[st.Name] = true
				sub, err := g.partition(callee.Body, ctx, inlining)
				delete(inlining, st.Name)
				if err != nil {
					return nil, err
				}
				items = append(items, sub...)
			} else {
				run = append(run, st)
			}
		default:
			run = append(run, s)
		}
	}
	flush()
	return items, nil
}

// ContextBounds returns lo/hi range maps for every context loop variable of
// node n, evaluated against the program params (context loop bounds may
// reference outer context vars; those are resolved outer-in using their own
// extreme values, which is exact for the rectangular time-step loops the
// workloads use).
func (g *EpochGraph) ContextBounds(n *EpochNode) (lo, hi map[string]int64, err error) {
	lo = map[string]int64{}
	hi = map[string]int64{}
	env := map[string]int64{}
	for k, v := range g.Prog.Params {
		env[k] = v
	}
	for _, l := range n.Context {
		lmin, _, ok1 := l.Lo.Bounds(lo, hi)
		if !ok1 {
			if v, e := l.Lo.Eval(env); e == nil {
				lmin = v
			} else {
				return nil, nil, fmt.Errorf("ir: cannot bound context loop %q lower bound", l.Var)
			}
		}
		_, hmax, ok2 := l.Hi.Bounds(lo, hi)
		if !ok2 {
			if v, e := l.Hi.Eval(env); e == nil {
				hmax = v
			} else {
				return nil, nil, fmt.Errorf("ir: cannot bound context loop %q upper bound", l.Var)
			}
		}
		lo[l.Var] = lmin
		hi[l.Var] = hmax
		env[l.Var] = lmin
	}
	// Params are also usable as "bounded" variables (constant range).
	for k, v := range g.Prog.Params {
		lo[k] = v
		hi[k] = v
	}
	return lo, hi, nil
}

// EpochInstance is one dynamic occurrence of an epoch node.
type EpochInstance struct {
	Node *EpochNode
	// Env binds the context loop variables (and nothing else) for this
	// occurrence.
	Env map[string]int64
}

// ForEachEpochInstance drives the epoch-level control flow, invoking fn for
// every dynamic epoch in execution order. Context loop bounds are evaluated
// against params and outer context variables. fn returning an error aborts.
func (g *EpochGraph) ForEachEpochInstance(fn func(EpochInstance) error) error {
	env := map[string]int64{}
	for k, v := range g.Prog.Params {
		env[k] = v
	}
	var run func(items []epochItem) error
	run = func(items []epochItem) error {
		for _, it := range items {
			switch x := it.(type) {
			case epochLeaf:
				ctxEnv := map[string]int64{}
				for _, l := range x.node.Context {
					ctxEnv[l.Var] = env[l.Var]
				}
				if err := fn(EpochInstance{Node: x.node, Env: ctxEnv}); err != nil {
					return err
				}
			case epochLoop:
				lo, err := x.loop.Lo.Eval(env)
				if err != nil {
					return err
				}
				hi, err := x.loop.Hi.Eval(env)
				if err != nil {
					return err
				}
				step := x.loop.Step.ConstPart()
				for v := lo; v <= hi; v += step {
					env[x.loop.Var] = v
					if err := run(x.items); err != nil {
						return err
					}
				}
				delete(env, x.loop.Var)
			}
		}
		return nil
	}
	return run(g.items)
}

// TripCount returns the compile-time trip count of a loop when its bounds
// are constant after parameter substitution; ok is false otherwise.
func TripCount(p *Program, l *Loop) (int64, bool) {
	env := map[string]int64{}
	for k, v := range p.Params {
		env[k] = v
	}
	lo, err1 := l.Lo.Eval(env)
	hi, err2 := l.Hi.Eval(env)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	step := l.Step.ConstPart()
	if hi < lo {
		return 0, true
	}
	return (hi-lo)/step + 1, true
}
