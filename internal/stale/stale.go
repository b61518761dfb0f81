package stale

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/craft"
	"repro/internal/ir"
	"repro/internal/section"
)

// maxPasses bounds dataflow iterations per node before widening is forced.
const maxPasses = 8

// Result is the output of the stale reference analysis.
type Result struct {
	Graph     *ir.EpochGraph
	Summaries []*Summary
	NumPE     int
	opts      Options

	// StaleReads marks every read reference that may observe a stale
	// cached copy on some PE.
	StaleReads map[ir.RefID]bool

	// RemoteReads marks every read reference whose section extends beyond
	// the reading PE's own slab for some PE — data the T3D serves at
	// remote latency. The paper's §6 extension ("we should be able to
	// obtain further performance improvement by prefetching the non-stale
	// references as well") prefetches these too.
	RemoteReads map[ir.RefID]bool

	// Why records, per stale read, the first (epoch, PE) witness that made
	// the analysis mark it: the decision provenance `ccdpc -explain`
	// surfaces. Deterministic — epochs, references and PEs are visited in
	// fixed order.
	Why map[ir.RefID]string

	// RemoteWhy records the first witness for each remote read.
	RemoteWhy map[ir.RefID]string

	// The region tables below are indexed [node][PE][array slot], a slot
	// being the array's position in Graph.Prog.Arrays; every slot holds a
	// section of its array's rank, empty where there is no region.

	// DirtyAtEntry[n][p] is the fixpoint dirty-for-p region at entry to
	// epoch node n. With coherence domains (Options.Domains) this is the
	// CROSS-domain dirty state: regions overwritten by PEs outside p's
	// domain, the only writes software must handle. Without domains every
	// other PE is cross-domain and this is the classic domain-blind state.
	DirtyAtEntry [][][]section.Set

	// IntraDirty[n][p] is the companion fixpoint over same-domain writers
	// only: regions overwritten by p's domain peers, which the domain's
	// hardware coherence invalidates for free. nil without domains. The
	// union DirtyAtEntry ∪ IntraDirty covers the domain-blind dirty state,
	// so splitting loses no writes.
	IntraDirty [][][]section.Set

	// Invalidate[n][p] is the region PE p must invalidate in its cache when
	// entering node n (cross-domain dirty ∩ may-read): the compiler-directed
	// invalidation the CCDP scheme performs before issuing prefetches
	// (paper §3.2).
	Invalidate [][][]section.Set

	// HWInvalidate[n][p] is the region of p's cache the domain's hardware
	// coherence has already invalidated by entry to node n (intra-domain
	// dirty ∩ may-read). The engine models it by dropping those lines at
	// epoch entry at zero cost. nil without domains.
	HWInvalidate [][][]section.Set

	// DemotedIntra marks read references the domain-blind analysis would
	// have called potentially stale but whose dirt is wholly intra-domain
	// for every PE: hardware keeps them coherent, so they need no prefetch
	// or software invalidation. Empty without domains.
	DemotedIntra map[ir.RefID]bool

	// DemotedWhy records, per demoted read, the first (epoch, PE) witness
	// with the domain reasoning — the provenance `ccdpc -explain` surfaces.
	DemotedWhy map[ir.RefID]string
}

// Options tunes the analysis.
type Options struct {
	// DisableReadRefresh turns off the intertask-locality refinement (a
	// coherent read refreshing the reader's cached copy). The refinement
	// is sound only when the CCDP runtime actually enforces coherence at
	// reads; the property tests comparing against a NON-coherent execution
	// disable it.
	DisableReadRefresh bool

	// Domains maps each PE to its coherence-domain ID
	// (machine.Params.DomainTable). Writes by a same-domain peer are kept
	// coherent by hardware, so they accrue to IntraDirty instead of
	// DirtyAtEntry and never make a reference potentially stale. nil (or a
	// table where every PE is alone) reproduces the domain-blind analysis
	// exactly.
	Domains []int
}

// Analyze runs the stale reference analysis for a machine with numPE PEs.
func Analyze(prog *ir.Program, numPE int) (*Result, error) {
	return AnalyzeOpt(prog, numPE, Options{})
}

// AnalyzeOpt is Analyze with explicit options.
func AnalyzeOpt(prog *ir.Program, numPE int, opts Options) (*Result, error) {
	g, err := ir.BuildEpochGraph(prog)
	if err != nil {
		return nil, err
	}
	sums, err := Summarize(g, numPE)
	if err != nil {
		return nil, err
	}
	if opts.Domains != nil && len(opts.Domains) != numPE {
		return nil, fmt.Errorf("stale: domain table has %d entries for %d PEs", len(opts.Domains), numPE)
	}
	r := &Result{Graph: g, Summaries: sums, NumPE: numPE,
		StaleReads: map[ir.RefID]bool{}, RemoteReads: map[ir.RefID]bool{},
		Why: map[ir.RefID]string{}, RemoteWhy: map[ir.RefID]string{},
		DemotedIntra: map[ir.RefID]bool{}, DemotedWhy: map[ir.RefID]string{}, opts: opts}
	r.DirtyAtEntry = r.fixpoint(r.crossFilter())
	if intra := r.intraFilter(); intra != nil {
		r.IntraDirty = r.fixpoint(intra)
	}
	r.markStale()
	r.markDemoted()
	r.markRemote()
	r.buildInvalidate()
	return r, nil
}

// crossFilter selects the writer PEs whose epoch writes dirty PE p's cache
// in the software-visible sense: every other PE without domains, only
// other-domain PEs with them.
func (r *Result) crossFilter() func(q, p int) bool {
	dom := r.opts.Domains
	if dom == nil {
		return func(q, p int) bool { return q != p }
	}
	return func(q, p int) bool { return q != p && dom[q] != dom[p] }
}

// intraFilter selects the same-domain peer writers (hardware-coherent
// dirt), or nil when there are no multi-PE domains.
func (r *Result) intraFilter() func(q, p int) bool {
	dom := r.opts.Domains
	if dom == nil {
		return nil
	}
	return func(q, p int) bool { return q != p && dom[q] == dom[p] }
}

// markRemote flags reads whose per-PE section leaves the PE's own slab of
// the distributed dimension.
func (r *Result) markRemote() {
	for _, sum := range r.Summaries {
		for _, ra := range sum.Refs {
			if ra.IsWrite || !ra.Ref.Array.Shared || ra.Ref.Array.Dist != ir.DistBlock {
				continue
			}
			arr := ra.Ref.Array
			lastDim := arr.Rank() - 1
			for p := 0; p < r.NumPE; p++ {
				if ra.PerPE[p].IsEmpty() {
					continue
				}
				slab := craft.OwnerSlab(arr, r.NumPE, p)
				for _, rect := range ra.PerPE[p].Rects() {
					if rect.Lo[lastDim] < slab.Lo || rect.Hi[lastDim] > slab.Hi {
						r.RemoteReads[ra.Ref.ID] = true
						if _, ok := r.RemoteWhy[ra.Ref.ID]; !ok {
							r.RemoteWhy[ra.Ref.ID] = fmt.Sprintf(
								"PE %d reads %s[..,%d:%d] beyond its own slab [%d:%d] of the distributed dimension",
								p, arr.Name, rect.Lo[lastDim], rect.Hi[lastDim], slab.Lo, slab.Hi)
						}
					}
				}
			}
		}
	}
}

// fixpoint runs the worklist dataflow computing the per-node entry dirty
// state whose generating writers are selected by gens (cross-domain or
// intra-domain peers). The kill set is the same either way — any coherent
// access by p itself refreshes its copies regardless of who dirtied them.
func (r *Result) fixpoint(gens func(q, p int) bool) [][][]section.Set {
	n := len(r.Graph.Nodes)
	entry := make([][][]section.Set, n)
	outs := make([][][]section.Set, n)
	for i := 0; i < n; i++ {
		entry[i] = r.emptyState()
	}
	passes := make([]int, n)

	work := []int{}
	inWork := make([]bool, n)
	push := func(i int) {
		if !inWork[i] {
			work = append(work, i)
			inWork[i] = true
		}
	}
	if n > 0 {
		push(0)
	}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		inWork[i] = false
		passes[i]++

		out := r.transfer(i, entry[i], gens)
		if passes[i] > maxPasses {
			widenState(out)
		}
		if outs[i] != nil && statesEqual(outs[i], out) {
			continue
		}
		outs[i] = out
		for _, succ := range r.Graph.Succ[i] {
			merged := mergeState(entry[succ], out)
			if !statesEqual(entry[succ], merged) {
				entry[succ] = merged
				push(succ)
			} else if outs[succ] == nil {
				push(succ)
			}
		}
	}
	return entry
}

// transfer applies one epoch node to the dirty state:
//
//	out_p = (in_p − mustWrite_p − mustRead_p) ∪ ⋃_{gens(q,p)} mayWrite_q
func (r *Result) transfer(node int, in [][]section.Set, gens func(q, p int) bool) [][]section.Set {
	sum := r.Summaries[node]
	out := make([][]section.Set, r.NumPE)
	// Union of other PEs' writes, computed once as total minus own share is
	// not valid for sections; build per-p by excluding q == p.
	for p := 0; p < r.NumPE; p++ {
		cur := slices.Clone(in[p])
		// Kills first: p's own coherent accesses refresh its copies.
		subtract(cur, sum.MustWrite[p])
		if !r.opts.DisableReadRefresh {
			subtract(cur, sum.MustRead[p])
		}
		// Then gen: writes by every selected other PE in this epoch.
		for q := 0; q < r.NumPE; q++ {
			if gens(q, p) {
				union(cur, sum.MayWrite[q])
			}
		}
		out[p] = cur
	}
	return out
}

// subtract removes kill from cur, slot by slot.
func subtract(cur, kill []section.Set) {
	for a, k := range kill {
		if !k.IsEmpty() {
			cur[a] = cur[a].Subtract(k)
		}
	}
}

// union adds add to cur, slot by slot. Empty sets are skipped, approx bit
// and all: an empty region dirties nothing.
func union(cur, add []section.Set) {
	for a, s := range add {
		if !s.IsEmpty() {
			cur[a] = cur[a].Union(s)
		}
	}
}

// markOverlaps marks every read reference, outside skip, whose per-PE
// section meets that PE's region in state at entry to its epoch, recording
// the first (epoch, PE) witness through reason.
func (r *Result) markOverlaps(state [][][]section.Set, skip, mark map[ir.RefID]bool,
	why map[ir.RefID]string, reason func(p, node int, arr *ir.Array) string) {
	for i, sum := range r.Summaries {
		for _, ra := range sum.Refs {
			if ra.IsWrite || skip[ra.Ref.ID] {
				continue
			}
			for p := 0; p < r.NumPE; p++ {
				if !state[i][p][ra.slot].Overlaps(ra.PerPE[p]) {
					continue
				}
				mark[ra.Ref.ID] = true
				if _, ok := why[ra.Ref.ID]; !ok {
					why[ra.Ref.ID] = reason(p, i, ra.Ref.Array)
				}
				break
			}
		}
	}
}

// markStale flags read refs whose section meets the reader's dirty region.
func (r *Result) markStale() {
	r.markOverlaps(r.DirtyAtEntry, nil, r.StaleReads, r.Why, func(p, i int, arr *ir.Array) string {
		return fmt.Sprintf("PE %d's read section of %s overlaps its dirty region at entry to epoch %d (%s)",
			p, arr.Name, i, r.Graph.Nodes[i].Kind())
	})
}

// markDemoted records the reads the domain split rescued: references that
// overlap some PE's intra-domain dirt (so the blind analysis would have
// marked them potentially stale) but no PE's cross-domain dirt (so they are
// not in StaleReads). Their stale copies are the domain hardware's problem,
// already invalidated for free by epoch entry.
func (r *Result) markDemoted() {
	if r.IntraDirty == nil {
		return
	}
	r.markOverlaps(r.IntraDirty, r.StaleReads, r.DemotedIntra, r.DemotedWhy, func(p, i int, arr *ir.Array) string {
		return fmt.Sprintf("PE %d's read section of %s is dirtied only by PEs of its own coherence domain %d at entry to epoch %d — hardware keeps the copy coherent, demoted to non-stale",
			p, arr.Name, r.opts.Domains[p], i)
	})
}

// buildInvalidate computes per-node per-PE invalidation regions: the
// software set from the cross-domain dirty state and, with domains, the
// modeled hardware set from the intra-domain state.
func (r *Result) buildInvalidate() {
	build := func(state [][][]section.Set) [][][]section.Set {
		out := make([][][]section.Set, len(r.Summaries))
		for i, sum := range r.Summaries {
			out[i] = make([][]section.Set, r.NumPE)
			for p := 0; p < r.NumPE; p++ {
				inv := emptySections(r.Graph.Prog.Arrays)
				for a, rd := range sum.MayRead[p] {
					if is := state[i][p][a].Intersect(rd); !is.IsEmpty() {
						inv[a] = is
					}
				}
				out[i][p] = inv
			}
		}
		return out
	}
	r.Invalidate = build(r.DirtyAtEntry)
	if r.IntraDirty != nil {
		r.HWInvalidate = build(r.IntraDirty)
	}
}

// StaleInNode returns the stale read refs that occur in epoch node n,
// sorted by RefID.
func (r *Result) StaleInNode(n int) []*ir.Ref {
	var out []*ir.Ref
	for _, ra := range r.Summaries[n].Refs {
		if !ra.IsWrite && r.StaleReads[ra.Ref.ID] {
			out = append(out, ra.Ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Report renders a human-readable summary for the ccdpc driver.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stale reference analysis: %d epochs, %d PEs\n", len(r.Graph.Nodes), r.NumPE)
	for i, n := range r.Graph.Nodes {
		fmt.Fprintf(&b, "epoch %d (%s)", i, n.Kind())
		if n.Parallel {
			fmt.Fprintf(&b, " doall %s", n.Loop.Var)
		}
		fmt.Fprintf(&b, ": ")
		stale := r.StaleInNode(i)
		if len(stale) == 0 {
			b.WriteString("no potentially-stale references\n")
			continue
		}
		parts := make([]string, len(stale))
		for k, ref := range stale {
			parts[k] = ref.String()
		}
		fmt.Fprintf(&b, "potentially-stale: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}

func (r *Result) emptyState() [][]section.Set {
	out := make([][]section.Set, r.NumPE)
	for p := range out {
		out[p] = emptySections(r.Graph.Prog.Arrays)
	}
	return out
}

func mergeState(a, b [][]section.Set) [][]section.Set {
	out := make([][]section.Set, len(a))
	for p := range a {
		out[p] = slices.Clone(a[p])
		union(out[p], b[p])
	}
	return out
}

// statesEqual compares two dataflow states slot by slot: two non-empty
// sections are equal when their points and approx bits are. Any two empty
// sections are equal, approx bit or not. The approx bit of an empty section
// comes from a kill that emptied an approximate region. It never reaches an
// entry state, because union skips empty sets. So two states that differ
// only there merge into every successor identically, and fixpoint's answer
// to "did the output change" cannot change what it computes (the core
// package's TestAnalysisPinned reaches this case and pins the result).
func statesEqual(a, b [][]section.Set) bool {
	for p := range a {
		for i, x := range a[p] {
			y := b[p][i]
			if x.IsEmpty() && y.IsEmpty() {
				continue
			}
			if x.Approx() != y.Approx() || !x.EqualPoints(y) {
				return false
			}
		}
	}
	return true
}

func widenState(st [][]section.Set) {
	for _, sets := range st {
		for i, s := range sets {
			if !s.Approx() {
				sets[i] = s.Widen()
			}
		}
	}
}
