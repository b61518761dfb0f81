package exec

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
)

// One-shot Run calls dominated the simulator's allocation profile: every
// call paid for BuildEpochGraph, compileProgram and a full machine's worth
// of per-PE arenas, then threw them away. The pool below parks idle engines
// on the Compiled program they were built for (via core.Compiled.Memo), so
// repeated Runs of the same compilation — the fuzzing campaign's replay
// loops, the equivalence tests' mode sweeps, the benchmarks — reuse every
// arena the Engine owns. BenchmarkEngineHotPathSWIMTorus64 measures this
// path; its steady state is the cost of detaching a Result plus whatever
// warm-up growth remains.

// maxIdleEngines bounds the engines parked per compilation. Concurrent
// Runs beyond the bound build fresh engines and drop them on return; one
// compilation's cache can never hold more than this many machines' worth
// of memory.
const maxIdleEngines = 4

// enginePool is the per-Compiled idle-engine cache. Engines own no
// goroutines, so a pool that becomes garbage with its Compiled takes its
// engines with it.
type enginePool struct {
	mu   sync.Mutex
	idle []*Engine
}

func poolFor(c *core.Compiled) *enginePool {
	return c.Memo(func() any { return new(enginePool) }).(*enginePool)
}

func (p *enginePool) get() *Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		e := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		return e
	}
	return nil
}

func (p *enginePool) put(e *Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) < maxIdleEngines {
		p.idle = append(p.idle, e)
	}
}

// detach deep-copies everything in the Result that aliases engine-owned
// storage, so the engine can return to the pool (and be overwritten by its
// next Run) while the Result stays valid indefinitely.
func (r *Result) detach() *Result {
	if r == nil {
		return nil
	}
	out := *r
	out.PECycles = append([]int64(nil), r.PECycles...)
	out.Violations = append([]fault.Violation(nil), r.Violations...)
	if r.Mem != nil {
		out.Mem = r.Mem.Clone()
	}
	if r.Net != nil {
		out.Net = r.Net.Clone()
	}
	// StaleByRef is built fresh each Run; no copy needed.
	return &out
}
