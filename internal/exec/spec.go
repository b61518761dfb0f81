// Optimistic torus epochs: speculate, validate against the canonical
// PE-major booking order, roll back and re-execute mis-speculations.
//
// No PE ever waits on another during the concurrent phase: each PE runs
// its whole epoch chunk against a PRIVATE predictor network (same
// topology, seeded empty every epoch) and records the transport calls it
// made with the results it assumed (noc.SpecRecorder). A serial validation
// pass then replays every PE's recorded ops onto the real network in the
// canonical PE-major order. Predictions that match commit for free; the
// first round-trip whose real arrival differs convicts the PE, whose state
// is rolled back to the epoch-entry snapshot and whose chunk is re-executed
// serially with the already-validated prefix served from a memo
// (memoTransport) and the rest booked live.
//
// Speculation races on memory as well as on link timing: chunks run
// concurrently against the one shared memory, so a chunk can capture a word
// another PE writes in the same epoch — directly (a consumed read) or as a
// bystander (a demand fill or vector get copies the whole line, neighbor
// words included, into the cache or prefetch queue with whatever value and
// generation the race happened to expose). The validation phase therefore
// first rewinds every PE's speculative writes (the undo log's pre-images,
// reverse PE-major, reverse program order), returning memory to its
// epoch-entry state, and then settles PEs in canonical PE-major order:
//
//   - Hazard conviction. A PE that consumed a word some OTHER PE wrote this
//     epoch read racing memory; its whole chunk is rolled back and
//     re-executed serially against live memory and the live network.
//     Conviction is deterministic even though the racy run was not: consume
//     and write ADDRESSES are data-independent up to the first racy read
//     (addresses are affine in induction variables), so the first
//     cross-PE-written word a chunk consumes is fixed by the program, and
//     one such word is all a conviction needs.
//   - Timing conviction. Otherwise the PE's recorded transport ops replay
//     onto the real network (noc.Network.ValidateOps); the first round trip
//     whose real arrival differs convicts the PE, which rolls back and
//     re-executes with the validated prefix memo-served and the rest booked
//     live.
//   - Clean commit. A PE convicted of neither produced canonical values and
//     timing; its writes reapply from the undo log's post-images (forward
//     order, so the newest write to an address wins), and the captured line
//     fills and prefetch-queue entries are repaired from what is now
//     canonical memory (repairPE) — its own writes excluded for the queue,
//     whose pre-write captures are genuine simulated behavior.
//
// Convergence: the engine consumes only round-trip results (arrival cycle,
// and whether the wait exceeded the drop threshold); Send results are
// discarded everywhere. When PE p settles, memory holds exactly the
// epoch-entry words plus the committed writes of PEs 0..p-1, and the
// network holds exactly their canonical bookings — precisely what the
// canonical serial run would present to p's chunk. A clean PE's state is
// canonical after repair by the hazard check's contrapositive (every word
// it consumed carried its canonical value, and every word it merely
// captured is repaired); a convicted PE's re-execution is canonical by
// construction. One re-execution per convicted PE suffices; there is no
// cascading rollback, and the fixed point is the canonical placement bit
// for bit.
package exec

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/pfq"
	"repro/internal/stats"
)

// memUndo is one word of the speculative write log: the raw bits and
// generation the word held before this PE's write (mem.PeekBits, the
// rewind direction) and the ones the write stored (the reapply direction
// for clean commits). Bits survive NaN payloads a float64 copy could not.
type memUndo struct {
	addr            int64
	preBits         uint64
	postBits        uint64
	preGen, postGen uint32
}

// peSnap is a PE's epoch-entry state, captured before speculation and
// reinstated on rollback. Everything a chunk can mutate is covered: the
// clock, the per-PE stats, cache and prefetch queue, scalars and the
// variable environment. All buffers are engine-reused across epochs.
type peSnap struct {
	now     int64
	demoted int64
	stats   stats.Stats

	scalars       []float64
	scalarWritten []bool
	env           []int64
	bound         []bool

	cache cache.Snapshot
	pq    pfq.Snapshot
}

// save records pe's restorable state into s.
func (s *peSnap) save(pe *peState) {
	s.now, s.demoted, s.stats = pe.now, pe.demoted, pe.stats
	s.scalars = append(s.scalars[:0], pe.scalars...)
	s.scalarWritten = append(s.scalarWritten[:0], pe.scalarWritten...)
	s.env = append(s.env[:0], pe.env...)
	s.bound = append(s.bound[:0], pe.bound...)
	pe.cache.Save(&s.cache)
	pe.pq.Save(&s.pq)
}

// restore returns pe to the state save recorded. The register window, the
// vector-buffer line set and the vector address scratch are cleared rather
// than snapshotted: all three are empty at epoch entry (regs clear at every
// iteration boundary, the buffer resets at the preceding barrier).
func (s *peSnap) restore(pe *peState) {
	pe.now, pe.demoted, pe.stats = s.now, s.demoted, s.stats
	copy(pe.scalars, s.scalars)
	copy(pe.scalarWritten, s.scalarWritten)
	copy(pe.env, s.env)
	copy(pe.bound, s.bound)
	pe.cache.Restore(&s.cache)
	pe.pq.Restore(&s.pq)
	pe.clearRegs()
	pe.buffered.Reset()
	pe.vpAddrs = pe.vpAddrs[:0]
}

// memoTransport replays a convicted PE's validated op prefix during
// re-execution: the first len(ops) transport calls are served from the
// recorded (now canonical — ValidateOps overwrote them) results without
// booking anything, because ValidateOps already placed them on the real
// network; every call after the prefix books live. A kind or endpoint
// mismatch means re-execution diverged from the speculative run before the
// mispredicted op, which the convergence argument rules out — panic loudly.
type memoTransport struct {
	net *noc.Network
	ops []noc.SpecOp
	i   int
}

func (m *memoTransport) take(rt bool, from, to int) *noc.SpecOp {
	op := &m.ops[m.i]
	if op.RT != rt || int(op.From) != from || int(op.To) != to {
		panic(fmt.Sprintf("exec: re-execution diverged at op %d: got rt=%v %d->%d, recorded rt=%v %d->%d",
			m.i, rt, from, to, op.RT, op.From, op.To))
	}
	m.i++
	return op
}

func (m *memoTransport) Send(from, to int, payload, depart, hotExtra int64) (arrive, maxWait int64) {
	if m.i < len(m.ops) {
		op := m.take(false, from, to)
		return op.Arrive, op.Wait
	}
	return m.net.Send(from, to, payload, depart, hotExtra)
}

func (m *memoTransport) RoundTrip(src, dst int, payload, depart, hotExtra int64) (arrive, maxWait int64) {
	if m.i < len(m.ops) {
		op := m.take(true, src, dst)
		return op.Arrive, op.Wait
	}
	return m.net.RoundTrip(src, dst, payload, depart, hotExtra)
}

func (m *memoTransport) DropWaitCycles() int64 { return m.net.DropWaitCycles() }

// --- Worker pool -------------------------------------------------------------

// runPE executes PE p's share of the current parallel epoch (the loop is
// staged in e.curLoop by parallelEpoch). Shared by every execution branch:
// sequential, optimistic speculation and re-execution, and the flat
// work-stealing fan-out.
func (e *Engine) runPE(p int) {
	defer func() {
		if r := recover(); r != nil {
			e.errs[p] = fmt.Errorf("PE %d: %v", p, r)
		}
	}()
	pe := e.pes[p]
	if e.opts.DetectRaces {
		if pe.raceRd == nil {
			pe.raceRd = bitset.NewSparse(e.mem.Words())
			pe.raceWr = bitset.NewSparse(e.mem.Words())
		}
		pe.reads = pe.raceRd
		pe.writes = pe.raceWr
	}
	switch e.c.Mode {
	case core.ModeBase:
		pe.now += e.c.Machine.CraftDosharedSetupCost
	case core.ModeCCDP:
		pe.now += e.c.Machine.CCDPLoopSetupCost
	}
	e.errs[p] = pe.runDoall(e.curLoop)
}

// worker is one parked pool goroutine; it owns PE p across the Engine's
// whole lifetime and runs the PE's chunk of the staged loop each time it
// is woken.
func (e *Engine) worker(p int) {
	for range e.wake[p] {
		e.runPE(p)
		e.poolWG.Done()
	}
}

// fanOut wakes one pool worker per PE and waits for all of them. Workers
// are spawned once per Engine, on the first speculative epoch, and park on
// their wake channels between epochs — repeated Runs spawn nothing.
func (e *Engine) fanOut() {
	if e.wake == nil {
		e.wake = make([]chan struct{}, len(e.pes))
		for p := range e.wake {
			e.wake[p] = make(chan struct{}, 1)
			go e.worker(p)
		}
	}
	e.poolWG.Add(len(e.pes))
	for _, ch := range e.wake {
		ch <- struct{}{}
	}
	e.poolWG.Wait()
}

// Close releases the Engine's parked worker goroutines. Needed by callers
// that build Engines with New and want the goroutines gone while the Engine
// is idle — a parked worker is a GC root that keeps its Engine reachable
// (the per-Compiled pool in pool.go closes engines before parking them for
// exactly this reason). Close does not retire the Engine: a later Run's
// first concurrent epoch respawns the workers.
func (e *Engine) Close() {
	for _, ch := range e.wake {
		close(ch)
	}
	e.wake = nil
}

// --- Speculative epoch -------------------------------------------------------

// specEpoch runs one parallel torus epoch optimistically. Phases:
//
//  1. Snapshot every PE and point it at its private predictor recorder.
//  2. Run all PEs concurrently; each records its transport ops and its
//     memory captures (consumed words, installed lines, write log).
//  3. Rewind every PE's speculative writes, returning memory to its
//     epoch-entry state.
//  4. Serially, in PE-major order: convict on a read-write hazard or on the
//     first mispredicted round trip, roll the convict back and re-execute
//     its chunk serially (canonical by construction); commit a clean PE by
//     reapplying its writes and repairing its speculative captures from
//     canonical memory. See the package comment for the full argument.
//
// Under machine.PDESNoRollback (fuzz sabotage) the mispredicted timings
// survive and the recorded tail books as if it had validated, so per-PE
// timing silently diverges from the canonical order — the divergence the
// fuzz referee must flag. The capture repair still runs (against as-is
// memory, which then holds every PE's writes): the mutation breaks timing
// canonicalization specifically, not replay determinism.
func (e *Engine) specEpoch() {
	mp := e.c.Machine
	if e.recs == nil {
		preds, err := noc.NewFleet(domainTopo(mp), mp.NumPE, len(e.pes))
		if err != nil {
			// New validated the topology already; a failure here is an
			// engine bug, not an input error.
			panic(fmt.Sprintf("exec: predictor fleet: %v", err))
		}
		e.recs = make([]*noc.SpecRecorder, len(e.pes))
		for p := range e.recs {
			e.recs[p] = noc.NewSpecRecorder(preds[p])
		}
		e.memos = make([]memoTransport, len(e.pes))
	}
	e.beginMemSpec()
	for p, pe := range e.pes {
		e.recs[p].BeginEpoch()
		pe.tr = e.recs[p]
	}
	e.mem.SetSerial(false)
	e.fanOut()
	e.mem.SetSerial(true)

	for _, err := range e.errs {
		if err != nil {
			// A PE chunk failed (program bug): the run aborts before any
			// result is read, so skip validation and just de-speculate.
			for _, pe := range e.pes {
				pe.spec = false
				pe.tr = e.net
			}
			return
		}
	}

	if mp.PDESNoRollback {
		for p, pe := range e.pes {
			ops := e.recs[p].Ops
			if k := e.net.ValidateOps(ops); k < len(ops) {
				e.net.BookOps(ops[k+1:])
			}
			e.beginValidate(pe)
			e.repairPE(pe)
			e.commitPE(pe)
		}
		return
	}

	e.rewindMem()
	for p, pe := range e.pes {
		e.beginValidate(pe)
		switch ops := e.recs[p].Ops; {
		case e.hazard(pe):
			// The chunk consumed a word another PE was writing: every value
			// it computed is suspect, so none of its recorded ops validate.
			// Re-execution books its traffic live, in canonical position.
			e.specRollbacks++
			e.rollbackPE(p)
			pe.tr = e.net
			e.runPE(p)
			if e.errs[p] != nil {
				return
			}
		default:
			if k := e.net.ValidateOps(ops); k < len(ops) {
				e.specRollbacks++
				e.rollbackPE(p)
				m := &e.memos[p]
				*m = memoTransport{net: e.net, ops: ops[:k+1]}
				pe.tr = m
				e.runPE(p)
				if e.errs[p] != nil {
					// Should be impossible (the speculative run of the same
					// chunk succeeded), but don't mask it if it happens.
					return
				}
			} else {
				// Clean: reapply this PE's writes (forward, newest last),
				// then repair its speculative captures from what is now
				// canonical memory.
				for i := range pe.undo {
					u := &pe.undo[i]
					e.mem.RestoreBits(u.addr, u.postBits, u.postGen)
				}
				e.repairPE(pe)
			}
		}
		e.commitPE(pe)
	}
}

// beginMemSpec snapshots every PE, arms its capture logs and marks it
// speculative — the memory half of the speculation setup, shared by the
// optimistic torus epoch and the flat concurrent epoch.
func (e *Engine) beginMemSpec() {
	if e.snaps == nil {
		e.snaps = make([]peSnap, len(e.pes))
		words := e.mem.Words()
		e.wAll = bitset.NewSparse(words)
		e.wrote = bitset.NewSparse(words)
		for _, pe := range e.pes {
			pe.consumed = bitset.NewSparse(words)
		}
	}
	for p, pe := range e.pes {
		e.snaps[p].save(pe)
		pe.spec = true
		pe.consumed.Reset()
		pe.filled = pe.filled[:0]
	}
}

// rewindMem returns memory to its epoch-entry state (reverse PE-major,
// reverse program order, so interleaved multi-write histories unwind
// cleanly) and rebuilds the epoch write set.
func (e *Engine) rewindMem() {
	for p := len(e.pes) - 1; p >= 0; p-- {
		undo := e.pes[p].undo
		for i := len(undo) - 1; i >= 0; i-- {
			u := &undo[i]
			e.mem.RestoreBits(u.addr, u.preBits, u.preGen)
		}
	}
	e.wAll.Reset()
	for _, pe := range e.pes {
		for i := range pe.undo {
			e.wAll.Add(pe.undo[i].addr)
		}
	}
}

// settleFlat is the flat concurrent epoch's serial settlement: there is no
// link state, so a PE is settled by hazard conviction (rollback plus serial
// re-execution against live memory) or by a clean redo-and-repair commit —
// the memory half of specEpoch's protocol, with nothing to time-validate.
func (e *Engine) settleFlat() {
	for _, err := range e.errs {
		if err != nil {
			// A PE chunk failed (program bug): the run aborts before any
			// result is read, so skip settlement and just de-speculate.
			for _, pe := range e.pes {
				pe.spec = false
			}
			return
		}
	}
	e.rewindMem()
	for p, pe := range e.pes {
		e.beginValidate(pe)
		if e.hazard(pe) {
			e.specRollbacks++
			e.rollbackPE(p)
			e.runPE(p)
			if e.errs[p] != nil {
				return
			}
		} else {
			for i := range pe.undo {
				u := &pe.undo[i]
				e.mem.RestoreBits(u.addr, u.postBits, u.postGen)
			}
			e.repairPE(pe)
		}
		e.commitPE(pe)
	}
}

// beginValidate stages PE pe's own epoch write set into e.wrote (the hazard
// check excludes it; the queue repair skips it).
func (e *Engine) beginValidate(pe *peState) {
	e.wrote.Reset()
	for i := range pe.undo {
		e.wrote.Add(pe.undo[i].addr)
	}
}

// hazard reports whether pe consumed a word some other PE wrote in this
// epoch — a cross-PE read-write race speculation cannot have resolved
// canonically. One pass over the PE's consumed set against the epoch write
// set keeps the whole phase O(reads + writes) per epoch.
func (e *Engine) hazard(pe *peState) bool {
	for _, a := range pe.consumed.Members() {
		if e.wAll.Contains(a) && !e.wrote.Contains(a) {
			return true
		}
	}
	return false
}

// repairPE replaces pe's speculatively captured line fills and
// prefetch-queue entries with their canonical contents, read from memory as
// it stands at the PE's settlement turn. Queue entries for the PE's own
// epoch writes are left alone: an entry issued ahead of the write holds the
// pre-write word in the canonical order too (the prefetched-too-early
// hazard the paper's scheduler exists to avoid), and one issued after it
// already holds the post-write word.
func (e *Engine) repairPE(pe *peState) {
	m := e.mem
	lw := e.c.Machine.LineWords
	vals, gens := pe.shScratch.LineBuffers()
	for _, la := range pe.filled {
		for k := int64(0); k < lw; k++ {
			if la+k < m.Words() {
				vals[k], gens[k] = m.Read(la + k)
			} else {
				vals[k], gens[k] = 0, 0
			}
		}
		pe.cache.Refresh(la, vals, gens)
	}
	for i, ents := 0, pe.pq.Entries(); i < len(ents); i++ {
		en := &ents[i]
		if e.wrote.Contains(en.Addr) {
			continue
		}
		en.Val, en.Gen = m.Read(en.Addr)
	}
}

// rollbackPE discards PE p's speculative epoch: the capture logs and
// buffered state drop, and the epoch-entry snapshot is reinstated. Memory
// needs no undoing here — specEpoch rewound every PE's writes wholesale
// before validation began.
func (e *Engine) rollbackPE(p int) {
	pe := e.pes[p]
	pe.undo = pe.undo[:0]
	pe.pendViol = pe.pendViol[:0]
	pe.consumed.Reset()
	pe.filled = pe.filled[:0]
	e.snaps[p].restore(pe)
}

// commitPE finalizes a PE's (now canonical) epoch: buffered oracle
// violations merge into the engine's record in deterministic PE-major
// order, and the PE returns to the real network transport.
func (e *Engine) commitPE(pe *peState) {
	for i := range pe.pendViol {
		if len(e.violations) < maxRecordedViolations {
			e.violations = append(e.violations, pe.pendViol[i])
		}
		if e.opts.FailOnStale && e.staleErr == nil {
			e.staleErr = fmt.Errorf("exec: %v", pe.pendViol[i])
		}
	}
	pe.pendViol = pe.pendViol[:0]
	pe.undo = pe.undo[:0]
	pe.spec = false
	// The engine default, NOT e.net: a flat engine's nil *Network must not
	// become a typed-nil Transport the hot paths would then call through.
	pe.tr = e.tr
}

// SpecRollbacks reports how many PE-epochs the optimistic mode rolled back
// and re-executed across the Engine's lifetime of Runs. Observability only
// (wall-clock cost attribution and test non-vacuity); never part of
// simulation results, which rollbacks by construction do not affect.
func (e *Engine) SpecRollbacks() int64 { return e.specRollbacks }

// Compile-time interface checks: both speculative transports must satisfy
// the contract the PE hot paths charge through.
var (
	_ noc.Transport = (*noc.SpecRecorder)(nil)
	_ noc.Transport = (*memoTransport)(nil)
)
