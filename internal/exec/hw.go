package exec

import (
	"repro/internal/coherence"
	"repro/internal/coherence/prefetch"
	"repro/internal/trace"
)

// This file is the engine's hardware coherence layer — the HWDIR modes of
// the coherence arena. Shared data is cached like INCOHERENT, but a
// home-node directory (internal/coherence) tracks every copy and keeps
// them coherent with invalidations, recalls and writebacks; every protocol
// message is booked (over the torus when one is configured) and counted in
// the Coh* stats, so the arena table can split traffic into data vs
// coherence and hold the hardware's message and storage costs against
// CCDP's zero.
//
// Functionally the caches stay write-through — memory is updated on every
// store before the protocol round runs — so the coherence oracle and the
// golden-value comparison hold against exactly the same ground truth as
// the software modes: any copy an invalidation should have dropped but
// didn't is a stale-value read the oracle flags. That is the sabotage
// switch's (machine.DirDropInvalidations) whole purpose.
//
// The MESI state byte rides in each cache line (cache.Line.State); the
// directory's protocol decisions drive the accounting: E fills upgrade
// silently, S writers run an invalidation round, M victims and recalls
// write a full line back. An invalidation mutates OTHER PEs' caches
// mid-epoch, which is sound because parallel epochs run their PEs
// sequentially in PE-major order (exec.parallelEpoch).

// hwState is the engine's per-run hardware coherence state, non-nil only
// in the HWDIR modes.
type hwState struct {
	dir *coherence.Directory
	// noInv is the fuzz campaign's sabotage: invalidation messages are
	// booked and counted as sent, but the target caches keep their copies
	// — the coherence oracle must catch the resulting stale reads.
	noInv bool
}

// cohMsg books one protocol message from src to dst carrying `words`
// payload words, departing at `at`, and returns its arrival time. Home-
// local directory work (src == dst) is free and uncounted. Over the torus
// the message is routed and contends like any other packet; flat charges
// half a remote round trip (one direction).
func (pe *peState) cohMsg(src, dst int, words, at int64) int64 {
	if src == dst {
		return at
	}
	pe.stats.CohMessages++
	if tr := pe.tr; tr != nil {
		arrive, _ := tr.Send(src, dst, words, at, 0)
		return arrive
	}
	return at + pe.eng.c.Machine.RemoteReadCostFor(src, dst)/2
}

// hwDrop delivers one invalidation to PE sp's copy of line la — unless the
// sabotage switch is on, in which case the message was already booked but
// the copy survives for the oracle to catch.
func (pe *peState) hwDrop(sp *peState, la int64) {
	if pe.eng.hw.noInv {
		return
	}
	if sp.cache.InvalidateLine(la) {
		pe.stats.CohInvRecv++
	}
}

// hwLineWriteback returns the payload a holder sends home when giving up
// its copy of la: the full line if the copy is Modified (counted as a
// writeback), one word of ack otherwise.
func (pe *peState) hwLineWriteback(sp *peState, la int64) int64 {
	if coherence.LineState(sp.cache.State(la)) == coherence.Modified {
		pe.stats.CohWritebacks++
		return pe.eng.c.Machine.LineWords
	}
	return 1
}

// hwFill fetches line la into pe's cache through the directory — the fill
// path shared by demand misses and runtime prefetches. It books the
// protocol's side effects in order (sparse entry eviction, exclusive-owner
// recall, the line transfer, a dirty victim's writeback), installs the
// line in the granted MESI state, and returns the completion time. Demand
// reads stall to it; prefetch fills leave it as the line's ReadyAt.
func (pe *peState) hwFill(la, at, spike int64) int64 {
	e := pe.eng
	hw := e.hw
	mp := &e.c.Machine
	m := e.mem
	home := m.OwnerOf(la)
	line := la / mp.LineWords

	rr := hw.dir.Read(line, home, pe.id)

	// Allocating a sparse entry may have evicted another line's entry: the
	// directory cannot track a line without one, so the evicted line's
	// sharers are invalidated (eviction-induced invalidation).
	if rr.EvictedLine >= 0 {
		evLA := rr.EvictedLine * mp.LineWords
		evHome := m.OwnerOf(evLA)
		for _, s := range rr.EvictedSharers {
			t := pe.cohMsg(evHome, s, 1, at)
			pe.stats.CohInvSent++
			sp := e.pes[s]
			words := pe.hwLineWriteback(sp, evLA)
			pe.hwDrop(sp, evLA)
			pe.cohMsg(s, evHome, words, t)
		}
	}

	// Exclusive-owner recall: the home asks the owner to downgrade to S; a
	// Modified copy writes the line back, a clean one just acks. The fill
	// cannot complete before the recall round does.
	recallDone := at
	if q := rr.Recall; q >= 0 {
		t := pe.cohMsg(home, q, 1, at)
		qp := e.pes[q]
		words := pe.hwLineWriteback(qp, la)
		if st := coherence.LineState(qp.cache.State(la)); st != coherence.Invalid {
			qp.cache.SetState(la, uint8(coherence.Next(st, coherence.EvDowngrade)))
		}
		recallDone = pe.cohMsg(q, home, words, t)
	}

	// The line transfer itself: request to home, full line back.
	var arrive int64
	if home == pe.id {
		arrive = at + mp.LocalMemCost
	} else if tr := pe.tr; tr != nil {
		arrive, _ = tr.RoundTrip(pe.id, home, mp.LineWords, at, spike)
	} else {
		arrive = at + mp.RemoteReadCostFor(pe.id, home) + spike
	}
	if recallDone > arrive {
		arrive = recallDone
	}

	// A dirty conflict victim writes back before the install overwrites
	// it; clean victims drop silently (the directory keeps a superset, so
	// a later invalidation may find nothing — the inv-sent vs inv-recv gap
	// measures that imprecision).
	if tag, st, ok := pe.cache.Victim(la); ok && coherence.LineState(st) == coherence.Modified {
		vHome := m.OwnerOf(tag)
		pe.cohMsg(pe.id, vHome, mp.LineWords, arrive)
		pe.stats.CohWritebacks++
		hw.dir.Evict(tag/mp.LineWords, vHome, pe.id)
	}

	pe.installLine(la, arrive)
	ev := coherence.EvFillShared
	if rr.Excl {
		ev = coherence.EvFillExclusive
	}
	pe.cache.SetState(la, uint8(coherence.Next(coherence.Invalid, ev)))
	return arrive
}

// readMemHW is the HWDIR modes' demand-read path (the cached path of
// readMem with the directory behind every miss).
func (pe *peState) readMemHW(r *cRef, addr int64, home int) float64 {
	e := pe.eng
	mp := &e.c.Machine
	m := e.mem
	la := addr - addr%mp.LineWords

	// Forced-eviction fault: the line is knocked out just before the
	// processor consults it, as in the software modes. The drop is silent
	// (the directory keeps a superset).
	if pe.fault != nil && pe.cache.Contains(addr) && pe.fault.EvictLine() {
		pe.cache.InvalidateLine(la)
	}

	if val, gen, readyAt, hit := pe.cache.Lookup(addr); hit {
		pe.now += mp.HitCost
		if readyAt > pe.now {
			pe.now = readyAt
		}
		if pe.fault != nil && !e.hw.noInv && gen != m.Gen(addr) {
			// Degraded mode: never consume a stale hit — drop the line and
			// fall through to a fresh directory fill (§3.2 analog). Stays
			// off under sabotage, whose stale hits the oracle must see.
			pe.cache.InvalidateLine(la)
			pe.demote()
		} else {
			if pe.hwPrefetched != nil && pe.hwPrefetched.Contains(la/mp.LineWords) {
				pe.stats.HWPrefUseful++
			}
			pe.oracleCheck(r, addr, gen)
			pe.record(addr, trace.KindHit)
			pe.hwObserve(r, addr, false)
			return val
		}
	}

	// Demand miss: fill the whole line through the directory.
	pe.now = pe.hwFill(la, pe.now, pe.remoteSpike())
	if home == pe.id {
		pe.stats.LocalReads++
		pe.record(addr, trace.KindMiss)
	} else {
		pe.stats.RemoteReads++
		pe.record(addr, trace.KindRemote)
	}
	v, g := m.Read(addr)
	pe.oracleCheck(r, addr, g)
	pe.hwObserve(r, addr, true)
	return v
}

// writeHW is the HWDIR modes' store path: the functional write-through to
// memory already happened (gen is its generation); here the directory
// invalidates every other copy and the MESI state advances. addrHome is
// addr's home PE.
func (pe *peState) writeHW(addr int64, v float64, gen uint32, addrHome int) {
	e := pe.eng
	mp := &e.c.Machine
	hw := e.hw
	la := addr - addr%mp.LineWords
	line := la / mp.LineWords
	home := e.mem.OwnerOf(la)

	switch st := coherence.LineState(pe.cache.State(addr)); st {
	case coherence.Exclusive, coherence.Modified:
		// Silent upgrade: the directory already records this PE as the
		// sole exclusive owner — no message.
		pe.cache.SetState(addr, uint8(coherence.Next(st, coherence.EvStore)))
		pe.cache.UpdateWord(addr, v, gen)
	case coherence.Shared:
		// Hit on a shared copy: ownership round through the home.
		wr := hw.dir.Write(line, home, pe.id, true)
		pe.hwInvRound(home, la, wr.Sharers, wr.Broadcast)
		pe.cache.SetState(addr, uint8(coherence.Modified))
		pe.cache.UpdateWord(addr, v, gen)
	default:
		// Write miss (no-write-allocate): every cached copy elsewhere is
		// invalidated and the line ends uncached.
		wr := hw.dir.Write(line, home, pe.id, false)
		if len(wr.Sharers) > 0 || wr.Broadcast {
			pe.hwInvRound(home, la, wr.Sharers, wr.Broadcast)
		}
	}

	if addrHome == pe.id {
		pe.now += mp.LocalWriteCost
		pe.stats.LocalWrites++
	} else {
		pe.chargeRemoteWrite(addrHome)
	}
}

// hwInvRound runs one store's invalidation round: writer notifies home,
// home invalidates each sharer, sharers ack (Modified copies write the
// line back), home grants ownership. The writer stalls until the grant —
// which waits on the last ack — arrives.
func (pe *peState) hwInvRound(home int, la int64, sharers []int, broadcast bool) {
	e := pe.eng
	if broadcast {
		pe.stats.CohBroadcasts++
	}
	t0 := pe.cohMsg(pe.id, home, 1, pe.now)
	done := t0
	for _, s := range sharers {
		t := pe.cohMsg(home, s, 1, t0)
		pe.stats.CohInvSent++
		sp := e.pes[s]
		words := pe.hwLineWriteback(sp, la)
		pe.hwDrop(sp, la)
		if ta := pe.cohMsg(s, home, words, t); ta > done {
			done = ta
		}
	}
	if grant := pe.cohMsg(home, pe.id, 1, done); grant > pe.now {
		pe.now = grant
	}
}

// hwObserve feeds the runtime prefetcher one demand access and issues its
// suggestions as non-blocking directory fills: the PE's clock does not
// advance, the filled lines' ReadyAt carries the arrival, and a demand hit
// before then stalls — exactly the software prefetch queue's late-arrival
// semantics, without the queue.
func (pe *peState) hwObserve(r *cRef, addr int64, miss bool) {
	if pe.hwPref == nil {
		return
	}
	mp := &pe.eng.c.Machine
	pe.prefScratch = pe.hwPref.Observe(int64(r.src.ID), addr, miss, pe.prefScratch[:0])
	issued := 0
	for _, la := range pe.prefScratch {
		if issued >= mp.HWPrefetchDegree {
			break
		}
		if la < 0 || la >= pe.eng.mem.Words() || pe.cache.Contains(la) {
			continue
		}
		if pe.fault != nil && pe.fault.DropPrefetch() {
			// Lost in flight, as in the software modes: nothing arrives
			// and the demand stream pays its own miss later.
			continue
		}
		pe.hwFill(la, pe.now, 0)
		pe.stats.HWPrefIssued++
		pe.hwPrefetched.Add(la / mp.LineWords)
		issued++
	}
}

// newHWPrefetcher builds the machine's configured runtime prefetcher, or
// nil when none is named.
func newHWPrefetcher(name string, lineWords int64) (prefetch.Prefetcher, error) {
	if name == "" {
		return nil, nil
	}
	return prefetch.New(name, lineWords)
}
