// Package pfq models the T3D's per-PE prefetch hardware: the DTB Annex
// setup path and the 16-word prefetch queue. A prefetch instruction moves
// one 64-bit word from a (remote) memory into the queue; the processor
// later extracts it. Entries occupy queue slots from issue until
// extraction; issuing into a full queue drops the prefetch (the read then
// falls back to a bypass-cache fetch, paper §3.2).
//
// The real queue is a FIFO popped in issue order; the model matches entries
// by address, which is equivalent for the compiler-scheduled access
// patterns (each issued word is extracted exactly once, in order).
//
// The queue is allocation-free in steady state, which matters because it
// sits on the engine's per-word hot path: the backing array is allocated
// once in New with the full capacity, Issue appends within that capacity,
// Take deletes by sliding within the same array, and Flush re-slices to
// zero length. BenchmarkQueueSteadyState pins this at 0 allocs/op.
package pfq

// Entry is one outstanding or arrived prefetched word.
type Entry struct {
	Addr    int64
	Val     float64
	Gen     uint32
	ReadyAt int64 // cycle at which the word arrives in the queue
}

// Queue is a bounded per-PE prefetch queue.
type Queue struct {
	cap     int
	entries []Entry

	// Counters.
	Issued, Dropped, Consumed, Flushed int64
}

// New builds a queue with the given capacity in words.
func New(capacity int) *Queue {
	return &Queue{cap: capacity, entries: make([]Entry, 0, capacity)}
}

// NewFleet builds count queues of the same capacity out of one entry slab
// (two allocations total; see cache.NewFleet for why).
func NewFleet(count, capacity int) []*Queue {
	qs := make([]Queue, count)
	slab := make([]Entry, count*capacity)
	out := make([]*Queue, count)
	for i := range qs {
		qs[i].cap = capacity
		qs[i].entries = slab[i*capacity : i*capacity : (i+1)*capacity]
		out[i] = &qs[i]
	}
	return out
}

// Reset empties the queue and zeroes the counters, returning it to its
// just-built state without reallocating (engine reuse across runs).
func (q *Queue) Reset() {
	q.entries = q.entries[:0]
	q.Issued, q.Dropped, q.Consumed, q.Flushed = 0, 0, 0, 0
}

// Len returns the number of occupied slots.
func (q *Queue) Len() int { return len(q.entries) }

// Issue inserts a prefetched word; it reports false (and counts a drop)
// when the queue is full.
func (q *Queue) Issue(e Entry) bool {
	if len(q.entries) >= q.cap {
		q.Dropped++
		return false
	}
	q.entries = append(q.entries, e)
	q.Issued++
	return true
}

// Take extracts the oldest entry for addr, reporting whether one existed.
func (q *Queue) Take(addr int64) (Entry, bool) {
	for i := range q.entries {
		if q.entries[i].Addr == addr {
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.Consumed++
			return e, true
		}
	}
	return Entry{}, false
}

// Flush discards all entries (epoch boundary) and returns how many words
// were fetched but never used.
func (q *Queue) Flush() int64 {
	n := int64(len(q.entries))
	q.Flushed += n
	q.entries = q.entries[:0]
	return n
}
