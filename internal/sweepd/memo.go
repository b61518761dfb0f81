package sweepd

import (
	"container/list"
	"sync"
)

// Entry is one memoized (or in-flight) job result. Waiters block on Done;
// after it closes, Data holds the exact NDJSON result payload the first
// computation produced (or Err the job's error), immutable forever — the
// content-addressed guarantee that a repeated point is served
// byte-identically.
type Entry struct {
	Key  Key
	Done chan struct{}
	// Data is the marshaled result payload; Err the job error. Exactly one
	// is set. Written once, before Done closes; read-only afterwards.
	Data []byte
	Err  string

	elem *list.Element // LRU position; nil while in flight
}

// Memo is the content-addressed result store: an LRU-bounded map from job
// key to finished result bytes, with single-flight semantics for
// concurrent requests of the same key — the second requester waits for the
// first computation instead of repeating it.
//
// Because the simulator is deterministic, job errors (a fault plan that
// kills every retry, say) are memoized exactly like results: the same spec
// would fail the same way again.
type Memo struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*Entry
	lru     *list.List // completed entries, most recently used at front

	hits, misses, evictions int64
}

// NewMemo builds a memo bounded to max completed entries (≤ 0 means the
// default of 4096).
func NewMemo(max int) *Memo {
	if max <= 0 {
		max = 4096
	}
	return &Memo{max: max, entries: make(map[Key]*Entry), lru: list.New()}
}

// GetOrStart looks the key up. The boolean reports leadership: true means
// the caller must compute the result and Complete the entry; false means
// another request already did (or is doing) the work — wait on Done. A
// completed hit is counted and refreshed in the LRU order.
func (m *Memo) GetOrStart(k Key) (*Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[k]; ok {
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
			m.hits++
		} else {
			// In flight: the waiter rides the leader's computation. Counted
			// as a hit — the work is shared, not repeated.
			m.hits++
		}
		return e, false
	}
	m.misses++
	e := &Entry{Key: k, Done: make(chan struct{})}
	m.entries[k] = e
	return e, true
}

// Peek returns the completed payload for k without starting anything and
// without blocking: the benchmarkable pure hit path. It refreshes the LRU
// position and counts a hit on success.
func (m *Memo) Peek(k Key) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if !ok || e.elem == nil {
		return nil, false
	}
	m.lru.MoveToFront(e.elem)
	m.hits++
	return e.Data, true
}

// Complete finishes a leader's entry with the result payload (or error),
// publishes it to every waiter, inserts it into the LRU order and evicts
// the oldest completed entries beyond the bound.
func (m *Memo) Complete(e *Entry, data []byte, err error) {
	m.mu.Lock()
	e.Data = data
	if err != nil {
		e.Err = err.Error()
	}
	e.elem = m.lru.PushFront(e)
	for m.lru.Len() > m.max {
		old := m.lru.Back()
		m.lru.Remove(old)
		victim := old.Value.(*Entry)
		delete(m.entries, victim.Key)
		m.evictions++
	}
	m.mu.Unlock()
	close(e.Done)
}

// Forget drops an in-flight entry whose computation could not finish (the
// leader is abandoning it), waking waiters with an error so nobody blocks
// forever. Completed entries are never forgotten — eviction handles those.
func (m *Memo) Forget(e *Entry, err error) {
	m.mu.Lock()
	if e.elem == nil {
		delete(m.entries, e.Key)
		if err != nil {
			e.Err = err.Error()
		}
		m.mu.Unlock()
		close(e.Done)
		return
	}
	m.mu.Unlock()
}

// MemoStats is the memo's observability snapshot.
type MemoStats struct {
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"max_entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
}

// Stats snapshots the counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Entries: m.lru.Len(), MaxEntries: m.max,
		Hits: m.hits, Misses: m.misses, Evictions: m.evictions,
	}
}
