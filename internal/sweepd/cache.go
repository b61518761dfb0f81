package sweepd

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
)

// Entry is one cached (or in-flight) value. Waiters block on Done; after
// it closes, Val holds the value the first computation produced, or Err
// its error, immutable forever.
type Entry[K comparable, V any] struct {
	Key  K
	Done chan struct{}
	// Val and Err are written once, before Done closes; read-only
	// afterwards.
	Val V
	Err error

	elem *list.Element // LRU position; nil while in flight
}

// Cache is an LRU-bounded map with single-flight semantics: the first
// requester of a key computes its value, and a concurrent second requester
// waits for that computation instead of repeating it. The bound counts
// completed entries only.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*Entry[K, V]
	lru     *list.List // completed entries, most recently used at front

	hits, misses, evictions int64
}

func newCache[K comparable, V any](max, def int) *Cache[K, V] {
	if max <= 0 {
		max = def
	}
	return &Cache[K, V]{max: max, entries: make(map[K]*Entry[K, V]), lru: list.New()}
}

// GetOrStart looks the key up. The boolean reports leadership: true means
// the caller must compute the value and Complete or Forget the entry;
// false means another request already did (or is doing) the work — wait
// on Done. Both a completed hit and a ride on an in-flight entry count as
// hits: the work is shared, not repeated.
func (c *Cache[K, V]) GetOrStart(k K) (*Entry[K, V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits++
		return e, false
	}
	c.misses++
	e := &Entry[K, V]{Key: k, Done: make(chan struct{})}
	c.entries[k] = e
	return e, true
}

// Peek returns the completed value for k without starting anything and
// without blocking. It refreshes the LRU position and counts a hit on
// success.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok || e.elem == nil {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	return e.Val, true
}

// Complete finishes a leader's entry with its value (or error), publishes
// it to every waiter, inserts it into the LRU order and evicts the oldest
// completed entries beyond the bound. A completed error is cached like a
// value.
func (c *Cache[K, V]) Complete(e *Entry[K, V], v V, err error) {
	c.mu.Lock()
	e.Val, e.Err = v, err
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*Entry[K, V]).Key)
		c.evictions++
	}
	c.mu.Unlock()
	close(e.Done)
}

// Forget drops an in-flight entry whose computation did not produce a
// value worth keeping, waking its waiters with err; the next request of
// the key starts afresh. Completed entries are never forgotten — eviction
// handles those.
func (c *Cache[K, V]) Forget(e *Entry[K, V], err error) {
	c.mu.Lock()
	if e.elem != nil {
		c.mu.Unlock()
		return
	}
	delete(c.entries, e.Key)
	e.Err = err
	c.mu.Unlock()
	close(e.Done)
}

// CacheStats is a cache's observability snapshot.
type CacheStats struct {
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"max_entries"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: c.lru.Len(), MaxEntries: c.max,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}

// Memo is the content-addressed result store: job key → the exact NDJSON
// result payload the first computation produced. Every later serving of
// the key repeats those bytes, so a repeated point is served
// byte-identically. Because the simulator is deterministic, job errors (a
// fault plan that kills every retry, say) are memoized exactly like
// results: the same spec would fail the same way again.
type Memo = Cache[Key, []byte]

// NewMemo builds a memo bounded to max completed entries (≤ 0 means the
// default of 4096).
func NewMemo(max int) *Memo { return newCache[Key, []byte](max, 4096) }

// compileKey identifies one compiled program. It must carry the FULL
// machine parameters, not just the axes the lowering inspects: the
// Compiled's Machine is consumed by exec at run time (latencies, topology,
// domain sizes), so two jobs may share a Compiled only when they agree on
// every parameter. machine.Params is comparable by construction — scalars,
// strings and a noc.Config of ints — which is what lets the whole key be a
// plain map key.
type compileKey struct {
	App   string
	Scale string
	Mode  core.Mode
	MP    machine.Params
}

// CompileCache is the shared compiled-program cache: concurrent jobs that
// agree on (workload, scale, mode, machine parameters) reuse one
// core.Compiled — and, because the engine pool hangs off the Compiled's
// memo, one engine pool — so a sweep pays each distinct compilation once
// per process instead of once per request. A failed compile is forgotten:
// its waiters get the error and the next request recompiles.
//
// Eviction only drops the cache's reference; jobs still running on an
// evicted Compiled keep theirs, and the next request recompiles.
type CompileCache = Cache[compileKey, *core.Compiled]

// NewCompileCache builds a cache bounded to max completed entries (≤ 0
// means the default of 256 — comfortably above a four-app, seven-PE,
// three-mode paper sweep's 4×7×2+4 distinct programs).
func NewCompileCache(max int) *CompileCache {
	return newCache[compileKey, *core.Compiled](max, 256)
}
