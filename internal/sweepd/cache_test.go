package sweepd

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"repro/internal/core"
)

// cacheUnderTest adapts one Cache instantiation to the shared cases: key
// and val build the i-th key and value, same compares two values.
type cacheUnderTest[K comparable, V any] struct {
	new  func(max int) *Cache[K, V]
	key  func(i int) K
	val  func(i int) V
	same func(a, b V) bool
}

var errBoom = errors.New("boom")

// TestSharedCache runs the same single-flight and LRU cases on the result
// memo and on the compile cache, the two instantiations the server uses.
func TestSharedCache(t *testing.T) {
	t.Run("memo", func(t *testing.T) {
		runCacheCases(t, cacheUnderTest[Key, []byte]{
			new:  NewMemo,
			key:  func(i int) Key { return Key{byte(i)} },
			val:  func(i int) []byte { return []byte(strconv.Itoa(i)) },
			same: bytes.Equal,
		})
	})
	vals := map[int]*core.Compiled{}
	t.Run("compile", func(t *testing.T) {
		runCacheCases(t, cacheUnderTest[compileKey, *core.Compiled]{
			new: NewCompileCache,
			key: func(i int) compileKey { return compileKey{App: strconv.Itoa(i)} },
			val: func(i int) *core.Compiled {
				if vals[i] == nil {
					vals[i] = &core.Compiled{TotalWords: int64(i)}
				}
				return vals[i]
			},
			same: func(a, b *core.Compiled) bool { return a == b },
		})
	})
}

func runCacheCases[K comparable, V any](t *testing.T, h cacheUnderTest[K, V]) {
	// join starts a concurrent second requester of k and returns once it
	// holds the in-flight entry; the channel yields that entry after Done.
	join := func(t *testing.T, c *Cache[K, V], k K) <-chan *Entry[K, V] {
		t.Helper()
		joined := make(chan bool)
		got := make(chan *Entry[K, V], 1)
		go func() {
			e, leader := c.GetOrStart(k)
			joined <- leader
			if !leader {
				<-e.Done
				got <- e
			}
		}()
		if <-joined {
			t.Fatal("a second requester of an in-flight key became its leader")
		}
		return got
	}
	wantStats := func(t *testing.T, c *Cache[K, V], want CacheStats) {
		t.Helper()
		if got := c.Stats(); got != want {
			t.Errorf("stats %+v, want %+v", got, want)
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T, c *Cache[K, V])
	}{
		{"concurrent requester waits and counts as a hit", func(t *testing.T, c *Cache[K, V]) {
			e, leader := c.GetOrStart(h.key(1))
			if !leader {
				t.Fatal("first requester is not the leader")
			}
			waiter := join(t, c, h.key(1))
			c.Complete(e, h.val(1), nil)
			if w := <-waiter; w != e || !h.same(w.Val, h.val(1)) || w.Err != nil {
				t.Errorf("waiter got %v (err %v), want the leader's value", w.Val, w.Err)
			}
			wantStats(t, c, CacheStats{Entries: 1, MaxEntries: 4, Hits: 1, Misses: 1})
		}},
		{"Forget wakes waiters with the error and drops the key", func(t *testing.T, c *Cache[K, V]) {
			e, _ := c.GetOrStart(h.key(1))
			waiter := join(t, c, h.key(1))
			c.Forget(e, errBoom)
			if w := <-waiter; !errors.Is(w.Err, errBoom) {
				t.Errorf("waiter err %v, want %v", w.Err, errBoom)
			}
			if _, leader := c.GetOrStart(h.key(1)); !leader {
				t.Error("a forgotten key was not started afresh")
			}
			wantStats(t, c, CacheStats{Entries: 0, MaxEntries: 4, Hits: 1, Misses: 2})
		}},
		{"Complete with an error is cached", func(t *testing.T, c *Cache[K, V]) {
			e, _ := c.GetOrStart(h.key(1))
			var zero V
			c.Complete(e, zero, errBoom)
			c.Forget(e, nil) // a completed entry is never forgotten
			again, leader := c.GetOrStart(h.key(1))
			if leader || again != e || !errors.Is(again.Err, errBoom) {
				t.Errorf("repeat request: leader=%v err=%v, want the cached error", leader, again.Err)
			}
			wantStats(t, c, CacheStats{Entries: 1, MaxEntries: 4, Hits: 1, Misses: 1})
		}},
		{"LRU evicts the least recently used", func(t *testing.T, c *Cache[K, V]) {
			for i := 1; i <= 4; i++ {
				e, _ := c.GetOrStart(h.key(i))
				c.Complete(e, h.val(i), nil)
			}
			c.Peek(h.key(1)) // 1 is now the most recent; 2 is the oldest
			for i := 5; i <= 6; i++ {
				e, _ := c.GetOrStart(h.key(i))
				c.Complete(e, h.val(i), nil)
			}
			for i, want := range map[int]bool{1: true, 2: false, 3: false, 4: true, 5: true, 6: true} {
				if v, ok := c.Peek(h.key(i)); ok != want || (ok && !h.same(v, h.val(i))) {
					t.Errorf("key %d: cached=%v, want %v", i, ok, want)
				}
			}
			wantStats(t, c, CacheStats{Entries: 4, MaxEntries: 4, Hits: 5, Misses: 6, Evictions: 2})
		}},
		{"Peek never starts an entry", func(t *testing.T, c *Cache[K, V]) {
			if _, ok := c.Peek(h.key(1)); ok {
				t.Error("Peek found a key nobody started")
			}
			e, _ := c.GetOrStart(h.key(1))
			if _, ok := c.Peek(h.key(1)); ok {
				t.Error("Peek returned an in-flight entry")
			}
			c.Forget(e, errBoom)
			if _, ok := c.Peek(h.key(1)); ok {
				t.Error("Peek found a forgotten key")
			}
			if _, leader := c.GetOrStart(h.key(1)); !leader {
				t.Error("Peek left an entry behind")
			}
			wantStats(t, c, CacheStats{Entries: 0, MaxEntries: 4, Hits: 0, Misses: 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, h.new(4)) })
	}
}
