package parallel

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func busy() int {
	budgetMu.Lock()
	defer budgetMu.Unlock()
	return inUse
}

// Nested ForEach — a sweep worker fanning out its own sweep, the shape the
// sweep service's job workers exercise — must complete with every item
// emitted in order at every nesting level and must return the whole budget
// when done, regardless of how many tokens each level was granted.
func TestNestedForEachSharesBudget(t *testing.T) {
	if got := busy(); got != 0 {
		t.Fatalf("budget dirty at test entry: %d tokens in use", got)
	}
	const outer, inner = 4, 8
	var mu sync.Mutex
	got := make(map[int][]int, outer)
	emitted := make([]int, 0, outer)
	if _, err := ForEach(outer, outer,
		func(i int) (struct{}, error) {
			order := make([]int, 0, inner)
			var innerMu sync.Mutex
			_, err := ForEach(inner, inner,
				func(j int) (int, error) { return j * j, nil },
				func(j, _ int) {
					innerMu.Lock()
					order = append(order, j)
					innerMu.Unlock()
				})
			mu.Lock()
			got[i] = order
			mu.Unlock()
			return struct{}{}, err
		},
		func(i int, _ struct{}) { emitted = append(emitted, i) }); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < outer; i++ {
		if emitted[i] != i {
			t.Fatalf("outer emit order %v, want ascending", emitted)
		}
		if len(got[i]) != inner {
			t.Fatalf("outer item %d: inner emitted %d items, want %d", i, len(got[i]), inner)
		}
		for j, v := range got[i] {
			if v != j {
				t.Fatalf("outer item %d: inner emit order %v, want ascending", i, got[i])
			}
		}
	}
	if got := busy(); got != 0 {
		t.Errorf("budget leak after nested ForEach: %d tokens still in use", got)
	}
}

// A ForEach worker must return its token as soon as it runs out of items,
// while other workers of the same call are still busy — that is what lets
// a nested or concurrent fan-out reuse the machine instead of finding the
// whole budget claimed for the duration of the slowest item.
func TestForEachReleasesWorkersIncrementally(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 3 {
		t.Skip("needs a budget of at least 2 extra workers")
	}
	if got := busy(); got != 0 {
		t.Fatalf("budget dirty at test entry: %d tokens in use", got)
	}
	release := make(chan struct{})
	var sawDrop bool
	ForEach(2, 2,
		func(i int) (struct{}, error) {
			if i == 1 {
				return struct{}{}, nil // finishes immediately; its worker exits and releases
			}
			// Item 0: wait (bounded) for the sibling worker's token to come
			// back while this worker still holds its own.
			deadline := time.After(5 * time.Second)
			for {
				if busy() < 2 {
					sawDrop = true
					close(release)
					return struct{}{}, nil
				}
				select {
				case <-deadline:
					close(release)
					return struct{}{}, nil
				case <-time.After(time.Millisecond):
				}
			}
		},
		nil)
	<-release
	if !sawDrop {
		t.Error("sibling worker's token was not released while item 0 still ran")
	}
	if got := busy(); got != 0 {
		t.Errorf("budget leak: %d tokens still in use", got)
	}
}

// On a machine with no extra-worker budget at all (GOMAXPROCS 1) a token
// can never exist, so AcquireWorkerWait must fail fast instead of parking
// forever — a caller already holding work would otherwise deadlock.
func TestAcquireWorkerWaitZeroCapacity(t *testing.T) {
	if got := busy(); got != 0 {
		t.Fatalf("budget dirty at test entry: %d tokens in use", got)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	done := make(chan bool, 1)
	go func() { done <- AcquireWorkerWait(make(chan struct{})) }()
	select {
	case v := <-done:
		if v {
			ReleaseWorkers(1)
			t.Fatal("AcquireWorkerWait granted a token from a zero-capacity budget")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireWorkerWait parked on a zero-capacity budget")
	}
}

// AcquireWorkerWait must block while the budget is exhausted, wake when a
// token is released, and give up when its stop channel closes.
func TestAcquireWorkerWait(t *testing.T) {
	limit := runtime.GOMAXPROCS(0) - 1
	if limit < 1 {
		t.Skip("no extra-worker budget on this machine")
	}
	if got := busy(); got != 0 {
		t.Fatalf("budget dirty at test entry: %d tokens in use", got)
	}
	grabbed := AcquireWorkers(limit * 2)
	if grabbed != limit {
		t.Fatalf("AcquireWorkers(%d) granted %d, want the full budget %d", limit*2, grabbed, limit)
	}

	// Waiter 1: wakes when a token frees.
	stop1 := make(chan struct{})
	got1 := make(chan bool, 1)
	go func() { got1 <- AcquireWorkerWait(stop1) }()
	select {
	case v := <-got1:
		t.Fatalf("AcquireWorkerWait returned %v with an exhausted budget", v)
	case <-time.After(50 * time.Millisecond):
	}
	ReleaseWorkers(1)
	select {
	case v := <-got1:
		if !v {
			t.Fatal("AcquireWorkerWait returned false after a release")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireWorkerWait did not wake on release")
	}

	// Waiter 2: budget is exhausted again (waiter 1 re-took the token);
	// closing stop + WakeWaiters must make it give up.
	stop2 := make(chan struct{})
	got2 := make(chan bool, 1)
	go func() { got2 <- AcquireWorkerWait(stop2) }()
	select {
	case v := <-got2:
		t.Fatalf("AcquireWorkerWait returned %v with an exhausted budget", v)
	case <-time.After(50 * time.Millisecond):
	}
	close(stop2)
	WakeWaiters()
	select {
	case v := <-got2:
		if v {
			ReleaseWorkers(1) // it somehow acquired; return it before failing
			t.Fatal("AcquireWorkerWait returned true after stop closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireWorkerWait did not give up after stop + WakeWaiters")
	}

	ReleaseWorkers(1)           // waiter 1's token
	ReleaseWorkers(grabbed - 1) // the rest of the initial grab
	if got := busy(); got != 0 {
		t.Errorf("budget leak: %d tokens still in use", got)
	}
}
