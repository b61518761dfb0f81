// Package parallel provides the deterministic worker pool the experiment
// drivers fan sweep points out over: work items execute concurrently, but
// results are handed back strictly in item order, so a sweep's output is
// byte-identical at any -jobs setting.
package parallel

import (
	"runtime"
	"sync"
)

// ForEach runs f(i) for every i in [0,n) using up to jobs workers, then
// calls emit(i) for every i in strictly ascending order. emit runs on a
// single goroutine and item i is emitted as soon as items 0..i have all
// finished, so output streams while later items still compute. jobs <= 0
// means runtime.GOMAXPROCS(0). With one job everything runs inline on the
// caller's goroutine — the two paths are output-equivalent by
// construction. ForEach returns once every item is done and emitted.
//
// Workers beyond the first are drawn from the shared process-wide budget
// (budget.go): when other sweeps already occupy the machine,
// ForEach runs with fewer workers — down to fully inline — with
// byte-identical output either way.
func ForEach(n, jobs int, f func(i int), emit func(i int)) {
	if n <= 0 {
		return
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	inline := func() {
		for i := 0; i < n; i++ {
			f(i)
			if emit != nil {
				emit(i)
			}
		}
	}
	if jobs == 1 {
		inline()
		return
	}
	granted := AcquireWorkers(jobs)
	if granted <= 1 {
		// One worker plus the emitter is no better than inline; give the
		// token back and stay on the caller's goroutine.
		ReleaseWorkers(granted)
		inline()
		return
	}
	jobs = granted

	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	done := make([]bool, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker returns its own budget token the moment it runs
			// out of items — not when the whole ForEach finishes — so a
			// nested fan-out (a sweep worker's own ForEach) or a concurrent
			// sweep can reuse the token while the slowest items here are
			// still running.
			defer ReleaseWorkers(1)
			for i := range next {
				f(i)
				mu.Lock()
				done[i] = true
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()

	// The caller's goroutine is the single emitter: wait for each item in
	// order, so the output prefix is always complete.
	for i := 0; i < n; i++ {
		mu.Lock()
		for !done[i] {
			cond.Wait()
		}
		mu.Unlock()
		if emit != nil {
			emit(i)
		}
	}
	wg.Wait()
}
