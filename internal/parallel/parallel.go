// Package parallel provides the deterministic worker pool the experiment
// drivers fan sweep points out over: work items execute concurrently, but
// results are handed back strictly in item order, so a sweep's output is
// byte-identical at any -jobs setting.
package parallel

import (
	"runtime"
	"sync"
)

// ForEach runs f(i) for every i in [0,n) using up to jobs workers and
// returns the values indexed like the items. emit(i, v), when non-nil, is called in
// strictly ascending order on the caller's goroutine: item i is emitted as
// soon as items 0..i have all finished, so output streams while later
// items still compute. jobs <= 0 means runtime.GOMAXPROCS(0).
//
// The first failure ends the call: ForEach emits exactly the items below
// the lowest failed index, returns that item's error (and nil values), and
// starts no further items. With one job everything runs inline on the
// caller's goroutine — no channel, no extra goroutine — and the two paths
// are output-equivalent by construction. ForEach returns only after every
// started item has finished.
//
// Workers beyond the first are drawn from the shared process-wide budget
// (budget.go): when other sweeps already occupy the machine, ForEach runs
// with fewer workers — down to fully inline — with identical results
// either way.
func ForEach[T any](n, jobs int, f func(i int) (T, error), emit func(i int, v T)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	out := make([]T, n)
	if jobs > 1 {
		granted := AcquireWorkers(jobs)
		if granted > 1 {
			return pool(out, granted, f, emit)
		}
		// One worker plus the emitter is no better than inline; give the
		// token back and stay on the caller's goroutine.
		ReleaseWorkers(granted)
	}
	for i := range out {
		v, err := f(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
		if emit != nil {
			emit(i, v)
		}
	}
	return out, nil
}

// pool is ForEach's concurrent path over workers budget tokens, which it
// owns and returns.
func pool[T any](out []T, workers int, f func(i int) (T, error), emit func(i int, v T)) ([]T, error) {
	n := len(out)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	done := make([]bool, n)
	errs := make([]error, n)
	failed := false
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
				v, err := f(i)
				mu.Lock()
				out[i], errs[i], done[i] = v, err, true
				failed = failed || err != nil
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	// Items are handed out in ascending order and none after a failure,
	// so every item below the lowest failed index has been started and
	// finishes: the error ForEach returns is the same at any worker count.
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			mu.Lock()
			stop := failed
			mu.Unlock()
			if stop {
				return
			}
			next <- i
		}
	}()

	// The caller's goroutine is the single emitter: wait for each item in
	// order, so the output prefix is always complete.
	var err error
	for i := 0; i < n && err == nil; i++ {
		mu.Lock()
		for !done[i] {
			cond.Wait()
		}
		err = errs[i]
		mu.Unlock()
		if err == nil && emit != nil {
			emit(i, out[i])
		}
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return out, nil
}
