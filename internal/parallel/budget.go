package parallel

import (
	"runtime"
	"sync"
)

// The process-wide worker budget. Every component that fans work out over
// goroutines — the sweep drivers' ForEach, the engine's flat parallel
// epochs, and the sweep service's job workers — draws extra-worker tokens
// from one shared pool sized by GOMAXPROCS, so nested parallelism (an
// engine's per-PE fan-out inside a `-jobs N` sweep worker, or a sweep
// worker inside a service job) degrades to fewer workers instead of
// oversubscribing the machine. The caller's own goroutine is never
// counted: a grant of zero extra workers means "run inline", which is
// always correct because every budgeted fan-out is output-equivalent at
// any worker count.
//
// Tokens are returned incrementally: a ForEach worker gives its token back
// the moment it runs out of items, not when the whole ForEach finishes, so
// a nested or concurrent fan-out can pick the token up while the slowest
// items of the outer call are still running. The engine's speculative
// torus epochs do not draw tokens — they wake one parked goroutine per PE
// and the Go scheduler multiplexes them onto whatever threads are free.
var (
	budgetMu   sync.Mutex
	budgetCond = sync.NewCond(&budgetMu)
	inUse      int
)

// AcquireWorkers grants up to n extra-worker tokens without blocking; the
// grant may be 0. Tokens must be returned with ReleaseWorkers.
func AcquireWorkers(n int) int {
	if n <= 0 {
		return 0
	}
	budgetMu.Lock()
	defer budgetMu.Unlock()
	return acquireLocked(n)
}

func acquireLocked(n int) int {
	avail := runtime.GOMAXPROCS(0) - 1 - inUse
	if avail <= 0 {
		return 0
	}
	if n > avail {
		n = avail
	}
	inUse += n
	return n
}

// ReleaseWorkers returns tokens granted by AcquireWorkers or
// AcquireWorkerWait, waking any blocked waiters.
func ReleaseWorkers(n int) {
	if n <= 0 {
		return
	}
	budgetMu.Lock()
	inUse -= n
	budgetMu.Unlock()
	budgetCond.Broadcast()
}

// AcquireWorkerWait blocks until one extra-worker token is free (then
// acquires it and reports true) or until stop is closed (then reports
// false). It also reports false immediately when the budget's capacity is
// zero (GOMAXPROCS 1): no token can ever exist there, so waiting would
// deadlock any caller holding work — the caller must run inline instead,
// exactly like a zero grant from AcquireWorkers. The closer of stop must
// call WakeWaiters afterwards — a channel close alone cannot wake a
// goroutine parked on the budget's condition variable.
//
// Deadlock rule: a goroutine that holds budget tokens must never call
// AcquireWorkerWait — blocking acquisition is only for pure consumers like
// the sweep service's extra job workers, which always keep one unbudgeted
// worker running so the queue drains even when the budget never frees.
func AcquireWorkerWait(stop <-chan struct{}) bool {
	budgetMu.Lock()
	defer budgetMu.Unlock()
	for {
		select {
		case <-stop:
			return false
		default:
		}
		if runtime.GOMAXPROCS(0)-1 <= 0 {
			return false
		}
		if acquireLocked(1) == 1 {
			return true
		}
		budgetCond.Wait()
	}
}

// WakeWaiters wakes every goroutine blocked in AcquireWorkerWait so it can
// re-check its stop channel. Call after closing the stop channel passed to
// the waiters.
func WakeWaiters() {
	budgetCond.Broadcast()
}
