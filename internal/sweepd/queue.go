package sweepd

import (
	"container/heap"
	"sync"
)

// task is one leader-owned job waiting for a worker: the resolved job plus
// the in-flight memo entry the worker must Complete.
type task struct {
	job      *Job
	entry    *Entry[Key, []byte]
	priority int
	seq      int64 // FIFO tiebreak within a priority
}

// Queue is the priority job queue: workers pop the highest-priority task
// first, FIFO within a priority, so an interactive single-point request
// submitted at high priority overtakes a queued million-point batch sweep.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   taskHeap
	seq    int64
	closed bool
}

// NewQueue builds an empty queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a task at the given priority.
func (q *Queue) Push(j *Job, e *Entry[Key, []byte], priority int) {
	q.mu.Lock()
	q.seq++
	heap.Push(&q.heap, &task{job: j, entry: e, priority: priority, seq: q.seq})
	q.mu.Unlock()
	q.cond.Signal()
}

// Pop blocks until a task is available or the queue is closed AND drained;
// the boolean is false only in the latter case. Closing does not discard
// queued tasks — every pushed task has memo waiters that must be answered,
// so workers drain the queue before exiting.
func (q *Queue) Pop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	return heap.Pop(&q.heap).(*task), true
}

// Len reports the current queue depth.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// Close marks the queue closed and wakes every blocked Pop.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// taskHeap orders by priority descending, then sequence ascending.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *taskHeap) Push(x any) { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
