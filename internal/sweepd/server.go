package sweepd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/workloads"
)

// SweepRequest is the body of POST /v1/sweep: a batch of sweep points at
// one priority. Higher priorities are served first; within a priority the
// queue is FIFO. NoForward marks a request that is already a forwarded
// shard, so a worker process never re-shards it (the recursion guard of
// the sharding mode).
type SweepRequest struct {
	Jobs      []JobSpec `json:"jobs"`
	Priority  int       `json:"priority,omitempty"`
	NoForward bool      `json:"no_forward,omitempty"`
}

// SweepRow is one NDJSON response line: the result (or error) of the job
// at Index in the request, in request order. Result is the
// harness.AppResult marshaled by the first computation of this key — every
// later serving repeats those exact bytes. Memo reports whether the point
// was served without running the simulator (a completed memo hit or a ride
// on another request's in-flight computation).
type SweepRow struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Memo   bool            `json:"memo"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Options configures a Server.
type Options struct {
	// MemoEntries bounds the result memo (≤ 0 = default).
	MemoEntries int
	// CompileEntries bounds the compiled-program cache (≤ 0 = default).
	CompileEntries int
	// Workers is the job worker count (≤ 0 = GOMAXPROCS). Worker 0 runs
	// unbudgeted — the progress guarantee — and every additional worker
	// blocks for a token from the process-wide internal/parallel budget
	// before each job, so a busy server and the per-point fan-out of the
	// harness sweeps it runs share one CPU budget instead of
	// oversubscribing.
	Workers int
	// Peers are base URLs of further sweepd worker processes; large
	// requests shard across [self, peers...] round-robin.
	Peers []string
	// ShardSize is the points-per-shard for forwarded requests (≤ 0 =
	// default 64). Requests with at most one shard's worth of points are
	// served locally regardless of peers.
	ShardSize int
}

// Server is the persistent simulation service: result memo, shared compile
// cache, priority worker queue, and the HTTP surface (POST /v1/sweep NDJSON
// streaming, GET /v1/stats, GET /healthz).
type Server struct {
	memo    *Memo
	compile *CompileCache
	queue   *Queue
	workers int

	peers     []string
	shardSize int
	httpc     *http.Client

	stop    chan struct{}
	wg      sync.WaitGroup
	jobsRun atomic.Int64
}

// NewServer builds a server and starts its workers.
func NewServer(opt Options) *Server {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shard := opt.ShardSize
	if shard <= 0 {
		shard = 64
	}
	s := &Server{
		memo:      NewMemo(opt.MemoEntries),
		compile:   NewCompileCache(opt.CompileEntries),
		queue:     NewQueue(),
		workers:   workers,
		peers:     opt.Peers,
		shardSize: shard,
		httpc:     &http.Client{Timeout: 30 * time.Minute},
		stop:      make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Close stops the workers after draining the queue (every queued task has
// memo waiters that must be answered) and waits for them.
func (s *Server) Close() {
	close(s.stop)
	parallel.WakeWaiters()
	s.queue.Close()
	s.wg.Wait()
}

// worker is one queue consumer. Worker 0 never waits for budget — with
// every token held elsewhere the queue still drains one job at a time.
// The extra workers block for a process-wide parallel-budget token before
// each job; when no token can come (the server is stopping, or the budget
// has zero capacity on a single-CPU machine) they run tokenless so a
// popped job always completes and answers its memo waiters.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	for {
		t, ok := s.queue.Pop()
		if !ok {
			return
		}
		if i > 0 && parallel.AcquireWorkerWait(s.stop) {
			s.runTask(t)
			parallel.ReleaseWorkers(1)
			continue
		}
		s.runTask(t)
	}
}

// runTask executes one job — with the shared compile cache injected — and
// completes its memo entry. The marshaled result bytes stored here are
// what every future hit of this key serves.
func (s *Server) runTask(t *task) {
	ar, err := t.job.Run(func(ws *workloads.Spec, mode core.Mode, mp machine.Params) (*core.Compiled, error) {
		return s.compiled(compileKey{App: t.job.App, Scale: t.job.Scale, Mode: mode, MP: mp}, ws)
	})
	var data []byte
	if err == nil {
		data, err = json.Marshal(ar)
	}
	// Count the job before Complete publishes it: a client woken by
	// Complete may read JobsRun at once.
	s.jobsRun.Add(1)
	s.memo.Complete(t.entry, data, err)
}

// compiled returns the shared compiled program for k, compiling ws on the
// first request. The app/scale pair is part of the key because ws.Name
// does not encode the problem scale. A failed compile is not kept: the
// error reaches every current waiter, and the next request retries.
func (s *Server) compiled(k compileKey, ws *workloads.Spec) (*core.Compiled, error) {
	e, leader := s.compile.GetOrStart(k)
	if !leader {
		<-e.Done
		return e.Val, e.Err
	}
	// core.Compile clones the source program, so concurrent compiles of
	// different keys never contend.
	c, err := core.Compile(ws.Prog, k.Mode, k.MP)
	if err != nil {
		s.compile.Forget(e, err)
		return nil, err
	}
	s.compile.Complete(e, c, nil)
	return c, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sweep", s.handleSweep)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, "no jobs in request", http.StatusBadRequest)
		return
	}
	// Resolve every spec before the first byte of response: a bad point
	// anywhere in the batch is a whole-request 400, never a mid-stream
	// surprise.
	jobs := make([]*Job, len(req.Jobs))
	for i := range req.Jobs {
		j, err := req.Jobs[i].Resolve()
		if err != nil {
			http.Error(w, fmt.Sprintf("job %d: %v", i, err), http.StatusBadRequest)
			return
		}
		jobs[i] = j
	}

	// Every request is served as contiguous shards in request order: one
	// local shard when it is small, already forwarded, or there are no
	// peers; otherwise shards of ShardSize points, round-robin over
	// [self, peers...]. Shard k's rows are exactly the request indices
	// [k·size, (k+1)·size), so emitting shards in order reproduces the
	// canonical point order byte for byte. Every shard starts before the
	// first row is written.
	size, targets := len(jobs), []string{""} // "" = serve locally
	if !req.NoForward && len(s.peers) > 0 && len(jobs) > s.shardSize {
		size, targets = s.shardSize, append(targets, s.peers...)
	}
	var shards []*shard
	for off := 0; off < len(jobs); off += size {
		end := min(off+size, len(jobs))
		sh := &shard{off: off, jobs: jobs[off:end]}
		if peer := targets[len(shards)%len(targets)]; peer == "" {
			// Leaders go onto the worker queue; every other point rides
			// the memo entry some request already started.
			for _, j := range sh.jobs {
				e, leader := s.memo.GetOrStart(j.Key)
				if leader {
					s.queue.Push(j, e, req.Priority)
				}
				sh.entries, sh.hits = append(sh.entries, e), append(sh.hits, !leader)
			}
		} else {
			sh.done = make(chan struct{})
			go func() {
				defer close(sh.done)
				sh.rows, sh.err = s.forward(peer, req.Jobs[off:end], req.Priority, off)
			}()
		}
		shards = append(shards, sh)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, sh := range shards {
		for i := range sh.jobs {
			enc.Encode(sh.row(i))
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// shard is one contiguous slice of a request's jobs, served either locally
// (entries set) or by a peer (done closes once rows or err is set).
type shard struct {
	off     int
	jobs    []*Job
	entries []*Entry[Key, []byte]
	hits    []bool

	done chan struct{}
	rows []SweepRow
	err  error
}

// row waits for the shard's i-th job and returns its response row.
func (sh *shard) row(i int) SweepRow {
	if sh.done == nil {
		e := sh.entries[i]
		<-e.Done
		row := SweepRow{Index: sh.off + i, Key: sh.jobs[i].Key.String(), Memo: sh.hits[i], Result: e.Val}
		if e.Err != nil {
			row.Error = e.Err.Error()
		}
		return row
	}
	<-sh.done
	if sh.err != nil {
		// The status line is long gone; report the shard failure on every
		// one of its rows so the client sees exactly which points went
		// unserved and why.
		return SweepRow{Index: sh.off + i, Key: sh.jobs[i].Key.String(),
			Error: fmt.Sprintf("shard forward failed: %v", sh.err)}
	}
	return sh.rows[i]
}

// forward posts one shard to a peer worker process (NoForward set — a
// shard is never re-sharded) and re-indexes the returned rows into the
// parent request's index space.
func (s *Server) forward(base string, specs []JobSpec, priority, offset int) ([]SweepRow, error) {
	rows, err := post(s.httpc, base, SweepRequest{Jobs: specs, Priority: priority, NoForward: true})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", base, err)
	}
	for i := range rows {
		rows[i].Index += offset
	}
	return rows, nil
}

// ServerStats is the /v1/stats document.
type ServerStats struct {
	Memo       CacheStats `json:"memo"`
	Compile    CacheStats `json:"compile"`
	QueueDepth int        `json:"queue_depth"`
	Workers    int        `json:"workers"`
	JobsRun    int64      `json:"jobs_run"`
	Peers      []string   `json:"peers,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ServerStats{
		Memo:       s.memo.Stats(),
		Compile:    s.compile.Stats(),
		QueueDepth: s.queue.Len(),
		Workers:    s.workers,
		JobsRun:    s.jobsRun.Load(),
		Peers:      s.peers,
	})
}
