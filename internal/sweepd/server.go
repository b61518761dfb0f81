package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/parallel"
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
	// before each job, so a busy server and the flat parallel epochs of
	// its own engines share one CPU budget instead of oversubscribing.
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

// runTask executes one job through the harness — with the shared compile
// cache injected — and completes its memo entry. The marshaled result
// bytes stored here are what every future hit of this key serves.
func (s *Server) runTask(t *task) {
	cfg := t.job.Cfg
	cfg.Compile = s.compile.CompileFor(t.job.App, t.job.Scale)
	ar, err := harness.RunApp(t.job.Spec, cfg)
	var data []byte
	if err == nil {
		data, err = json.Marshal(ar)
	}
	s.memo.Complete(t.entry, data, err)
	s.jobsRun.Add(1)
}

// enqueue runs every job through the memo: leaders are pushed onto the
// worker queue, waiters just hold the shared entry. hits[i] reports
// whether point i was served without enqueueing new work.
func (s *Server) enqueue(jobs []*Job, priority int) (entries []*Entry, hits []bool) {
	entries = make([]*Entry, len(jobs))
	hits = make([]bool, len(jobs))
	for i, j := range jobs {
		e, leader := s.memo.GetOrStart(j.Key)
		if leader {
			s.queue.Push(j, e, priority)
		}
		entries[i] = e
		hits[i] = !leader
	}
	return entries, hits
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

	w.Header().Set("Content-Type", "application/x-ndjson")
	if !req.NoForward && len(s.peers) > 0 && len(req.Jobs) > s.shardSize {
		s.streamSharded(w, &req, jobs)
		return
	}
	entries, hits := s.enqueue(jobs, req.Priority)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range entries {
		<-entries[i].Done
		enc.Encode(SweepRow{
			Index: i, Key: jobs[i].Key.String(), Memo: hits[i],
			Result: entries[i].Data, Error: entries[i].Err,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// streamSharded splits the request into contiguous shards, distributes
// them round-robin over [self, peers...], and streams the merged rows in
// request order. Contiguity is what keeps the merge trivial and the output
// byte-identical to a local serve: shard k's rows are exactly the request
// indices [k·size, (k+1)·size), so emitting completed shards in shard
// order reproduces the canonical point order.
func (s *Server) streamSharded(w http.ResponseWriter, req *SweepRequest, jobs []*Job) {
	type shardOut struct {
		rows []SweepRow
		err  error
		done chan struct{}
	}
	targets := append([]string{""}, s.peers...) // "" = serve locally
	var shards []*shardOut
	for off := 0; off < len(jobs); off += s.shardSize {
		end := off + s.shardSize
		if end > len(jobs) {
			end = len(jobs)
		}
		so := &shardOut{done: make(chan struct{})}
		shards = append(shards, so)
		target := targets[(len(shards)-1)%len(targets)]
		go func(off, end int, target string, so *shardOut) {
			defer close(so.done)
			if target == "" {
				entries, hits := s.enqueue(jobs[off:end], req.Priority)
				for i, e := range entries {
					<-e.Done
					so.rows = append(so.rows, SweepRow{
						Index: off + i, Key: jobs[off+i].Key.String(), Memo: hits[i],
						Result: e.Data, Error: e.Err,
					})
				}
				return
			}
			so.rows, so.err = s.forward(target, req.Jobs[off:end], req.Priority, off)
		}(off, end, target, so)
	}
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for k, so := range shards {
		<-so.done
		if so.err != nil {
			// The status line is long gone; report the shard failure on
			// every one of its rows so the client sees exactly which points
			// went unserved and why.
			off := k * s.shardSize
			end := off + s.shardSize
			if end > len(jobs) {
				end = len(jobs)
			}
			for i := off; i < end; i++ {
				enc.Encode(SweepRow{
					Index: i, Key: jobs[i].Key.String(),
					Error: fmt.Sprintf("shard forward failed: %v", so.err),
				})
			}
		} else {
			for i := range so.rows {
				enc.Encode(so.rows[i])
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// forward posts one shard to a peer worker process (NoForward set — a
// shard is never re-sharded) and re-indexes the returned rows into the
// parent request's index space.
func (s *Server) forward(base string, specs []JobSpec, priority, offset int) ([]SweepRow, error) {
	body, err := json.Marshal(SweepRequest{Jobs: specs, Priority: priority, NoForward: true})
	if err != nil {
		return nil, err
	}
	resp, err := s.httpc.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return nil, fmt.Errorf("%s: %s: %s", base, resp.Status, bytes.TrimSpace(msg.Bytes()))
	}
	dec := json.NewDecoder(resp.Body)
	rows := make([]SweepRow, 0, len(specs))
	for dec.More() {
		var row SweepRow
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("%s: decoding shard response: %w", base, err)
		}
		row.Index += offset
		rows = append(rows, row)
	}
	if len(rows) != len(specs) {
		return nil, fmt.Errorf("%s: shard returned %d rows for %d jobs", base, len(rows), len(specs))
	}
	return rows, nil
}

// ServerStats is the /v1/stats document.
type ServerStats struct {
	Memo       MemoStats    `json:"memo"`
	Compile    CompileStats `json:"compile"`
	QueueDepth int          `json:"queue_depth"`
	Workers    int          `json:"workers"`
	JobsRun    int64        `json:"jobs_run"`
	Peers      []string     `json:"peers,omitempty"`
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
