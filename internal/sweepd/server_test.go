package sweepd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/report"
)

func newTestServer(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	s := NewServer(opt)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, &Client{Base: hs.URL}
}

// inProcess runs one job spec exactly like ccdpbench's non-server path.
func inProcess(t *testing.T, js JobSpec) *harness.AppResult {
	t.Helper()
	j := mustResolve(t, js)
	ar, err := harness.RunApp(j.Spec, j.Cfg)
	if err != nil {
		t.Fatalf("in-process %s: %v", js.App, err)
	}
	return ar
}

var testPEs = []int{1, 2, 4}

func smallSpecs(apps ...string) []JobSpec {
	out := make([]JobSpec, len(apps))
	for i, a := range apps {
		out[i] = JobSpec{App: a, Scale: "small", PEs: testPEs}
	}
	return out
}

// A served sweep must render byte-identically to the in-process path, and
// a repeated sweep must be all memo hits with the same bytes.
func TestServedSweepMatchesInProcess(t *testing.T) {
	for _, topo := range []string{"flat", "torus"} {
		t.Run(topo, func(t *testing.T) {
			srv, client := newTestServer(t, Options{})
			specs := smallSpecs("MXM", "VPENTA")
			for i := range specs {
				specs[i].Topology = topo
			}

			local := make([]*harness.AppResult, len(specs))
			for i := range specs {
				local[i] = inProcess(t, specs[i])
			}
			want := report.CSV(local)

			served, sum, err := client.Sweep(specs)
			if err != nil {
				t.Fatal(err)
			}
			if got := report.CSV(served); got != want {
				t.Errorf("served CSV differs from in-process:\n got:\n%s\nwant:\n%s", got, want)
			}
			if sum.MemoHits != 0 {
				t.Errorf("cold sweep reported %d memo hits", sum.MemoHits)
			}

			again, sum2, err := client.Sweep(specs)
			if err != nil {
				t.Fatal(err)
			}
			if sum2.MemoHits != len(specs) {
				t.Errorf("warm sweep hit memo on %d/%d points", sum2.MemoHits, len(specs))
			}
			if got := report.CSV(again); got != want {
				t.Errorf("warm served CSV differs from cold")
			}
			if n := srv.jobsRun.Load(); int(n) != len(specs) {
				t.Errorf("server ran %d jobs for %d distinct points", n, len(specs))
			}
		})
	}
}

// Concurrent overlapping sweeps: every client sees correct results, and
// each distinct point simulates exactly once (later requests either hit
// the memo or ride the in-flight leader).
func TestConcurrentSweepsMixedHitMiss(t *testing.T) {
	srv, client := newTestServer(t, Options{Workers: 4})
	apps := []string{"MXM", "VPENTA", "TOMCATV", "SWIM"}
	want := map[string]string{}
	for _, a := range apps {
		want[a] = report.CSV([]*harness.AppResult{inProcess(t, smallSpecs(a)[0])})
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each client sweeps the apps rotated, so requests overlap on
			// every point from different batch positions.
			specs := make([]JobSpec, len(apps))
			for i := range apps {
				specs[i] = smallSpecs(apps[(c+i)%len(apps)])[0]
			}
			results, _, err := client.Sweep(specs)
			if err != nil {
				errs[c] = err
				return
			}
			for i, ar := range results {
				if got := report.CSV([]*harness.AppResult{ar}); got != want[specs[i].App] {
					errs[c] = &mismatchError{app: specs[i].App}
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	if n := srv.jobsRun.Load(); int(n) != len(apps) {
		t.Errorf("server ran %d jobs for %d distinct points", n, len(apps))
	}
	st := srv.memo.Stats()
	if int(st.Misses) != len(apps) {
		t.Errorf("memo misses = %d, want %d", st.Misses, len(apps))
	}
	if wantHits := int64(clients*len(apps) - len(apps)); st.Hits != wantHits {
		t.Errorf("memo hits = %d, want %d", st.Hits, wantHits)
	}
}

type mismatchError struct{ app string }

func (e *mismatchError) Error() string { return e.app + ": served result differs from in-process" }

// With a one-entry memo, the second point evicts the first; re-requesting
// the first recomputes it and serves identical bytes.
func TestLRUEvictionThenRecompute(t *testing.T) {
	srv, client := newTestServer(t, Options{MemoEntries: 1})
	a, b := smallSpecs("MXM")[0:1], smallSpecs("VPENTA")[0:1]

	first, _, err := client.Sweep(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Sweep(b); err != nil {
		t.Fatal(err)
	}
	again, sum, err := client.Sweep(a)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MemoHits != 0 {
		t.Errorf("evicted point served as a memo hit")
	}
	if got, want := report.CSV(again), report.CSV(first); got != want {
		t.Errorf("recomputed result differs from original serve")
	}
	st := srv.memo.Stats()
	if st.Evictions < 2 || st.Misses != 3 || st.Entries != 1 {
		t.Errorf("memo stats after eviction churn: %+v", st)
	}
	if n := srv.jobsRun.Load(); n != 3 {
		t.Errorf("server ran %d jobs, want 3 (A, B, recomputed A)", n)
	}
}

// Jobs that differ only in fault seed have distinct memo keys but share
// every compiled program through the compile cache.
func TestCompileCacheSharedAcrossJobs(t *testing.T) {
	srv, client := newTestServer(t, Options{})
	specs := []JobSpec{
		{App: "MXM", Scale: "small", PEs: []int{1, 2}, FaultRate: 1e-9, FaultSeed: 1},
		{App: "MXM", Scale: "small", PEs: []int{1, 2}, FaultRate: 1e-9, FaultSeed: 2},
	}
	if specs[0].mustKey(t) == specs[1].mustKey(t) {
		t.Fatal("fault seeds did not separate the memo keys")
	}
	if _, sum, err := client.Sweep(specs); err != nil {
		t.Fatal(err)
	} else if sum.MemoHits != 0 {
		t.Fatalf("distinct points reported memo hits")
	}
	cs := srv.compile.Stats()
	if cs.Hits == 0 {
		t.Errorf("compile cache saw no hits across seed-only-different jobs: %+v", cs)
	}
}

func (js JobSpec) mustKey(t *testing.T) Key {
	t.Helper()
	return mustResolve(t, js).Key
}

// A sharded request through a forwarded peer merges back into canonical
// order with exactly the bytes an unsharded serve produces.
func TestShardForwardMerge(t *testing.T) {
	_, direct := newTestServer(t, Options{})
	worker, workerClient := newTestServer(t, Options{})
	front, frontClient := newTestServer(t, Options{
		Peers:     []string{workerClient.Base},
		ShardSize: 1,
	})

	specs := smallSpecs("MXM", "VPENTA", "TOMCATV", "SWIM")
	want, _, err := direct.Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	got, sum, err := frontClient.Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rows != len(specs) {
		t.Fatalf("sharded sweep returned %d rows", sum.Rows)
	}
	if g, w := report.CSV(got), report.CSV(want); g != w {
		t.Errorf("sharded CSV differs from direct serve:\n got:\n%s\nwant:\n%s", g, w)
	}
	if fr, wr := front.jobsRun.Load(), worker.jobsRun.Load(); fr+wr != int64(len(specs)) || wr == 0 {
		t.Errorf("shard split front=%d worker=%d, want total %d with worker > 0", fr, wr, len(specs))
	}
}

// A shard whose peer cannot be reached fails only its own rows: each one
// carries the forward error, while the local shards' rows arrive intact and
// in request order, and the client's error names the first failed job.
func TestShardForwardFailure(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // its port now refuses connections
	_, client := newTestServer(t, Options{Peers: []string{dead.URL}, ShardSize: 1})

	specs := smallSpecs("MXM", "VPENTA", "TOMCATV", "SWIM")
	rows, err := post(http.DefaultClient, client.Base, SweepRequest{Jobs: specs})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if key := specs[i].mustKey(t).String(); row.Index != i || row.Key != key {
			t.Errorf("row %d: index %d key %s, want key %s", i, row.Index, row.Key, key)
		}
		if i%2 == 1 { // shards alternate [self, dead peer]
			if !strings.HasPrefix(row.Error, "shard forward failed: "+dead.URL) || row.Result != nil {
				t.Errorf("row %d (forwarded): error %q, result %d bytes", i, row.Error, len(row.Result))
			}
			continue
		}
		want, err := json.Marshal(inProcess(t, specs[i]))
		if err != nil {
			t.Fatal(err)
		}
		if row.Error != "" || !bytes.Equal(row.Result, want) {
			t.Errorf("row %d (local): error %q, result differs from in-process: %t", i, row.Error, !bytes.Equal(row.Result, want))
		}
	}

	if _, _, err := client.Sweep(specs); err == nil || !strings.HasPrefix(err.Error(), "job 1: shard forward failed") {
		t.Errorf("client error %v, want one naming job 1's failed forward", err)
	}
}

// A bad spec anywhere in the batch is a whole-request 400 naming the
// problem — the driver refactor's error returns surfacing over HTTP.
func TestBadSpecIs400(t *testing.T) {
	_, client := newTestServer(t, Options{})
	resp, err := http.Post(client.Base+"/v1/sweep", "application/json",
		strings.NewReader(`{"jobs":[{"app":"MXM","scale":"small"},{"app":"NOPE"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %s, want 400", resp.Status)
	}
	_, _, err = client.Sweep([]JobSpec{{App: "MXM", Topology: "ring"}})
	if err == nil || !strings.Contains(err.Error(), "topology") {
		t.Errorf("client error %v does not name the bad topology", err)
	}
}

// A request body over the cap is refused with 413 before any job is
// resolved, and the same server then serves a normal request byte for byte
// as a fresh server does.
func TestOversizedBodyIs413(t *testing.T) {
	_, client := newTestServer(t, Options{})
	_, fresh := newTestServer(t, Options{})
	post := func(base, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	pad := strings.Repeat("x", maxRequestBytes)
	if code, _ := post(client.Base, `{"jobs":[{"app":"MXM","scale":"small","pad":"`+pad+`"}]}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}
	const body = `{"jobs":[{"app":"MXM","scale":"small","pes":[1,2]},{"app":"SWIM","scale":"small","pes":[2]}]}`
	code, got := post(client.Base, body)
	if code != http.StatusOK {
		t.Fatalf("normal request after the refusal: status %d: %s", code, got)
	}
	_, want := post(fresh.Base, body)
	if !bytes.Equal(got, want) {
		t.Errorf("served bytes after a refused body differ from a fresh server's:\n%s\nvs\n%s", got, want)
	}
}

// The priority queue serves higher priorities first, FIFO within one.
func TestQueuePriorityOrder(t *testing.T) {
	q := NewQueue()
	push := func(pri int, name string) {
		q.Push(&Job{App: name}, nil, pri)
	}
	push(0, "a")
	push(5, "b")
	push(0, "c")
	push(5, "d")
	push(9, "e")
	var got []string
	for i := 0; i < 5; i++ {
		tk, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, tk.job.App)
	}
	if want := "e,b,d,a,c"; strings.Join(got, ",") != want {
		t.Errorf("pop order %v, want %s", got, want)
	}
	q.Close()
	if _, ok := q.Pop(); ok {
		t.Error("Pop succeeded on closed empty queue")
	}
}
