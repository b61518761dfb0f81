package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// point, program or request share a trace id; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	t0     time.Time
	traces atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace id for one point, program or request.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.traces.Add(1)
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, trace int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark is the number of spans recorded so far; spans recorded after it
// are since(mark).
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// rootNames are the spans that stand for a whole point, program or
// request. Everything under them is a layer call, or the benchmark's own
// verification, so their self time is the part of the trace no layer
// span covers.
var rootNames = map[string]bool{"point": true, "program": true, "request": true}

// layerSelfMs sums self time per span name over spans, in milliseconds,
// leaving out the root spans.
func layerSelfMs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		if !rootNames[s.Name] {
			out[s.Name] += float64(self[i]) / 1e6
		}
	}
	return out
}

// durationsMs lists the durations of the spans called name, in ms.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeTrace saves every span of the run as JSON.
func (t *tracer) writeTrace(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
