package noc

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func newTorus(t *testing.T, numPE int) *Network {
	t.Helper()
	n, err := New(Config{Kind: KindTorus}, numPE)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// Reset must return the network to its just-built state: replaying the
// same traffic must reproduce identical results and summary.
func TestNetworkReset(t *testing.T) {
	run := func(n *Network) ([][2]int64, *Summary) {
		rng := rand.New(rand.NewSource(3))
		var out [][2]int64
		now := int64(0)
		for i := 0; i < 300; i++ {
			src, dst := rng.Intn(8), rng.Intn(8)
			now += int64(rng.Intn(10))
			a, w := n.RoundTrip(src, dst, int64(1+rng.Intn(16)), now, 0)
			out = append(out, [2]int64{a, w})
		}
		return out, n.Summary(100000)
	}
	n := newTorus(t, 8)
	r1, s1 := run(n)
	n.Reset()
	r2, s2 := run(n)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("per-transaction results differ after Reset")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("summary differs after Reset:\n%+v\n%+v", s1, s2)
	}
}

// txn is one transaction of a virtual PE's schedule for the equivalence
// property test.
type txn struct {
	kind    int // 0 = Send, 1 = RoundTrip
	dst     int
	payload int64
	think   int64 // clock advance before issuing
	hot     int64
}

// memoTr is the test double of the engine's re-execution transport: it
// serves the validated prefix of a speculative log (whose results were
// overwritten with the real ones by ValidateOps) and books everything past
// it directly on the real network.
type memoTr struct {
	net *Network
	ops []SpecOp
	i   int
}

func (m *memoTr) take(rt bool) (*SpecOp, bool) {
	if m.i < len(m.ops) {
		op := &m.ops[m.i]
		if op.RT != rt {
			panic("memoTr: replay diverged from log kind")
		}
		m.i++
		return op, true
	}
	return nil, false
}

func (m *memoTr) Send(src, dst int, payload, depart, hot int64) (int64, int64) {
	if op, ok := m.take(false); ok {
		return op.Arrive, op.Wait
	}
	return m.net.Send(src, dst, payload, depart, hot)
}

func (m *memoTr) RoundTrip(src, dst int, replyWords, depart, hot int64) (int64, int64) {
	if op, ok := m.take(true); ok {
		return op.Arrive, op.Wait
	}
	return m.net.RoundTrip(src, dst, replyWords, depart, hot)
}

func (m *memoTr) DropWaitCycles() int64 { return m.net.cfg.DropWaitCycles }

// TestSpecConvergesToSequential drives the optimistic building blocks the
// way the engine does: a fully concurrent speculative phase on private
// predictor networks, PE-major validation onto the real network, and
// rollback + memoized re-execution of every mispredicted PE — with
// TestSpecSkew forcing mispredictions. The surviving results (RoundTrips
// only: the engine discards Send results by contract) and the real
// network's summary must equal the canonical sequential run exactly.
func TestSpecConvergesToSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const numPE = 8
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := make([][]txn, numPE)
		for p := range scripts {
			nTxn := 30 + rng.Intn(40)
			for i := 0; i < nTxn; i++ {
				scripts[p] = append(scripts[p], txn{
					kind:    rng.Intn(2),
					dst:     rng.Intn(numPE),
					payload: int64(1 + rng.Intn(24)),
					think:   int64(rng.Intn(60)),
					hot:     int64(rng.Intn(2) * 30),
				})
			}
		}

		// runPE mirrors the engine contract: only RoundTrip results feed
		// back into simulated time, Send results are discarded.
		runPE := func(tr Transport, p int) [][2]int64 {
			out := make([][2]int64, 0, len(scripts[p]))
			now := int64(0)
			for _, x := range scripts[p] {
				now += x.think
				if x.kind == 0 {
					tr.Send(p, x.dst, x.payload, now, x.hot)
					if p != x.dst {
						now++
					}
					out = append(out, [2]int64{-1, -1})
				} else {
					a, w := tr.RoundTrip(p, x.dst, x.payload, now, x.hot)
					now = a
					out = append(out, [2]int64{a, w})
				}
			}
			return out
		}

		ref := newTorus(t, numPE)
		want := make([][][2]int64, numPE)
		for p := 0; p < numPE; p++ {
			want[p] = runPE(ref, p)
		}
		wantSum := ref.Summary(1 << 20)

		net := newTorus(t, numPE)
		preds, err := NewFleet(Config{Kind: KindTorus}, numPE, numPE)
		if err != nil {
			t.Fatal(err)
		}
		var skews atomic.Int64
		TestSpecSkew = func() int64 {
			if skews.Add(1)%4 == 1 {
				return 23 // guaranteed misprediction
			}
			return 0
		}
		recs := make([]*SpecRecorder, numPE)
		got := make([][][2]int64, numPE)
		var wg sync.WaitGroup
		for p := 0; p < numPE; p++ {
			recs[p] = NewSpecRecorder(preds[p])
			recs[p].BeginEpoch()
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				got[p] = runPE(recs[p], p)
			}(p)
		}
		wg.Wait()
		TestSpecSkew = nil

		rollbacks := 0
		for p := 0; p < numPE; p++ {
			k := net.ValidateOps(recs[p].Ops)
			if k == len(recs[p].Ops) {
				continue
			}
			rollbacks++
			got[p] = runPE(&memoTr{net: net, ops: recs[p].Ops[:k+1]}, p)
		}
		if rollbacks == 0 {
			t.Fatalf("seed %d: TestSpecSkew forced no rollback — the test is vacuous", seed)
		}
		gotSum := net.Summary(1 << 20)

		for p := 0; p < numPE; p++ {
			if !reflect.DeepEqual(want[p], got[p]) {
				t.Fatalf("seed %d: PE %d results diverge after rollback:\nwant %v\ngot  %v", seed, p, want[p], got[p])
			}
		}
		if !reflect.DeepEqual(wantSum, gotSum) {
			t.Fatalf("seed %d: summaries diverge:\nseq: %+v\nspec: %+v", seed, wantSum, gotSum)
		}
	}
}
