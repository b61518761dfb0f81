package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachEmitsInOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 0} {
		var ran int64
		var out strings.Builder
		results, err := ForEach(100, jobs,
			func(i int) (int, error) {
				atomic.AddInt64(&ran, 1)
				return i * i, nil
			},
			func(i, v int) { fmt.Fprintf(&out, "%d:%d\n", i, v) })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if ran != 100 {
			t.Fatalf("jobs=%d: ran %d items, want 100", jobs, ran)
		}
		var want strings.Builder
		for i := 0; i < 100; i++ {
			fmt.Fprintf(&want, "%d:%d\n", i, i*i)
			if results[i] != i*i {
				t.Fatalf("jobs=%d: results[%d] = %d, want %d", jobs, i, results[i], i*i)
			}
		}
		if out.String() != want.String() {
			t.Errorf("jobs=%d: emission out of order", jobs)
		}
	}
}

func TestForEachIdenticalOutputAcrossJobCounts(t *testing.T) {
	render := func(jobs int) string {
		var out strings.Builder
		if _, err := ForEach(37, jobs,
			func(i int) (float64, error) { return float64(i) * 1.5, nil },
			func(i int, v float64) { fmt.Fprintf(&out, "row,%d,%.3f\n", i, v) }); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return out.String()
	}
	ref := render(1)
	for _, jobs := range []int{2, 4, 16} {
		if got := render(jobs); got != ref {
			t.Errorf("jobs=%d output differs from jobs=1", jobs)
		}
	}
}

// TestForEachOrderedAcrossJobs pins the failure contract every sweep
// driver relies on: when item k fails, ForEach emits exactly items
// 0..k-1, returns k's error (not that of a later failure that finished
// first), and the result is the same at any worker count.
func TestForEachOrderedAcrossJobs(t *testing.T) {
	// A budget of 7 extra workers, so jobs 2 and 8 take the concurrent
	// path even on a host with fewer CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n = 24
	for _, k := range []int{0, 5, n - 1} {
		for _, jobs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("fail=%d/jobs=%d", k, jobs), func(t *testing.T) {
				var emitted []int
				results, err := ForEach(n, jobs,
					func(i int) (int, error) {
						switch i {
						case k:
							// Fail late, so that item k+2's failure can
							// finish first; only k's error may come back.
							time.Sleep(10 * time.Millisecond)
							return 0, fmt.Errorf("item %d failed", i)
						case k + 2:
							return 0, fmt.Errorf("item %d failed", i)
						}
						return i, nil
					},
					func(i, v int) {
						if v != i {
							t.Errorf("emit(%d) got value %d", i, v)
						}
						emitted = append(emitted, i)
					})
				if err == nil || err.Error() != fmt.Sprintf("item %d failed", k) {
					t.Fatalf("err = %v, want item %d's error", err, k)
				}
				if results != nil {
					t.Errorf("results = %v on failure, want nil", results)
				}
				if len(emitted) != k {
					t.Fatalf("emitted %v, want items 0..%d", emitted, k-1)
				}
				for i, v := range emitted {
					if v != i {
						t.Fatalf("emitted %v, want ascending 0..%d", emitted, k-1)
					}
				}
			})
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	if rs, err := ForEach(0, 4, func(int) (int, error) {
		t.Fatal("ran on n=0")
		return 0, nil
	}, nil); rs != nil || err != nil {
		t.Fatalf("n=0: got %v, %v", rs, err)
	}
	var n int64
	if _, err := ForEach(3, 100, func(int) (struct{}, error) { // jobs > n
		atomic.AddInt64(&n, 1)
		return struct{}{}, nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ran %d, want 3", n)
	}
	// Inline, the first failure stops the loop: no later item runs.
	boom := errors.New("boom")
	n = 0
	if _, err := ForEach(5, 1, func(i int) (int, error) {
		atomic.AddInt64(&n, 1)
		if i == 1 {
			return 0, boom
		}
		return i, nil
	}, nil); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 2 {
		t.Fatalf("inline ForEach ran %d items after a failure at 1, want 2", n)
	}
}
