package experiment

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynvote/internal/naive"
)

func TestParallelWorkersCoversEveryIndex(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 3, 8} {
		SetParallelism(workers)
		const n = 100
		var hits [n]atomic.Int32
		ParallelWorkers(n, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestParallelWorkersZeroAndOne(t *testing.T) {
	ParallelWorkers(0, func(int, int) { t.Fatal("fn called for n=0") })
	ran := false
	ParallelWorkers(1, func(worker, _ int) { ran = worker == 0 })
	if !ran {
		t.Fatal("fn not called on the caller's worker for n=1")
	}
}

// TestParallelWorkersCount: ParallelWorkers runs exactly
// min(n, Parallelism()) workers. The first k indices wait until k
// workers are inside fn at once, which only k distinct workers can
// satisfy; no worker identity reaches k.
func TestParallelWorkersCount(t *testing.T) {
	defer SetParallelism(0)
	for _, c := range []struct{ parallelism, n, want int }{
		{1, 5, 1}, {3, 10, 3}, {8, 3, 3},
	} {
		SetParallelism(c.parallelism)
		var (
			mu      sync.Mutex
			seen    = map[int]bool{}
			arrived sync.WaitGroup
			all     = make(chan struct{})
		)
		arrived.Add(c.want)
		go func() { arrived.Wait(); close(all) }()
		ran := ParallelWorkers(c.n, func(worker, i int) {
			mu.Lock()
			seen[worker] = true
			mu.Unlock()
			if i < c.want {
				arrived.Done()
				select {
				case <-all:
				case <-time.After(10 * time.Second):
					t.Errorf("%+v: %d workers never ran at once", c, c.want)
				}
			}
		})
		if ran != c.want {
			t.Errorf("%+v: ParallelWorkers returned %d, want %d", c, ran, c.want)
		}
		if len(seen) != c.want {
			t.Errorf("%+v: %d distinct workers, want %d", c, len(seen), c.want)
		}
		for worker := range seen {
			if worker < 0 || worker >= c.want {
				t.Errorf("%+v: worker identity %d out of range", c, worker)
			}
		}
	}
}

func TestSetParallelismBounds(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(5)
	if got := Parallelism(); got != 5 {
		t.Fatalf("Parallelism() = %d, want 5", got)
	}
	SetParallelism(1)
	if got := Parallelism(); got != 1 {
		t.Fatalf("Parallelism() = %d, want 1", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after reset, want >= 1", got)
	}
}

// TestRunCasesErrorParallelDeterminism: across cells too, the error is
// the earliest failed job's. The rate-1 chain fails at run 357, the
// rate-1.5 chain at run 68: with two workers the second cell's failure
// lands first in time, and the first cell's must still be reported.
func TestRunCasesErrorParallelDeterminism(t *testing.T) {
	defer SetParallelism(0)
	var cells []cell
	for _, rate := range []float64{1, 1.5} {
		cells = append(cells, caseCell(CaseSpec{
			Factory: naive.Factory(), Procs: 16, Changes: 12, MeanRounds: rate,
			Runs: 400, Mode: Cascading, Seed: 3, CheckSafety: true,
		}))
	}
	const want = "naive-no-agreement cascading run 357: "
	for _, workers := range []int{1, 2, 8} {
		SetParallelism(workers)
		_, _, err := runCases(cells, nil)
		if got := fmt.Sprint(err); !strings.HasPrefix(got, want) {
			t.Errorf("%d workers: error %q, want the prefix %q", workers, got, want)
		}
	}
}
