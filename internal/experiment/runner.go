package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynvote/internal/rng"
	"dynvote/internal/sim"
)

// Every simulated study is one flat list of independent jobs whose
// results merge in a fixed order, so the number of workers changes
// only the wall time, never a result.

var parallelism = runtime.GOMAXPROCS(0)

// Parallelism returns the configured number of concurrent workers.
func Parallelism() int { return parallelism }

// SetParallelism sets the number of concurrent workers every runner of
// this package, and campaign.Run, uses. n = 1 forces sequential
// execution; results are identical either way (see the determinism
// tests). n ≤ 0 restores the default, GOMAXPROCS. Must not be called
// while experiment work is in flight.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism = n
}

// workerCount is how many workers ParallelWorkers runs for n jobs.
func workerCount(n int) int { return min(n, Parallelism()) }

// ParallelWorkers runs fn(worker, i) for every i in [0, n) on exactly
// workerCount(n) = min(n, Parallelism()) workers, the calling
// goroutine being worker 0, and returns that count once all have
// completed. Indices are handed out in increasing order; a worker
// identity is owned by one goroutine for the whole call, so callers
// keep per-worker state (one simulation driver per worker) without
// locking. Callers needing deterministic output write into per-index
// slots and merge in index order.
func ParallelWorkers(n int, fn func(worker, i int)) int {
	var next atomic.Int64
	work := func(worker int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(worker, i)
		}
	}
	var wg sync.WaitGroup
	workers := workerCount(n)
	for worker := 1; worker < workers; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(worker)
		}()
	}
	work(0)
	wg.Wait()
	return workers
}

// cell is one measurement cell of a flat job list: a case and the
// driver configuration its runs use.
type cell struct {
	spec CaseSpec
	cfg  sim.Config
}

func caseCell(spec CaseSpec) cell { return cell{spec: spec, cfg: spec.config()} }

// runCases runs every cell as one flat job list. A fresh-start cell
// adds one job per run; a cascading cell adds one job for its whole
// chain, whose runs carry the algorithms' state forward while the
// network heals between them (see sim.Driver.Heal). Jobs are ordered
// cell by cell, and each worker keeps one driver, rebuilt only when
// its next job belongs to a different cell and reset between the runs
// of one cell — Reset is bit-identical to a rebuild (see the
// reset-vs-fresh golden tests), so at one worker this is one driver
// per case.
//
// When a cell's last job lands, its runs fold in run order and
// landed, when non-nil, is called under the merge lock: the callback
// needs no locking of its own. A failed run stops every later job from
// starting, and the error returned is that of the earliest failed job,
// the one sequential execution would have met first. The int returned
// is the number of workers that ran the jobs.
func runCases(cells []cell, landed func(c int, res CaseResult, took time.Duration)) ([]CaseResult, int, error) {
	type job struct{ cell, lo, hi int } // runs [lo, hi) of one cell
	var jobs []job
	out := make([]CaseResult, len(cells))
	roots := make([]*rng.Source, len(cells))
	runs := make([][]sim.RunResult, len(cells))
	pending := make([]int, len(cells))
	started := make([]time.Time, len(cells))
	for c, cl := range cells {
		out[c] = CaseResult{Algorithm: cl.spec.Factory.Name, MeanRounds: cl.spec.MeanRounds}
		roots[c] = rng.New(cl.spec.Seed)
		step := 1
		if cl.spec.Mode == Cascading {
			step = max(cl.spec.Runs, 1)
		}
		// A cell without runs is one empty job, so that it lands too.
		for lo := 0; lo == 0 || lo < cl.spec.Runs; lo += step {
			jobs = append(jobs, job{c, lo, min(lo+step, cl.spec.Runs)})
			pending[c]++
		}
	}

	workers := make([]struct {
		d    *sim.Driver
		cell int
	}, workerCount(len(jobs)))
	var mu sync.Mutex
	failed, firstErr := len(jobs), error(nil)
	n := ParallelWorkers(len(jobs), func(w, i int) {
		j, cl, wk := jobs[i], &cells[jobs[i].cell], &workers[w]
		mu.Lock()
		if i > failed {
			mu.Unlock()
			return
		}
		if runs[j.cell] == nil {
			runs[j.cell] = make([]sim.RunResult, cl.spec.Runs)
			started[j.cell] = time.Now()
		}
		dst := runs[j.cell][j.lo:j.hi]
		mu.Unlock()

		src := runSeed(roots[j.cell], cl.spec, j.lo)
		if wk.d == nil || wk.cell != j.cell {
			wk.d, wk.cell = sim.NewDriver(cl.spec.Factory, cl.cfg, src), j.cell
		} else {
			wk.d.Reset(src)
		}
		var err error
		for k := range dst {
			kind := "fresh"
			if cl.spec.Mode == Cascading {
				kind = "cascading"
				wk.d.Heal()
			}
			if dst[k], err = wk.d.Run(); err != nil {
				err = fmt.Errorf("%s %s run %d: %w", cl.spec.Factory.Name, kind, j.lo+k, err)
				break
			}
		}

		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if i < failed {
				failed, firstErr = i, err
			}
			return
		}
		if pending[j.cell]--; pending[j.cell] > 0 {
			return
		}
		for _, r := range runs[j.cell] {
			out[j.cell].record(r)
		}
		runs[j.cell] = nil
		if landed != nil {
			landed(j.cell, out[j.cell], time.Since(started[j.cell]))
		}
	})
	return out, n, firstErr
}
