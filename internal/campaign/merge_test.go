package campaign

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"dynvote/internal/core"
)

// mergeConfig is two algorithms of three chains each; the merge reads
// nothing of a factory but its name.
func mergeConfig(done func(AlgorithmResult)) Config {
	return Config{
		Factories:     []core.Factory{{Name: "a"}, {Name: "b"}},
		Chains:        3,
		AlgorithmDone: done,
	}
}

// mergeStat is job's outcome, distinct per job so a misplaced slot
// shows.
func mergeStat(job int) ChainStats {
	return ChainStats{Changes: 10 + job, Runs: 2 + job, Formed: 1 + job, Assertions: int64(100 * (job + 1)), Wall: time.Duration(job)}
}

// TestMergeAddOnce: a second Add for a job is refused, changes no
// count and fires no second AlgorithmDone.
func TestMergeAddOnce(t *testing.T) {
	var fired []AlgorithmResult
	m := NewMerge(mergeConfig(func(a AlgorithmResult) { fired = append(fired, a) }))
	for job := 0; job < 3; job++ {
		m.Start(job)
		if !m.Add(job, mergeStat(job), nil) {
			t.Fatalf("first Add of job %d refused", job)
		}
	}
	before, _ := m.Result(false)
	if len(fired) != 1 || !reflect.DeepEqual(fired[0], before.Algorithms[0]) {
		t.Fatalf("AlgorithmDone fired %d times, want once with the result's algorithm a: %+v", len(fired), fired)
	}
	for job := 0; job < 3; job++ {
		if m.Add(job, mergeStat(5), errors.New("late duplicate")) {
			t.Errorf("second Add of job %d merged", job)
		}
		if !m.Merged(job) {
			t.Errorf("job %d not marked merged", job)
		}
	}
	after, err := m.Result(false)
	if err != nil {
		t.Errorf("a refused duplicate surfaced as the error: %v", err)
	}
	before.Elapsed, after.Elapsed = 0, 0
	if !reflect.DeepEqual(before, after) {
		t.Errorf("duplicates changed the result:\n got %+v\nwant %+v", after, before)
	}
	if len(fired) != 1 {
		t.Errorf("AlgorithmDone fired %d times after duplicates, want 1", len(fired))
	}
	m.Locked(func(merged int) {
		if merged != 3 {
			t.Errorf("merged = %d, want 3", merged)
		}
	})
	if m.Done() {
		t.Error("merge done with algorithm b outstanding")
	}
}

// TestMergeOrderIndependent: jobs added in reverse give the result
// jobs added in order give, and the merge is done once all are in.
func TestMergeOrderIndependent(t *testing.T) {
	fill := func(order []int) *Result {
		m := NewMerge(mergeConfig(nil))
		for _, job := range order {
			m.Start(job)
			m.Add(job, mergeStat(job), nil)
		}
		if !m.Done() {
			t.Errorf("order %v: merge not done with every job in", order)
		}
		res, err := m.Result(false)
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		for i := range res.Algorithms {
			res.Algorithms[i].Elapsed = 0
		}
		return res
	}
	in := fill([]int{0, 1, 2, 3, 4, 5})
	out := fill([]int{5, 3, 1, 4, 2, 0})
	if !reflect.DeepEqual(in, out) {
		t.Errorf("out-of-order merge differs:\n got %+v\nwant %+v", out, in)
	}
	if a := in.Algorithms[1]; a.Algorithm != "b" || a.Chains[2].Chain != 2 || a.Chains[2].Algorithm != "b" ||
		a.Changes != 13+14+15 || a.Assertions != 400+500+600 {
		t.Errorf("algorithm b merged wrong: %+v", a)
	}
}

// TestMergeWrapsPlainError: a failure that is not a ChainError, as the
// farm coordinator hands in, comes back as one with the job's
// coordinates; the merge is done, and no AlgorithmDone fires for the
// failed algorithm.
func TestMergeWrapsPlainError(t *testing.T) {
	m := NewMerge(mergeConfig(func(a AlgorithmResult) {
		if a.Algorithm == "b" {
			t.Errorf("AlgorithmDone fired for b despite its failure")
		}
	}))
	cause := errors.New("split brain")
	for job := 3; job < 6; job++ {
		m.Start(job)
		var err error
		if job == 4 {
			err = cause
		}
		m.Add(job, mergeStat(job), err)
	}
	if !m.Done() {
		t.Error("merge not done after a failure")
	}
	res, err := m.Result(true)
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *ChainError", err)
	}
	want := &ChainError{Algorithm: "b", Chain: 1, Chains: 3, Changes: 14, Err: cause}
	if !reflect.DeepEqual(ce, want) {
		t.Errorf("ChainError = %+v, want %+v", ce, want)
	}
	if len(res.Violations) != 1 || res.Violations[0] != ce {
		t.Errorf("violations = %v, want the one ChainError", res.Violations)
	}
	if !res.Aborted {
		t.Error("Result(true) not marked aborted")
	}
}
