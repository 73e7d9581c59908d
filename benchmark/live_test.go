package main

import (
	"testing"
	"time"
)

// TestClosedLoopLap drives the real three-replica cluster through one
// small lap of each closed-loop workload: every request is answered,
// every read passes the single-writer check, and the per-class samples
// add up.
func TestClosedLoopLap(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a TCP cluster")
	}
	for _, build := range []func(env) workload{newLiveMixed, newLiveBurst} {
		w := build(env{seed: 7}).(*closedLoop)
		w.perClient = 640
		if err := w.setup(); err != nil {
			w.close()
			t.Fatal(err)
		}
		l, err := w.lap()
		w.close()
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(640 * len(w.replicas)); l.attempted != want {
			t.Errorf("window %d: %d requests completed, want %d", w.window, l.attempted, want)
		}
		answered := l.extra["loadgen.read_samples"] + l.extra["loadgen.write_samples"]
		if int64(answered)+l.failed != l.attempted {
			t.Errorf("window %d: %v samples + %d failed != %d attempted", w.window, answered, l.failed, l.attempted)
		}
	}
}

// TestFailoverSettleMovesAStuckCluster: a cluster left without a full
// primary view when a cycle should start — here by a partition nobody
// heals, in the field by a dropped frame of the merge — is moved by
// settle instead of failing the run.
func TestFailoverSettleMovesAStuckCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a TCP cluster")
	}
	w := newLiveFailover(env{seed: 7}).(*failover)
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.c.partition()
	for deadline := time.Now().Add(2 * time.Second); w.c.settled(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the partition was never detected")
		}
	}
	if err := w.settle(); err != nil {
		t.Fatal(err)
	}
	if !w.c.settled() {
		t.Error("settle returned without a full primary view")
	}
}
