package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"dynvote/internal/gcs"
)

// One failover cycle: replica 2 is cut off from {0,1} for partitionFor,
// then the network heals and has settleFor to return to one primary.
const (
	probeEvery   = 500 * time.Microsecond
	partitionFor = 400 * time.Millisecond
	settleFor    = 600 * time.Millisecond
	cycle        = partitionFor + settleFor
	minorityNode = 2
)

// failover is live_failover: two open-loop probe writers, one on a
// replica that stays in the majority and one on the replica that is
// cut off. Open loop because the question is how many of the writes
// that were due got accepted, including those due while no primary
// existed; a closed loop would simply send fewer.
type failover struct {
	rig
	cycles []cycleTimes // one per lap of the current pass
}

// cycleTimes are the moments of one cycle the timeline is read against.
type cycleTimes struct{ start, healed, end time.Time }

func newLiveFailover(e env) workload {
	return &failover{rig: rig{e: e, replicas: []int{0, minorityNode}}}
}

func (w *failover) setup() error {
	if err := w.open(false); err != nil {
		return err
	}
	return w.warm(1, 1)
}

// probe is what became of one due write.
type probe struct {
	done   time.Time
	status byte
}

// probes issues one write every probeEvery from start to end, each
// timed from the moment it was due, and reports how late the generator
// itself ran.
func (c *client) probes(start, end time.Time) (out []probe, lateUs []float64, err error) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * probeEvery)
		if !due.Before(end) {
			return out, lateUs, nil
		}
		waitUntil(due)
		lateUs = append(lateUs, float64(time.Since(due))/float64(time.Microsecond))
		if err := c.issue(1); err != nil {
			return out, lateUs, fmt.Errorf("client %d: %w", c.id, err)
		}
		status, done, err := c.complete(due)
		if err != nil {
			return out, lateUs, err
		}
		out = append(out, probe{done: done, status: status})
	}
}

// waitUntil returns at due, not a millisecond after it: on a mostly
// idle process the Go runtime rounds short sleeps up to about 1.1 ms
// (measured here), twice the probe interval. It sleeps while that
// rounding is affordable and yields in a loop for the rest, which keeps
// the generator within microseconds of its schedule and lets every
// other goroutine run whenever it has work.
func waitUntil(due time.Time) {
	if d := time.Until(due) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// settle waits for the full primary view before a cycle starts. The
// previous cycle's settle time is part of its lap, so this normally
// returns at once. It does not when a frame of the merge was dropped
// between live peers — gcs has no retransmission, so the leader's view
// announcement or an algorithm message is simply gone, the attempt
// stalls, and nobody is primary until the membership moves again
// (seen once in some three thousand cycles here; ROADMAP item 2). The benchmark
// then moves it, untimed, and the stuck cycle stays in the results.
func (w *failover) settle() error {
	for try := 0; ; try++ {
		err := w.c.awaitSettled(0, time.Second)
		if err == nil || try == 3 {
			return err
		}
		w.c.partition()
		time.Sleep(2 * failAfter)
		w.c.heal()
	}
}

func (w *failover) lap() (lapStats, error) {
	if err := w.settle(); err != nil {
		return lapStats{}, err
	}
	for _, cl := range w.clients {
		cl.resetLap()
	}
	start := time.Now()
	ct := cycleTimes{start: start, end: start.Add(cycle)}
	w.c.partition()
	healed := make(chan time.Time, 1)
	healer := time.AfterFunc(partitionFor, func() {
		w.c.heal()
		healed <- time.Now()
	})

	probes := make([][]probe, len(w.clients))
	late := make([][]float64, len(w.clients))
	err := w.together(func(cl *client) (err error) {
		probes[cl.id], late[cl.id], err = cl.probes(start, ct.end)
		return err
	})
	l := lapStats{wall: time.Since(start), extra: map[string]float64{}}
	if err != nil {
		if healer.Stop() {
			w.c.heal()
		}
		return l, err
	}
	ct.healed = <-healed
	w.cycles = append(w.cycles, ct)

	var accepted int64
	for _, cl := range w.clients {
		l.attempted += cl.completed
		l.failed += cl.failed
		l.refused += cl.notPrimary
		l.extra["loadgen.not_primary"] += float64(cl.notPrimary)
		l.extra["loadgen.errors"] += float64(cl.failed)
		accepted += int64(len(cl.writeUs))
	}
	l.work = float64(accepted)
	l.extra["loadgen.write_availability_pct"] = 100 * float64(accepted) / float64(l.attempted)

	// Rejoin: from the heal to the first write the cut-off replica
	// accepts again.
	rejoin := time.Duration(-1)
	for _, p := range probes[1] {
		if p.status == stOK && p.done.After(ct.healed) {
			rejoin = p.done.Sub(ct.healed)
			break
		}
	}
	if rejoin < 0 {
		// The healed cluster never re-formed a primary (see settle).
		// The cycle counts with the rejoin time it had reached when it
		// ended, and its refusals weigh on accepted_pct.
		rejoin = ct.end.Sub(ct.healed)
		l.extra["gcs.stuck_cycles"] = 1
	}
	l.waitUs = float64(rejoin) / float64(time.Microsecond)
	l.extra["loadgen.rejoin_p50_ms"] = float64(rejoin) / float64(time.Millisecond)

	_, writeUs := w.latencies()
	classExtras(l.extra, "loadgen.write", writeUs)
	var allLate []float64
	for _, ls := range late {
		allLate = append(allLate, ls...)
	}
	sort.Float64s(allLate)
	l.extra["loadgen.sched_late_p99_us"] = percentile(allLate, 0.99)
	return l, nil
}

// breakdown reads one cycle off the timeline: how the time from the
// heal to the minority's first accepted write splits between the
// failure detector, the membership protocol and the voting algorithm.
func breakdown(events []gcs.TimelineEvent, ct cycleTimes, m map[string][]float64) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var proposal, install time.Time
	var proposed int64 = -1
	var majorityDown time.Time
	var outage time.Duration
	views := 0
	detected, rejoined := false, false
	for _, e := range events {
		if e.At.Before(ct.start) || !e.At.Before(ct.end) {
			continue
		}
		switch {
		case e.Kind == gcs.EventView:
			views++
			if e.Node == minorityNode && e.ViewID == proposed && install.IsZero() {
				install = e.At
				m["gcs.proposal_to_install_ms"] = append(m["gcs.proposal_to_install_ms"], ms(install.Sub(proposal)))
			}
		case e.Kind == gcs.EventViewProposed:
			if e.At.After(ct.healed) && proposal.IsZero() && e.Members.Count() == liveNodes {
				proposal, proposed = e.At, e.ViewID
				m["gcs.heal_to_proposal_ms"] = append(m["gcs.heal_to_proposal_ms"], ms(proposal.Sub(ct.healed)))
			}
		case e.Kind == gcs.EventPrimary && e.Node == minorityNode:
			if !e.Primary && !detected {
				detected = true
				m["gcs.detect_ms"] = append(m["gcs.detect_ms"], ms(e.At.Sub(ct.start)))
			}
			if e.Primary && !install.IsZero() && !rejoined {
				rejoined = true
				m["alg.install_to_primary_ms"] = append(m["alg.install_to_primary_ms"], ms(e.At.Sub(install)))
			}
		case e.Kind == gcs.EventPrimary && e.Node == 0:
			if !e.Primary {
				majorityDown = e.At
			} else if !majorityDown.IsZero() {
				outage += e.At.Sub(majorityDown)
				majorityDown = time.Time{}
			}
		}
	}
	m["gcs.majority_outage_p50_ms"] = append(m["gcs.majority_outage_p50_ms"], ms(outage))
	m["gcs.views_per_cycle"] = append(m["gcs.views_per_cycle"], float64(views))
}
