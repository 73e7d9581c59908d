package main

import (
	"errors"
	"fmt"
	"time"

	"dynvote/internal/core"
	"dynvote/internal/netsim"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
	"dynvote/internal/view"
)

// handlerTime accumulates one kind of handler call. Every call is
// counted; one call in every is timed, because reading the clock twice
// costs more than a typical Deliver and would otherwise triple the lap.
// raw includes the part of a clock read that falls between the two
// readings (see clockCost).
type handlerTime struct {
	every          int64
	calls, sampled int64
	raw            time.Duration
}

// sample counts a call and reports whether to time it.
func (h *handlerTime) sample() bool {
	h.calls++
	return h.calls%h.every == 0
}

func (h *handlerTime) add(d time.Duration) {
	h.raw += d
	h.sampled++
}

// estimate scales the timed calls, less their clock share, to all calls.
func (h *handlerTime) estimate(inside time.Duration) time.Duration {
	if h.sampled == 0 {
		return 0
	}
	return time.Duration(float64(h.raw-time.Duration(h.sampled)*inside) * float64(h.calls) / float64(h.sampled))
}

func (h *handlerTime) merge(o handlerTime) {
	h.calls += o.calls
	h.sampled += o.sampled
	h.raw += o.raw
}

// algTimes is the time spent inside one algorithm variant's handlers.
type algTimes struct{ deliver, viewChange, poll handlerTime }

// newAlgTimes times every ViewChange (rare, heavy) and one in sixteen
// of the Deliver and Poll calls (millions per lap, tens of nanoseconds
// each).
func newAlgTimes() *algTimes {
	return &algTimes{deliver: handlerTime{every: 16}, viewChange: handlerTime{every: 1}, poll: handlerTime{every: 16}}
}

func (t *algTimes) total(inside time.Duration) time.Duration {
	return t.deliver.estimate(inside) + t.viewChange.estimate(inside) + t.poll.estimate(inside)
}

// timedFactory wraps f so that every handler call of every instance it
// builds is timed into t. The simulator's results must not change, so
// the wrapper forwards the four optional interfaces sim.Cluster looks
// for: without core.Resetter, Cluster.Reset would silently rebuild all
// instances between runs and the traced pass would measure different
// work than the timed one.
func timedFactory(f core.Factory, t *algTimes) core.Factory {
	wrapped := f
	wrapped.New = func(self proc.ID, initial view.View) core.Algorithm {
		return &timedAlg{inner: f.New(self, initial), build: f.New, t: t}
	}
	return wrapped
}

type timedAlg struct {
	inner core.Algorithm
	build func(proc.ID, view.View) core.Algorithm
	t     *algTimes
}

func (a *timedAlg) Name() string    { return a.inner.Name() }
func (a *timedAlg) InPrimary() bool { return a.inner.InPrimary() }

func (a *timedAlg) ViewChange(v view.View) {
	if !a.t.viewChange.sample() {
		a.inner.ViewChange(v)
		return
	}
	t0 := time.Now()
	a.inner.ViewChange(v)
	a.t.viewChange.add(time.Since(t0))
}

func (a *timedAlg) Deliver(from proc.ID, m core.Message) {
	if !a.t.deliver.sample() {
		a.inner.Deliver(from, m)
		return
	}
	t0 := time.Now()
	a.inner.Deliver(from, m)
	a.t.deliver.add(time.Since(t0))
}

func (a *timedAlg) Poll() []core.Message {
	if !a.t.poll.sample() {
		return a.inner.Poll()
	}
	t0 := time.Now()
	out := a.inner.Poll()
	a.t.poll.add(time.Since(t0))
	return out
}

// Reset implements core.Resetter; an inner algorithm that cannot reset
// in place is rebuilt, which is what Cluster.Reset does for it.
func (a *timedAlg) Reset(self proc.ID, initial view.View) {
	if r, ok := a.inner.(core.Resetter); ok {
		r.Reset(self, initial)
		return
	}
	a.inner = a.build(self, initial)
}

// AmbiguousSessionCount implements core.AmbiguousReporter; 0 is what
// the driver records for an algorithm that retains no sessions.
func (a *timedAlg) AmbiguousSessionCount() int {
	if r, ok := a.inner.(core.AmbiguousReporter); ok {
		return r.AmbiguousSessionCount()
	}
	return 0
}

// PrimaryMembers implements core.PrimaryReporter. Without an inner
// reporter every instance answers the empty set, so the checker's
// membership comparison passes exactly as if it had been skipped.
func (a *timedAlg) PrimaryMembers() proc.Set {
	if r, ok := a.inner.(core.PrimaryReporter); ok {
		return r.PrimaryMembers()
	}
	return proc.Set{}
}

var errNoSnapshot = errors.New("benchmark: algorithm keeps no durable state")

// Snapshot implements core.Snapshotter; Cluster.Crash stores a snapshot
// only when this succeeds, so the error keeps crash/recover identical
// for algorithms without durable state.
func (a *timedAlg) Snapshot() ([]byte, error) {
	if s, ok := a.inner.(core.Snapshotter); ok {
		return s.Snapshot()
	}
	return nil, errNoSnapshot
}

func (a *timedAlg) Restore(data []byte) error {
	if s, ok := a.inner.(core.Snapshotter); ok {
		return s.Restore(data)
	}
	return errNoSnapshot
}

// simLayers is what one traced pass learned about the simulator: busy
// time per public Cluster/Topology call, and the work counts taken at
// the same boundaries.
type simLayers struct {
	collect, deliver, issueViews, checker, reset, change time.Duration
	rounds, steps, changes, assertions                   int64
}

// shadowDriver is sim.Driver.Run written over the public sim.Cluster
// and netsim.Topology API, so that the benchmark can put spans and
// counters around each call into those layers without touching them.
// It consumes the random source exactly as the real driver does; the
// equivalence tests and every traced pass compare fingerprints.
// Message-size measurement (Config.MeasureSizes) is not mirrored: no
// workload uses it.
type shadowDriver struct {
	cfg     sim.Config
	cluster *sim.Cluster
	topo    *netsim.Topology
	rng     *rng.Source
	strikes []int

	crashDone, recoverDone bool
	victim                 proc.ID
	crashedAt              int
	changesApplied         int

	lay    *simLayers // counts always; durations only when timing
	timing bool
	spans  *spanLog
	parent int
}

// newShadowDriver builds a driver over a fresh cluster. With lay set it
// times every layer call into lay and spans; with lay nil it only runs.
func newShadowDriver(f core.Factory, cfg sim.Config, r *rng.Source, lay *simLayers, spans *spanLog) *shadowDriver {
	timing := lay != nil
	if !timing {
		lay, spans = &simLayers{}, nil
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 100000
	}
	if cfg.Schedule == nil {
		cfg.Schedule = sim.GeometricSchedule{MeanRounds: cfg.MeanRounds}
	}
	d := &shadowDriver{
		cfg:     cfg,
		cluster: sim.NewCluster(f, cfg.Procs),
		topo:    netsim.New(cfg.Procs),
		rng:     r,
		lay:     lay,
		timing:  timing,
		spans:   spans,
		parent:  -1,
	}
	d.cluster.Trace = cfg.Trace
	d.cluster.TraceSampleEvery = cfg.TraceSampleEvery
	return d
}

// timed runs one layer call and, when timing, adds its duration to
// *into and a span to the log.
func (d *shadowDriver) timed(name string, into *time.Duration, call func()) {
	if !d.timing {
		call()
		return
	}
	t0 := time.Now()
	call()
	t1 := time.Now()
	*into += t1.Sub(t0)
	d.spans.add(name, d.parent, t0, t1, "")
}

func (d *shadowDriver) collect() (n int) {
	d.timed("sim.collect", &d.lay.collect, func() { n = d.cluster.Collect(d.rng) })
	return n
}

func (d *shadowDriver) issueViews(views []view.View) {
	d.timed("sim.issue_views", &d.lay.issueViews, func() { d.cluster.IssueViews(d.rng, views...) })
}

func (d *shadowDriver) deliver(n int) {
	d.lay.steps += int64(n)
	d.timed("sim.deliver", &d.lay.deliver, func() { d.cluster.DeliverBatch(d.rng, n) })
}

func (d *shadowDriver) check(invariant func(*sim.Cluster) error) (err error) {
	d.lay.assertions++
	d.timed("sim.checker", &d.lay.checker, func() { err = invariant(d.cluster) })
	return err
}

// reset mirrors sim.Driver.Reset.
func (d *shadowDriver) reset(r *rng.Source) {
	d.timed("sim.reset", &d.lay.reset, func() {
		d.cluster.Reset()
		d.topo.Reset()
	})
	d.rng = r
	d.crashDone, d.recoverDone = false, false
	d.victim, d.crashedAt, d.changesApplied = 0, 0, 0
}

// heal mirrors sim.Driver.Heal.
func (d *shadowDriver) heal() {
	ch, ok := d.topo.MergeAll()
	if !ok {
		return
	}
	d.collect()
	d.issueViews(ch.NewViews)
}

// run mirrors sim.Driver.Run step for step.
func (d *shadowDriver) run() (sim.RunResult, error) {
	if d.timing {
		outer := d.parent
		d.parent = d.spans.open("sim.run", outer)
		defer func() {
			d.spans.close(d.parent)
			d.parent = outer
		}()
	}
	res := sim.RunResult{AmbiguousAtChanges: make([]int, 0, d.cfg.Changes), ReformRounds: -1}
	remaining := d.cfg.Changes
	lastChangeRound := 0

	for {
		if res.Rounds > d.cfg.MaxRounds {
			return res, fmt.Errorf("shadow: run exceeded %d rounds", d.cfg.MaxRounds)
		}
		scheduled := d.collect()
		quiet := scheduled == 0 && d.cluster.PendingDeliveries() == 0

		burst := d.cfg.Schedule.Burst(d.rng, res.Rounds, remaining)
		strikes := d.strikes[:0]
		total := d.cluster.PendingDeliveries()
		for i := 0; i < burst; i++ {
			strikes = append(strikes, d.rng.Intn(total+1))
		}
		for i := 1; i < len(strikes); i++ {
			for j := i; j > 0 && strikes[j] < strikes[j-1]; j-- {
				strikes[j], strikes[j-1] = strikes[j-1], strikes[j]
			}
		}
		d.strikes = strikes

		injected := false
		next := 0
		strike := func(step int) {
			for next < len(strikes) && strikes[next] == step {
				lastChangeRound = res.Rounds
				d.applyChange(&res)
				remaining--
				injected = true
				next++
			}
		}
		strike(0)
		step := 0
		for d.cluster.PendingDeliveries() > 0 {
			stretch := d.cluster.PendingDeliveries()
			if next < len(strikes) && strikes[next]-step < stretch {
				stretch = strikes[next] - step
			}
			d.deliver(stretch)
			step += stretch
			strike(step)
		}
		res.Rounds++
		d.lay.rounds++
		if remaining == 0 && res.ReformRounds < 0 && sim.HasPrimary(d.cluster) {
			res.ReformRounds = res.Rounds - 1 - lastChangeRound
		}
		if d.cfg.CheckSafety {
			if err := d.check(sim.CheckOnePrimary); err != nil {
				return res, err
			}
		}
		if remaining == 0 && quiet && !injected {
			break
		}
	}

	if d.cfg.CheckSafety {
		if err := d.check(sim.CheckStableAgreement); err != nil {
			return res, err
		}
	}
	res.PrimaryFormed = sim.HasPrimary(d.cluster)
	res.AmbiguousAtEnd = d.ambiguousAt(d.cfg.StatsProc)
	return res, nil
}

// applyChange mirrors sim.Driver.applyChange, crash plan included.
func (d *shadowDriver) applyChange(res *sim.RunResult) {
	res.AmbiguousAtChanges = append(res.AmbiguousAtChanges, d.ambiguousAt(d.cfg.StatsProc))

	if cp := d.cfg.Crash; cp != nil && d.crashDone && !d.recoverDone && cp.RecoverAfter > 0 &&
		d.changesApplied >= d.crashedAt+cp.RecoverAfter {
		d.recoverDone = true
		if v, ok := d.topo.Recover(d.victim); ok {
			if err := d.cluster.Recover(d.victim); err == nil {
				d.collect()
				d.issueViews([]view.View{v})
			}
		}
	}

	if cp := d.cfg.Crash; cp != nil && !d.crashDone && d.changesApplied >= cp.AfterChanges {
		d.crashDone = true
		var ch netsim.Change
		var ok bool
		if cp.Process == proc.None {
			ch, ok = d.topo.CrashRandomLive(d.rng)
		} else {
			ch, ok = d.topo.CrashProcess(cp.Process)
		}
		if ok {
			victims := d.topo.Crashed()
			d.changed(res, "crash", ch)
			d.crashedAt = d.changesApplied
			d.collect()
			victims.ForEach(func(p proc.ID) {
				if !d.cluster.Crashed().Contains(p) {
					d.victim = p
					d.cluster.Crash(p)
				}
			})
			d.issueViews(ch.NewViews)
			return
		}
	}

	var ch netsim.Change
	var ok bool
	d.timed("netsim.change", &d.lay.change, func() { ch, ok = d.topo.RandomChange(d.rng) })
	if !ok {
		return
	}
	d.changed(res, "connectivity", ch)
	d.collect()
	d.issueViews(ch.NewViews)
}

// changed does the bookkeeping the real driver does for an applied
// change, including the structural trace event.
func (d *shadowDriver) changed(res *sim.RunResult, what string, ch netsim.Change) {
	res.ChangesInjected++
	d.changesApplied++
	d.lay.changes++
	if d.cfg.Trace != nil {
		d.cfg.Trace.Record(trace.Event{
			Kind:   trace.KindChange,
			Detail: fmt.Sprintf("%s #%d: %d new views", what, d.changesApplied, len(ch.NewViews)),
		})
	}
}

func (d *shadowDriver) ambiguousAt(p proc.ID) int {
	if ar, ok := d.cluster.Algorithm(p).(core.AmbiguousReporter); ok {
		return ar.AmbiguousSessionCount()
	}
	return 0
}

// clockCost measures what timing a call costs: pair is the whole cost
// of reading the clock before and after, inside the part of it that
// lands in the measured interval. Handler times are corrected by
// inside per timed call, and the enclosing DeliverBatch time by pair.
func clockCost() (pair, inside time.Duration) {
	const n = 200000
	var within time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		within += time.Since(t0)
	}
	return time.Since(start) / n, within / n
}
