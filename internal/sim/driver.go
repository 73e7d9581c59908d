package sim

import (
	"fmt"
	"runtime"

	"dynvote/internal/core"
	"dynvote/internal/metrics"
	"dynvote/internal/netsim"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/trace"
)

// Config parameterizes a simulation run, mirroring the two user-chosen
// parameters of thesis §2.2 — the number of connectivity changes per
// run and their frequency — plus instrumentation switches.
type Config struct {
	// Procs is the number of simulated processes (the thesis uses 64,
	// with 32 and 48 as scaling checks).
	Procs int
	// Changes is the number of connectivity changes injected per run.
	Changes int
	// MeanRounds is the mean number of message rounds successfully
	// executed between two subsequent connectivity changes. With
	// p = 1/(1+MeanRounds), a geometric number of changes (success
	// probability p per draw) is injected per round, which makes the
	// mean number of rounds between changes exactly MeanRounds. A
	// mean of zero therefore injects the whole change budget
	// back-to-back, leaving the algorithms no chance to exchange
	// information — the extreme left of the thesis's figures.
	MeanRounds float64
	// CheckSafety enables the invariant checker after every round and
	// at stabilization.
	CheckSafety bool
	// MeasureSizes enables encoding every broadcast to gather the
	// §3.4 message-size statistics (slower; off for availability
	// sweeps).
	MeasureSizes bool
	// Schedule overrides the change-timing model. Nil uses
	// GeometricSchedule{MeanRounds} — the thesis's model.
	Schedule Schedule
	// Crash, when non-nil, fail-stops one process partway through the
	// run — the §5.1 crash failure model.
	Crash *CrashPlan
	// StatsProc designates the process whose ambiguous-session counts
	// are sampled (the thesis collects them "by one of the
	// processes"). Defaults to process 0.
	StatsProc proc.ID
	// MaxRounds bounds a single run as a livelock guard. Defaults to
	// 100000.
	MaxRounds int
	// Metrics, when non-nil, receives the driver's instrumentation:
	// rounds, delivery steps, drops, views, changes, settling rounds,
	// checker assertions and the re-formation latency histogram. Nil
	// (the default) adds no allocations to the delivery hot path.
	Metrics *metrics.Registry
	// Trace, when non-nil, records view installations, deliveries,
	// drops and connectivity changes into a bounded ring buffer. On a
	// checker violation the retained history is attached to the error
	// (see ViolationError), turning a failed soak into a debuggable
	// artifact. The campaign runs its chains without one and attaches
	// it only to the replay of a chain that failed.
	Trace *trace.Recorder
	// TraceSampleEvery thins delivery/drop trace events to one in N
	// when > 1, so the retained window spans more history; views and
	// changes are always recorded.
	TraceSampleEvery int
}

func (c Config) withDefaults() Config {
	if c.MaxRounds == 0 {
		c.MaxRounds = 100000
	}
	return c
}

// RunResult reports what one run produced: the availability outcome
// and the per-run statistics behind Figures 4-7 and 4-8 and §3.4.
type RunResult struct {
	// PrimaryFormed reports whether a primary component existed once
	// the network stabilized — the availability criterion.
	PrimaryFormed bool
	// Rounds is the number of message rounds executed.
	Rounds int
	// ChangesInjected is the number of connectivity changes applied
	// (always Config.Changes unless the topology admitted none).
	ChangesInjected int
	// AmbiguousAtEnd is the designated process's retained ambiguous
	// sessions at stabilization (Figure 4-7).
	AmbiguousAtEnd int
	// AmbiguousAtChanges samples the designated process's retained
	// ambiguous sessions at each connectivity change (Figure 4-8).
	AmbiguousAtChanges []int
	// MaxMessageBytes is the largest single encoded broadcast, when
	// size measurement is enabled.
	MaxMessageBytes int
	// MaxRoundBytes is the largest per-round total of encoded
	// broadcast bytes, when size measurement is enabled — the
	// "total amount of information transmitted" of §3.4.
	MaxRoundBytes int
	// ReformRounds counts the message rounds from the run's last
	// connectivity change until a primary component existed again —
	// the re-formation latency that availability percentages hide
	// (an algorithm can be 100%-available at stabilization yet slow
	// to get there). -1 when no primary ever formed.
	ReformRounds int
}

// CrashPlan schedules a single process crash, optionally followed by
// recovery from stable storage.
type CrashPlan struct {
	// AfterChanges crashes the process once this many connectivity
	// changes have been applied (0 = before any).
	AfterChanges int
	// Process selects the victim; proc.None picks a random live one.
	Process proc.ID
	// RecoverAfter, when positive, recovers the victim once this many
	// further changes have been applied: a fresh instance restored
	// from the snapshot taken at crash time. Zero means the crash is
	// permanent. Recovery itself does not consume change budget.
	RecoverAfter int
}

// Driver runs the simulation protocol of §2.2 over a Cluster: rounds
// of collect-and-deliver with connectivity changes injected at random
// positions inside a round, so that changes can interrupt attempts
// mid-protocol. A Driver retains all state between runs, which is what
// the "cascading" experiments rely on; fresh-start experiments Reset
// one Driver between runs.
type Driver struct {
	cfg     Config
	cluster *Cluster
	topo    *netsim.Topology
	rng     *rng.Source

	schedule       Schedule
	metrics        *Metrics
	strikes        []int // per-round change positions, reused across rounds
	crashDone      bool
	recoverDone    bool
	victim         proc.ID
	crashedAt      int
	changesApplied int
	roundBytes     int
	maxMsgBytes    int
}

// NewDriver builds a driver for the given algorithm over a fresh,
// fully connected topology.
func NewDriver(factory core.Factory, cfg Config, r *rng.Source) *Driver {
	cfg = cfg.withDefaults()
	d := &Driver{
		cfg:     cfg,
		cluster: NewCluster(factory, cfg.Procs),
		topo:    netsim.New(cfg.Procs),
		rng:     r,
	}
	d.schedule = cfg.Schedule
	if d.schedule == nil {
		d.schedule = GeometricSchedule{MeanRounds: cfg.MeanRounds}
	}
	d.metrics = NewMetrics(cfg.Metrics)
	d.cluster.Metrics = d.metrics
	d.cluster.Trace = cfg.Trace
	d.cluster.TraceSampleEvery = cfg.TraceSampleEvery
	if cfg.MeasureSizes {
		d.cluster.Bytes = func(n int) {
			d.roundBytes += n
			if n > d.maxMsgBytes {
				d.maxMsgBytes = n
			}
		}
	}
	return d
}

// Reset rewinds the driver to the state NewDriver would produce,
// reusing the cluster, topology and algorithm instances in place, and
// installs r as the new random source. A reset driver's next Run is
// bit-identical to the first Run of a fresh driver built with the same
// factory, config and source — fresh-start experiments exploit this to
// build one driver per worker and reset it between runs instead of
// rebuilding the world every run. Config (including metrics and trace
// sinks) is retained.
func (d *Driver) Reset(r *rng.Source) {
	d.cluster.Reset()
	d.topo.Reset()
	d.rng = r
	d.crashDone = false
	d.recoverDone = false
	d.victim = 0
	d.crashedAt = 0
	d.changesApplied = 0
	d.roundBytes = 0
	d.maxMsgBytes = 0
}

// Cluster exposes the underlying cluster for inspection.
func (d *Driver) Cluster() *Cluster { return d.cluster }

// Topology exposes the connectivity model for inspection.
func (d *Driver) Topology() *netsim.Topology { return d.topo }

// Run executes one run: inject cfg.Changes connectivity changes at the
// configured rate while routing messages, then let the system run to
// quiescence, and report the outcome. Calling Run again continues from
// the current state (a cascading run); Reset first for fresh-start
// semantics.
//
// On a machine with more than one core, Run's large delivery batches
// run in two stages (pipeline.go): an executor goroutine runs the
// handlers while Run's goroutine plans the next steps. The executor is
// joined before Run returns, on an error or a panic too, and a
// handler's panic is raised again here.
func (d *Driver) Run() (RunResult, error) {
	d.cluster.pipelined = runtime.GOMAXPROCS(0) > 1
	defer d.cluster.endRun()
	res := RunResult{AmbiguousAtChanges: make([]int, 0, d.cfg.Changes), ReformRounds: -1}
	remaining := d.cfg.Changes
	lastChangeRound := 0

	for {
		if res.Rounds > d.cfg.MaxRounds {
			return res, fmt.Errorf("sim: run exceeded %d rounds", d.cfg.MaxRounds)
		}

		d.roundBytes = 0
		scheduled := d.cluster.Collect(d.rng)
		quiet := scheduled == 0 && d.cluster.PendingDeliveries() == 0

		// Draw this round's burst of connectivity changes from the
		// schedule (the thesis's model: geometric with mean rounds
		// between changes = cfg.MeanRounds). Each change strikes at a
		// uniformly random delivery step, possibly interrupting an
		// attempt mid-protocol.
		burst := d.schedule.Burst(d.rng, res.Rounds, remaining)
		strikes := d.strikes[:0]
		total := d.cluster.PendingDeliveries()
		for i := 0; i < burst; i++ {
			strikes = append(strikes, d.rng.Intn(total+1))
		}
		// Bursts are tiny (geometric, almost always 0-3 entries):
		// insertion sort beats sort.Ints and allocates nothing.
		insertionSort(strikes)
		d.strikes = strikes

		injected := false
		next := 0
		for next < len(strikes) && strikes[next] == 0 {
			lastChangeRound = res.Rounds
			d.applyChange(&res)
			remaining--
			injected = true
			next++
		}
		// Deliver in strike-free stretches: each batch runs up to the
		// next change position, then the change lands — the same
		// single-delivery granularity as a loop of one-step batches
		// (bit-identical rng consumption), minus the per-step strike
		// scan. A stretch never undershoots a strike: step+pending only
		// grows (Collect at strikes), so pending ≥ strikes[next]-step.
		step := 0
		for d.cluster.PendingDeliveries() > 0 {
			stretch := d.cluster.PendingDeliveries()
			if next < len(strikes) && strikes[next]-step < stretch {
				stretch = strikes[next] - step
			}
			d.cluster.DeliverBatch(d.rng, stretch)
			step += stretch
			for next < len(strikes) && strikes[next] == step {
				lastChangeRound = res.Rounds
				d.applyChange(&res)
				remaining--
				injected = true
				next++
			}
		}
		res.Rounds++
		d.metrics.observeRound(remaining == 0)
		if d.cfg.MeasureSizes && d.roundBytes > res.MaxRoundBytes {
			res.MaxRoundBytes = d.roundBytes
		}
		if remaining == 0 && res.ReformRounds < 0 && HasPrimary(d.cluster) {
			res.ReformRounds = res.Rounds - 1 - lastChangeRound
		}

		if d.cfg.CheckSafety {
			d.metrics.observeAssertion()
			if err := CheckOnePrimary(d.cluster); err != nil {
				return res, d.violation(err)
			}
		}

		if remaining == 0 && quiet && !injected {
			break
		}
	}

	if d.cfg.CheckSafety {
		d.metrics.observeAssertion()
		if err := CheckStableAgreement(d.cluster); err != nil {
			return res, d.violation(err)
		}
	}

	res.PrimaryFormed = HasPrimary(d.cluster)
	res.AmbiguousAtEnd = d.ambiguousAt(d.cfg.StatsProc)
	res.MaxMessageBytes = d.maxMsgBytes
	d.metrics.observeRun(res)
	return res, nil
}

// violation annotates a checker error with the retained history, when
// one is attached: the soak's last moments are exactly what a
// post-mortem needs, and they would otherwise be gone by the time the
// error surfaces.
func (d *Driver) violation(err error) error {
	if d.cfg.Trace == nil {
		return err
	}
	return &ViolationError{Err: err, History: d.cfg.Trace.Events()}
}

// Heal reconnects the whole network with a single merge view, without
// running any message rounds: the healing exchange begins in the next
// Run and can be interrupted by its connectivity changes. Cascading
// experiments call Heal between runs — the network's turbulence is
// transient, but the algorithms carry their state (pending ambiguous
// sessions, shrunken primaries) into the next run, which is what the
// thesis's cascading tests measure.
func (d *Driver) Heal() {
	ch, ok := d.topo.MergeAll()
	if !ok {
		return
	}
	d.cluster.Collect(d.rng)
	d.cluster.IssueViews(d.rng, ch.NewViews...)
}

// applyChange injects one connectivity change, sampling the
// ambiguous-session statistic at the moment of the change as the
// thesis does, then issuing the new views. When a crash plan is due,
// the change is the crash itself.
func (d *Driver) applyChange(res *RunResult) {
	res.AmbiguousAtChanges = append(res.AmbiguousAtChanges, d.ambiguousAt(d.cfg.StatsProc))

	if cp := d.cfg.Crash; cp != nil && d.crashDone && !d.recoverDone && cp.RecoverAfter > 0 &&
		d.changesApplied >= d.crashedAt+cp.RecoverAfter {
		d.recoverDone = true
		if v, ok := d.topo.Recover(d.victim); ok {
			if err := d.cluster.Recover(d.victim); err == nil {
				d.cluster.Collect(d.rng)
				d.cluster.IssueViews(d.rng, v)
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
			res.ChangesInjected++
			d.changesApplied++
			d.metrics.observeChange()
			d.traceChange("crash", ch)
			d.crashedAt = d.changesApplied
			d.cluster.Collect(d.rng)
			// The victim stops before the survivors learn anything.
			victims.ForEach(func(p proc.ID) {
				if !d.cluster.Crashed().Contains(p) {
					d.victim = p
					d.cluster.Crash(p)
				}
			})
			d.cluster.IssueViews(d.rng, ch.NewViews...)
			return
		}
	}

	ch, ok := d.topo.RandomChange(d.rng)
	if !ok {
		return
	}
	res.ChangesInjected++
	d.changesApplied++
	d.metrics.observeChange()
	d.traceChange("connectivity", ch)
	// Collect before issuing so in-flight sends keep their old view
	// tags (see Cluster.IssueViews).
	d.cluster.Collect(d.rng)
	d.cluster.IssueViews(d.rng, ch.NewViews...)
}

// traceChange records an injected change as a structural trace event
// (never sampled away).
func (d *Driver) traceChange(what string, ch netsim.Change) {
	if d.cfg.Trace == nil {
		return
	}
	d.cfg.Trace.Record(trace.Event{
		Kind:   trace.KindChange,
		Detail: fmt.Sprintf("%s #%d: %d new views", what, d.changesApplied, len(ch.NewViews)),
	})
}

// insertionSort sorts a (tiny) int slice in place ascending.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func (d *Driver) ambiguousAt(p proc.ID) int {
	if ar, ok := d.cluster.Algorithm(p).(core.AmbiguousReporter); ok {
		return ar.AmbiguousSessionCount()
	}
	return 0
}
