package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/campaign"
	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/farm"
	"dynvote/internal/metrics"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
)

// simWork is one sim lap's work in each of the simulator's units.
type simWork struct{ runs, steps, changes int64 }

// simLapStats builds the lapStats of a sim lap. The rate counts
// delivery steps — the simulator's innermost unit of work — because
// the work in a lap varies with the seed (by a factor of two between
// kilo_1024 runs) while the cost of a delivery step does not. For the
// same reason the wait is not the
// lap's wall time but the time nominalSteps delivery steps took, with
// nominalSteps about one lap's worth.
func simLapStats(wall time.Duration, ops int64, fp uint64, work simWork, nominalSteps float64) lapStats {
	l := lapStats{
		wall:      wall,
		work:      float64(work.steps),
		waitUs:    float64(wall) / float64(time.Microsecond) * nominalSteps / float64(work.steps),
		attempted: ops,
		fp:        fp,
		extra:     map[string]float64{},
	}
	for name, n := range map[string]int64{"sim.runs_per_s": work.runs, "sim.deliveries_per_s": work.steps, "sim.changes_per_s": work.changes} {
		l.extra[name] = float64(n) / wall.Seconds()
	}
	return l
}

// ---- fig_sweep_64 ----

// Figure 4-2 (fresh start) and Figure 4-5 (cascading) at 64 processes:
// 5 algorithms × 6 rates × figRuns runs each.
const (
	figProcs = 64
	figRuns  = 12
	// figNominalSteps is about one lap's delivery steps.
	figNominalSteps = 1.7e7
)

var figRates = []float64{0, 1, 2, 4, 8, 12}

// figRatesFor moves every rate by seed millionths of a round (at most
// 0.01). experiment derives each run's random source from a label of
// (procs, changes, rate, mode, run) through rng.ChildLabel, which does
// not mix in its parent — SweepSpec.Seed changes nothing — so the rate
// is the one input through which a seed can reach the runs.
func figRatesFor(seed int64) []float64 {
	jitter := float64(((seed%10000)+10000)%10000) * 1e-6
	rates := make([]float64, len(figRates))
	for i, r := range figRates {
		rates[i] = r + jitter
	}
	return rates
}

type figSweep struct {
	e     env
	specs []experiment.SweepSpec
	steps *metrics.Counter // the timed laps' delivery steps
}

func newFigSweep(e env) workload { return &figSweep{e: e} }

func buildFigures(seed int64, runs int, reg *metrics.Registry) ([]experiment.SweepSpec, error) {
	o := experiment.Options{Procs: figProcs, Runs: runs, Rates: figRatesFor(seed), Seed: seed, Metrics: reg}
	var specs []experiment.SweepSpec
	for _, id := range []string{"4-2", "4-5"} {
		f, err := experiment.FigureByID(id, o)
		if err != nil {
			return nil, err
		}
		specs = append(specs, f.Sweeps...)
	}
	return specs, nil
}

// figWork counts a lap's runs and connectivity changes.
func figWork(specs []experiment.SweepSpec) (w simWork) {
	for _, s := range specs {
		runs := int64(len(s.Factories) * len(s.Rates) * s.Runs)
		w.runs += runs
		w.changes += runs * int64(s.Changes)
	}
	return w
}

func (w *figSweep) setup() (err error) {
	// One thread: two-thread sim laps swing 20 % on this box, single
	// thread laps repeat within a few percent.
	experiment.SetParallelism(1)
	// The registry costs the driver about 1 % and is what counts the
	// lap's delivery steps.
	reg := metrics.NewRegistry()
	w.steps = reg.Counter("sim_delivery_steps_total", "")
	if w.specs, err = buildFigures(w.e.seed, figRuns, reg); err != nil {
		return err
	}
	// The warm-up's inputs do not depend on the seed, so that setup_s
	// is the same work on every run.
	warm, err := buildFigures(0, figRuns/2, nil)
	if err != nil {
		return err
	}
	_, err = sweepAll(warm)
	return err
}

// sweepAll regenerates the figures and fingerprints every case result.
func sweepAll(specs []experiment.SweepSpec) (uint64, error) {
	fp := newFingerprint()
	for _, spec := range specs {
		series, err := experiment.RunSweep(spec)
		if err != nil {
			return 0, err
		}
		for _, s := range series {
			for _, c := range s.Points {
				fingerprintCase(fp, c)
			}
		}
	}
	return fp.sum(), nil
}

func fingerprintCase(fp fingerprint, c experiment.CaseResult) {
	fp.str(c.Algorithm)
	fp.ints(int64(math.Float64bits(c.MeanRounds)), int64(c.Availability.Formed), int64(c.Availability.Runs), int64(c.NeverReformed))
	for _, h := range []interface {
		Total() int
		Max() int
		Count(int) int
	}{&c.Stable, &c.InProgress, &c.Reform} {
		fp.ints(int64(h.Total()), int64(h.Max()))
		for n := 0; n <= h.Max(); n++ {
			fp.ints(int64(h.Count(n)))
		}
	}
}

func (w *figSweep) lap() (lapStats, error) {
	before := w.steps.Value()
	t0 := time.Now()
	fp, err := sweepAll(w.specs)
	wall := time.Since(t0)
	if err != nil {
		return lapStats{}, err
	}
	work := figWork(w.specs)
	work.steps = w.steps.Value() - before
	return simLapStats(wall, work.runs, fp, work, figNominalSteps), nil
}

func (w *figSweep) close() {}

// shadowCase replays experiment.RunCase at one worker with the shadow
// driver: one driver per case, reset between fresh-start runs, healed
// between cascading ones, results folded in run order.
func shadowCase(spec experiment.SweepSpec, f core.Factory, rate float64, lay *simLayers, spans *spanLog) (experiment.CaseResult, error) {
	res := experiment.CaseResult{Algorithm: f.Name, MeanRounds: rate}
	cfg := sim.Config{Procs: spec.Procs, Changes: spec.Changes, MeanRounds: rate}
	// The per-run source is experiment's runSeed, which is not
	// exported; the fingerprint comparison is what holds this copy to it.
	source := func(run int) *rng.Source {
		return rng.New(spec.Seed).ChildLabel("run", int64(spec.Procs), int64(spec.Changes),
			int64(rate*1e6), int64(spec.Mode), int64(run))
	}
	d := newShadowDriver(f, cfg, source(0), lay, spans)
	for run := 0; run < spec.Runs; run++ {
		if spec.Mode == experiment.Cascading {
			d.heal()
		} else if run > 0 {
			d.reset(source(run))
		}
		r, err := d.run()
		if err != nil {
			return res, fmt.Errorf("shadow %s rate %g run %d: %w", f.Name, rate, run, err)
		}
		res.Availability.Record(r.PrimaryFormed)
		res.Stable.Add(r.AmbiguousAtEnd)
		for _, n := range r.AmbiguousAtChanges {
			res.InProgress.Add(n)
		}
		if r.ReformRounds >= 0 {
			res.Reform.Add(r.ReformRounds)
		} else {
			res.NeverReformed++
		}
	}
	return res, nil
}

// shadowSweeps replays a whole lap. algs receives handler times per
// algorithm name when lay is set.
func shadowSweeps(specs []experiment.SweepSpec, lay *simLayers, algs map[string]*algTimes, spans *spanLog) (uint64, time.Duration, error) {
	fp := newFingerprint()
	t0 := time.Now()
	for _, spec := range specs {
		for _, f := range spec.Factories {
			if lay != nil {
				f = timedFactory(f, algTimesFor(algs, f.Name))
			}
			for _, rate := range spec.Rates {
				c, err := shadowCase(spec, f, rate, lay, spans)
				if err != nil {
					return 0, 0, err
				}
				fingerprintCase(fp, c)
			}
		}
	}
	return fp.sum(), time.Since(t0), nil
}

func algTimesFor(algs map[string]*algTimes, name string) *algTimes {
	if algs[name] == nil {
		algs[name] = newAlgTimes()
	}
	return algs[name]
}

func (w *figSweep) layers(timed *pass) (map[string]float64, error) {
	want, err := timed.sameFingerprint()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}

	// The real driver once more on a registry of its own: the counts of
	// exactly one lap, which the shadow driver's must equal.
	reg := metrics.NewRegistry()
	withReg, err := buildFigures(w.e.seed, figRuns, reg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	fp, err := sweepAll(withReg)
	realWall := time.Since(t0)
	if err != nil || fp != want {
		return nil, fmt.Errorf("registry lap: fingerprint %016x, want %016x (err %v)", fp, want, err)
	}

	// An untimed shadow lap is the run time alone; what RunSweep adds
	// on top of it is scheduling. Compared with the lap just before it,
	// not with the timed pass: this box drifts by more than the share
	// within seconds.
	fp, plainWall, err := shadowSweeps(w.specs, nil, nil, nil)
	if err != nil || fp != want {
		return nil, fmt.Errorf("plain shadow lap: fingerprint %016x, want %016x (err %v)", fp, want, err)
	}

	lay, algs := &simLayers{}, map[string]*algTimes{}
	lap := w.e.spans.open("lap", -1)
	before := readMem()
	fp, tracedWall, err := shadowSweeps(w.specs, lay, algs, w.e.spans)
	mem := memSince(before)
	w.e.spans.close(lap)
	if err != nil || fp != want {
		return nil, fmt.Errorf("shadow lap: fingerprint %016x, want %016x (err %v)", fp, want, err)
	}
	if err := lay.matchRegistry(algs, reg); err != nil {
		return nil, err
	}
	lay.into(m, algs)
	mem.into(m, float64(figWork(w.specs).runs))
	m["experiment.sched_share"] = 1 - plainWall.Seconds()/realWall.Seconds()
	m["bench.trace_overhead_share"] = tracedWall.Seconds()/timed.medianWall().Seconds() - 1
	runProbes(m, figProcs)
	return m, nil
}

// matchRegistry holds the shadow driver's own counts to the real
// driver's registry for the same seeded work.
func (l *simLayers) matchRegistry(algs map[string]*algTimes, reg *metrics.Registry) error {
	got := l.counts(algs)
	c := reg.Snapshot().Counters
	want := map[string]int64{
		"sim.rounds":          c["sim_rounds_total"],
		"sim.delivery_steps":  c["sim_delivery_steps_total"],
		"sim.delivered":       c["sim_messages_delivered_total"],
		"sim.dropped":         c["sim_messages_dropped_total"],
		"sim.views_installed": c["sim_views_installed_total"],
		"sim.changes":         c["sim_changes_injected_total"],
		"sim.assertions":      c["sim_checker_assertions_total"],
	}
	for name, w := range want {
		if got[name] != w {
			return fmt.Errorf("%s: shadow driver counted %d, the driver's registry %d", name, got[name], w)
		}
	}
	return nil
}

func (l *simLayers) counts(algs map[string]*algTimes) map[string]int64 {
	var delivered, views int64
	for _, t := range algs {
		delivered += t.deliver.calls
		views += t.viewChange.calls
	}
	return map[string]int64{
		"sim.rounds":          l.rounds,
		"sim.delivery_steps":  l.steps,
		"sim.delivered":       delivered,
		"sim.dropped":         l.steps - delivered,
		"sim.views_installed": views,
		"sim.changes":         l.changes,
		"sim.assertions":      l.assertions,
	}
}

// into writes the sim.*, alg.* and netsim.* metrics of one traced lap.
// Handler times lose the clock share measured inside them; the
// DeliverBatch self time loses the handlers and their whole clock cost.
func (l *simLayers) into(m map[string]float64, algs map[string]*algTimes) {
	pair, inside := clockCost()
	all := newAlgTimes()
	for name, t := range algs {
		m["alg."+name+".handler_s"] = t.total(inside).Seconds()
		all.deliver.merge(t.deliver)
		all.viewChange.merge(t.viewChange)
		all.poll.merge(t.poll)
	}
	algDeliver := all.deliver.estimate(inside)
	m["alg.deliver_s"] = algDeliver.Seconds()
	m["alg.view_change_s"] = all.viewChange.estimate(inside).Seconds()
	m["alg.poll_s"] = all.poll.estimate(inside).Seconds()
	if all.deliver.calls > 0 {
		m["alg.ns_per_deliver"] = float64(algDeliver) / float64(all.deliver.calls)
	}
	m["sim.collect_s"] = l.collect.Seconds()
	m["sim.deliver_s"] = l.deliver.Seconds()
	self := l.deliver - algDeliver - time.Duration(all.deliver.sampled)*pair
	m["sim.deliver_self_s"] = self.Seconds()
	m["sim.issue_views_s"] = l.issueViews.Seconds()
	m["sim.checker_s"] = l.checker.Seconds()
	m["sim.reset_s"] = l.reset.Seconds()
	m["netsim.change_s"] = l.change.Seconds()
	if l.steps > 0 {
		m["sim.ns_per_delivery"] = float64(self) / float64(l.steps)
	}
	for name, n := range l.counts(algs) {
		m[name] = float64(n)
	}
}

// ---- kilo_1024 ----

const (
	kiloProcs   = 1024
	kiloRuns    = 4
	kiloChanges = 6
	kiloRate    = 4
	// kiloNominalSteps is about one lap's delivery steps.
	kiloNominalSteps = 2e7
)

type kilo struct {
	e     env
	d     *sim.Driver
	reg   *metrics.Registry
	steps *metrics.Counter
}

func newKilo(e env) workload { return &kilo{e: e} }

func kiloConfig(reg *metrics.Registry) sim.Config {
	return sim.Config{Procs: kiloProcs, Changes: kiloChanges, MeanRounds: kiloRate, Metrics: reg}
}

func (w *kilo) setup() error {
	f, err := algset.ByName("ykd")
	if err != nil {
		return err
	}
	w.reg = metrics.NewRegistry()
	w.steps = w.reg.Counter("sim_delivery_steps_total", "")
	// The warm-up run grows the per-run arena to a working size. Its
	// source does not depend on the seed, so that setup_s is the same
	// work on every run.
	w.d = sim.NewDriver(f, kiloConfig(w.reg), rng.New(0))
	_, err = w.d.Run()
	return err
}

func fingerprintRun(fp fingerprint, r sim.RunResult) {
	fp.flag(r.PrimaryFormed)
	fp.ints(int64(r.Rounds), int64(r.ChangesInjected), int64(r.AmbiguousAtEnd), int64(r.ReformRounds),
		int64(r.MaxMessageBytes), int64(r.MaxRoundBytes), int64(len(r.AmbiguousAtChanges)))
	for _, n := range r.AmbiguousAtChanges {
		fp.ints(int64(n))
	}
}

// kiloLap is one lap on any driver: reset takes the run's source, run
// executes it.
func kiloLap(seed int64, reset func(*rng.Source), run func() (sim.RunResult, error)) (uint64, error) {
	fp := newFingerprint()
	for i := int64(0); i < kiloRuns; i++ {
		reset(rng.New(seed + i))
		r, err := run()
		if err != nil {
			return 0, err
		}
		fingerprintRun(fp, r)
	}
	return fp.sum(), nil
}

func (w *kilo) lap() (lapStats, error) {
	before := w.steps.Value()
	t0 := time.Now()
	fp, err := kiloLap(w.e.seed, w.d.Reset, w.d.Run)
	wall := time.Since(t0)
	if err != nil {
		return lapStats{}, err
	}
	work := simWork{runs: kiloRuns, steps: w.steps.Value() - before, changes: kiloRuns * kiloChanges}
	return simLapStats(wall, kiloRuns, fp, work, kiloNominalSteps), nil
}

func (w *kilo) close() {}

func (w *kilo) layers(timed *pass) (map[string]float64, error) {
	want, err := timed.sameFingerprint()
	if err != nil {
		return nil, err
	}
	f, err := algset.ByName("ykd")
	if err != nil {
		return nil, err
	}
	// The timed laps ran with a registry; one more lap on a fresh one
	// gives the counts of exactly one lap to hold the shadow driver to.
	reg := metrics.NewRegistry()
	real := sim.NewDriver(f, kiloConfig(reg), rng.New(w.e.seed))
	if _, err := kiloLap(w.e.seed, real.Reset, real.Run); err != nil {
		return nil, err
	}

	m := map[string]float64{}
	lay, algs := &simLayers{}, map[string]*algTimes{}
	d := newShadowDriver(timedFactory(f, algTimesFor(algs, f.Name)), kiloConfig(nil), rng.New(w.e.seed), lay, w.e.spans)
	d.parent = w.e.spans.open("lap", -1)
	before := readMem()
	t0 := time.Now()
	fp, err := kiloLap(w.e.seed, d.reset, d.run)
	tracedWall := time.Since(t0)
	mem := memSince(before)
	w.e.spans.close(d.parent)
	if err != nil || fp != want {
		return nil, fmt.Errorf("shadow lap: fingerprint %016x, want %016x (err %v)", fp, want, err)
	}
	if err := lay.matchRegistry(algs, reg); err != nil {
		return nil, err
	}
	lay.into(m, algs)
	mem.into(m, kiloRuns)
	m["bench.trace_overhead_share"] = tracedWall.Seconds()/timed.medianWall().Seconds() - 1
	runProbes(m, kiloProcs)
	return m, nil
}

// ---- soak_farm_64 ----

// quorumcheck's defaults — all six algorithms, 64 processes, segments
// of 12 changes at rate 1.5, a 4096-event trace ring per chain, checker
// on — cut to soakChanges changes per algorithm over soakChains chains
// (a chain's budget of 30 rounds up to three segments, so a lap injects
// 864 changes). Twenty-four chains, not twelve: with two workers the
// last chain leaves one of them idle for about half its length, and on
// twelve chains that tail moved the lap by ±15 % from seed to seed.
const (
	soakProcs   = 64
	soakChanges = 120
	soakChains  = 4
	soakWorkers = 2
	// soakNominalSteps is about one lap's delivery steps.
	soakNominalSteps = 2.5e6
)

type soak struct {
	e env
	// counted is the untimed shadow replay of this seed's campaign: the
	// campaign report has no delivery-step count, the replay does, and
	// its fingerprint ties the two to the same work.
	counted *shadowSoakResult
}

func newSoak(e env) workload { return &soak{e: e} }

func (w *soak) campaign(changes, retain int) campaign.Config {
	return soakCampaign(w.e.seed, changes, retain)
}

func soakCampaign(seed int64, changes, retain int) campaign.Config {
	return campaign.Config{
		Factories:   algset.All(),
		Procs:       soakProcs,
		Changes:     changes,
		Segment:     12,
		Rate:        1.5,
		Seed:        seed,
		Chains:      soakChains,
		TraceRetain: retain,
	}
}

// farmRun pushes one campaign through a coordinator on loopback TCP
// and soakWorkers in-process workers of capacity 1.
func farmRun(cfg campaign.Config, reg *metrics.Registry) (*campaign.Result, error) {
	c, err := farm.NewCoordinator(farm.CoordinatorConfig{Campaign: cfg, Listen: "127.0.0.1:0", Metrics: reg})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	serveErr := make([]error, soakWorkers)
	for i := 0; i < soakWorkers; i++ {
		wk, err := farm.Join(farm.WorkerConfig{Addr: c.Addr(), Capacity: 1})
		if err != nil {
			c.Close()
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serveErr[i] = wk.Serve()
		}(i)
	}
	res, err := c.Run()
	wg.Wait()
	for _, e := range serveErr {
		if err == nil {
			err = e
		}
	}
	return res, err
}

// soakOutcome checks a campaign result and reduces it to what a lap
// reports: every chain completed exactly once, none requeued, no
// violation; the fingerprint covers the deterministic chain counters.
func soakOutcome(res *campaign.Result, cfg campaign.Config) (changes, chains int64, fp uint64, err error) {
	if len(res.Violations) > 0 {
		return 0, 0, 0, fmt.Errorf("%d checker violations, first: %v", len(res.Violations), res.Violations[0])
	}
	h := newFingerprint()
	for _, a := range res.Algorithms {
		for _, c := range a.Chains {
			if c.Runs == 0 {
				return 0, 0, 0, fmt.Errorf("%s chain %d did not complete", a.Algorithm, c.Chain)
			}
			if c.Requeued != 0 {
				return 0, 0, 0, fmt.Errorf("%s chain %d was requeued %d times", a.Algorithm, c.Chain, c.Requeued)
			}
			h.str(a.Algorithm)
			h.ints(int64(c.Chain), int64(c.Changes), int64(c.Runs), int64(c.Formed), c.Assertions)
			chains++
		}
		changes += int64(a.Changes)
	}
	if want := int64(len(cfg.Factories) * cfg.Chains); chains != want {
		return 0, 0, 0, fmt.Errorf("farm completed %d chains, want %d", chains, want)
	}
	return changes, chains, h.sum(), nil
}

func (w *soak) setup() error {
	// The warm-up's inputs do not depend on the seed, so that setup_s
	// is the same work on every run.
	cfg := soakCampaign(0, soakChanges/2, 4096)
	res, err := farmRun(cfg, nil)
	if err != nil {
		return err
	}
	_, _, _, err = soakOutcome(res, cfg)
	return err
}

func (w *soak) lap() (lapStats, error) {
	cfg := w.campaign(soakChanges, 4096)
	if w.counted == nil {
		// The ring does not change what is delivered; without it the
		// replay takes a tenth of a lap.
		counted, err := shadowSoak(w.campaign(soakChanges, 0), nil, nil, nil)
		if err != nil {
			return lapStats{}, err
		}
		w.counted = &counted
	}
	t0 := time.Now()
	res, err := farmRun(cfg, nil)
	wall := time.Since(t0)
	if err != nil {
		return lapStats{}, err
	}
	changes, chains, fp, err := soakOutcome(res, cfg)
	if err != nil {
		return lapStats{}, err
	}
	if fp != w.counted.fp {
		return lapStats{}, fmt.Errorf("farm fingerprint %016x, shadow replay of the same campaign %016x", fp, w.counted.fp)
	}
	work := simWork{steps: w.counted.steps, changes: changes}
	for _, a := range res.Algorithms {
		work.runs += int64(a.Runs)
	}
	return simLapStats(wall, chains, fp, work, soakNominalSteps), nil
}

func (w *soak) close() {}

// shadowSoakResult is one replayed campaign: the fingerprint of its
// chain counters, trace events recorded, delivery steps and wall time.
type shadowSoakResult struct {
	fp     uint64
	events uint64
	steps  int64
	wall   time.Duration
}

// shadowSoak replays the campaign's chains one after the other with
// the shadow driver, as campaign's runChain does: heal, run a segment,
// repeat to the chain's budget, checker on.
func shadowSoak(cfg campaign.Config, lay *simLayers, algs map[string]*algTimes, spans *spanLog) (res shadowSoakResult, err error) {
	h := newFingerprint()
	t0 := time.Now()
	for _, f := range cfg.Factories {
		for chain := 0; chain < cfg.Chains; chain++ {
			simCfg := sim.Config{Procs: cfg.Procs, Changes: cfg.Segment, MeanRounds: cfg.Rate, CheckSafety: true}
			if cfg.TraceRetain > 0 {
				simCfg.Trace = trace.NewRecorder(cfg.TraceRetain)
				simCfg.TraceSampleEvery = 8
			}
			// campaign's chainSource, which is not exported; held to it
			// by the fingerprint comparison.
			src := rng.New(cfg.Seed)
			if cfg.Chains > 1 {
				src = src.ChildLabel("campaign/"+f.Name, cfg.Seed, int64(chain))
			}
			budget := cfg.Changes / cfg.Chains
			if chain < cfg.Changes%cfg.Chains {
				budget++
			}
			d := newShadowDriver(f, simCfg, src, nil, nil)
			if lay != nil {
				d = newShadowDriver(timedFactory(f, algTimesFor(algs, f.Name)), simCfg, src, &simLayers{}, spans)
			}
			var changes, runs, formed int
			for changes < budget {
				d.heal()
				r, err := d.run()
				if err != nil {
					return res, fmt.Errorf("shadow %s chain %d: %w", f.Name, chain, err)
				}
				changes += r.ChangesInjected
				runs++
				if r.PrimaryFormed {
					formed++
				}
			}
			if lay != nil {
				lay.add(d.lay)
			}
			if simCfg.Trace != nil {
				res.events += simCfg.Trace.Total()
			}
			res.steps += d.lay.steps
			h.str(f.Name)
			// The shadow driver's own assertion count stands where
			// campaign reads the real driver's registry.
			h.ints(int64(chain), int64(changes), int64(runs), int64(formed), d.lay.assertions)
		}
	}
	res.fp, res.wall = h.sum(), time.Since(t0)
	return res, nil
}

func (l *simLayers) add(o *simLayers) {
	l.collect += o.collect
	l.deliver += o.deliver
	l.issueViews += o.issueViews
	l.checker += o.checker
	l.reset += o.reset
	l.change += o.change
	l.rounds += o.rounds
	l.steps += o.steps
	l.changes += o.changes
	l.assertions += o.assertions
}

func (w *soak) layers(timed *pass) (map[string]float64, error) {
	want, err := timed.sameFingerprint()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	cfg := w.campaign(soakChanges, 4096)

	// The farm once more with a registry, then the same campaign run
	// locally at the same worker count: merged counters must agree.
	reg := metrics.NewRegistry()
	t0 := time.Now()
	farmed, err := farmRun(cfg, reg)
	farmWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	_, chains, fp, err := soakOutcome(farmed, cfg)
	if err != nil || fp != want {
		return nil, fmt.Errorf("traced farm lap: fingerprint %016x, want %016x (err %v)", fp, want, err)
	}
	experiment.SetParallelism(soakWorkers)
	t0 = time.Now()
	local, err := campaign.Run(cfg)
	localWall := time.Since(t0)
	experiment.SetParallelism(1)
	if err != nil {
		return nil, err
	}
	if _, _, fp, err := soakOutcome(local, cfg); err != nil || fp != want {
		return nil, fmt.Errorf("local campaign: fingerprint %016x, want the farm's %016x (err %v)", fp, want, err)
	}
	chainWall := func(res *campaign.Result) (sum time.Duration, each []float64) {
		for _, a := range res.Algorithms {
			for _, c := range a.Chains {
				sum += c.Wall
				each = append(each, c.Wall.Seconds())
			}
		}
		return
	}
	farmBusy, farmChains := chainWall(farmed)
	localBusy, _ := chainWall(local)
	m["farm.overhead_share"] = farmWall.Seconds()/localWall.Seconds() - 1
	m["farm.idle_share"] = 1 - farmBusy.Seconds()/(soakWorkers*farmWall.Seconds())
	m["farm.chain_wall_p50_s"] = median(farmChains)
	m["campaign.sched_share"] = 1 - localBusy.Seconds()/(soakWorkers*localWall.Seconds())
	c := reg.Snapshot().Counters
	m["farm.dispatched"] = float64(c["farm_chains_dispatched_total"])
	m["farm.completed"] = float64(c["farm_chains_completed_total"])
	m["farm.requeued"] = float64(c["farm_chains_requeued_total"])

	// Layer times from a shadow lap doing the same work: checker and
	// trace ring on.
	lay, algs := &simLayers{}, map[string]*algTimes{}
	lap := w.e.spans.open("lap", -1)
	before := readMem()
	traced, err := shadowSoak(cfg, lay, algs, w.e.spans)
	mem := memSince(before)
	w.e.spans.close(lap)
	if err != nil || traced.fp != want {
		return nil, fmt.Errorf("shadow soak lap: fingerprint %016x, want %016x (err %v)", traced.fp, want, err)
	}
	lay.into(m, algs)
	mem.into(m, float64(chains))
	m["trace.events"] = float64(traced.events)

	// What the trace ring costs: the same chains, untimed, with and
	// without it.
	withRing, err := shadowSoak(cfg, nil, nil, nil)
	if err != nil || withRing.fp != want {
		return nil, fmt.Errorf("untimed shadow soak lap: fingerprint %016x, want %016x (err %v)", withRing.fp, want, err)
	}
	without, err := shadowSoak(w.campaign(soakChanges, 0), nil, nil, nil)
	if err != nil {
		return nil, err
	}
	m["trace.cost_share"] = 1 - without.wall.Seconds()/withRing.wall.Seconds()
	// The shadow lap runs its chains on one thread, the farm on
	// soakWorkers: compare thread time with thread time.
	m["bench.trace_overhead_share"] = traced.wall.Seconds()/withRing.wall.Seconds() - 1
	runProbes(m, soakProcs)
	return m, nil
}
