package sim

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/core"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/trace"
	"dynvote/internal/view"
	"dynvote/internal/ykd"
)

// The two-stage delivery contract: a Driver.Run whose large batches are
// planned on the caller's goroutine and executed on a second one is
// bit-identical to the same run through the fused loop.

// setPipelineMin sets the two-stage threshold for the rest of the test
// (math.MaxInt forces the fused loop everywhere) and makes sure a second
// core exists for the executor, which Run only starts at GOMAXPROCS > 1.
func setPipelineMin(t *testing.T, min int) {
	t.Helper()
	prevMin, prevProcs := pipelineMin, runtime.GOMAXPROCS(2)
	pipelineMin = min
	t.Cleanup(func() {
		pipelineMin = prevMin
		runtime.GOMAXPROCS(prevProcs)
	})
}

// pipeOutcome is everything a scenario's runs leave behind: each run's
// result, and after each run the distinct views and every process's
// InPrimary; and the scenario's trace, whose last events pin the order
// of the deliveries themselves, which the results alone may not.
type pipeOutcome struct {
	results []RunResult
	views   [][]view.View
	primary [][]bool
	events  []trace.Event
	total   uint64
}

func (o *pipeOutcome) record(d *Driver, res RunResult) {
	c := d.Cluster()
	o.results = append(o.results, res)
	o.views = append(o.views, append([]view.View(nil), c.CurrentViews()...))
	in := make([]bool, c.N())
	for p := range in {
		in[p] = c.Algorithm(proc.ID(p)).InPrimary()
	}
	o.primary = append(o.primary, in)
}

// pipeScenario runs f under cfg with two-stage threshold min: runs
// fresh-start runs on one reset driver, or cascading runs healed in
// between when cascading is set. It fails the test unless the executor
// was used exactly when min allows it and there was traffic to deliver.
func pipeScenario(t *testing.T, f core.Factory, cfg Config, runs int, cascading bool, min int) pipeOutcome {
	t.Helper()
	setPipelineMin(t, min)
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(1 << 14)
	// One delivery in seven is recorded: enough to pin the order, at a
	// seventh of the recording cost under the race detector.
	cfg.Metrics, cfg.Trace, cfg.TraceSampleEvery = reg, rec, 7
	var out pipeOutcome
	root := rng.New(4099)
	d := NewDriver(f, cfg, root.ChildLabel("pipeline", 0))
	for i := 0; i < runs; i++ {
		if i > 0 {
			if cascading {
				d.Heal()
			} else {
				d.Reset(root.ChildLabel("pipeline", int64(i)))
			}
		}
		res, err := d.Run()
		if err != nil {
			t.Fatalf("%s run %d: %v", f.Name, i, err)
		}
		out.record(d, res)
	}
	out.events, out.total = rec.Events(), rec.Total()
	steps := reg.Counter("sim_delivery_steps_total", "").Value()
	if used := d.cluster.exec != nil; used != (min != math.MaxInt && steps > 0) {
		t.Fatalf("%s: executor used = %v at threshold %d after %d steps", f.Name, used, min, steps)
	}
	return out
}

func TestPipelineParallelDeterminism(t *testing.T) {
	shipped := pipelineMin
	type scenario struct {
		name      string
		cfg       Config
		runs      int
		cascading bool
		min       int // the two-stage side's threshold
	}
	// At the small threshold nearly every batch is split, down to
	// batches of one step and partial blocks.
	const split = 1
	var scenarios []scenario
	for _, cascading := range []bool{false, true} {
		name := "fresh"
		if cascading {
			name = "cascading"
		}
		scenarios = append(scenarios, scenario{name, Config{Procs: 300, Changes: 4, MeanRounds: 2, CheckSafety: true}, 3, cascading, split})
	}
	scenarios = append(scenarios, scenario{"crash-recover", Config{
		Procs: 300, Changes: 4, MeanRounds: 1, CheckSafety: true,
		Crash: &CrashPlan{AfterChanges: 1, Process: proc.None, RecoverAfter: 2},
	}, 2, false, split})

	for _, f := range algset.All() {
		for _, s := range scenarios {
			t.Run(f.Name+"/"+s.name, func(t *testing.T) {
				fused := pipeScenario(t, f, s.cfg, s.runs, s.cascading, math.MaxInt)
				staged := pipeScenario(t, f, s.cfg, s.runs, s.cascading, s.min)
				comparePipeOutcomes(t, fused, staged)
			})
		}
	}
	t.Run("ykd/1024", func(t *testing.T) {
		if testing.Short() {
			t.Skip("1024-proc runs are slow")
		}
		f := ykd.Factory(ykd.VariantYKD)
		cfg := Config{Procs: 1024, Changes: 2, MeanRounds: 2, CheckSafety: true}
		fused := pipeScenario(t, f, cfg, 1, false, math.MaxInt)
		staged := pipeScenario(t, f, cfg, 1, false, shipped)
		comparePipeOutcomes(t, fused, staged)
	})
}

func comparePipeOutcomes(t *testing.T, fused, staged pipeOutcome) {
	t.Helper()
	if fused.total != staged.total || !reflect.DeepEqual(fused.events, staged.events) {
		t.Errorf("traces differ: %d events fused, %d staged, or their last events differ", fused.total, staged.total)
	}
	for i := range fused.results {
		if !reflect.DeepEqual(fused.results[i], staged.results[i]) {
			t.Errorf("run %d: result\n fused  %+v\n staged %+v", i, fused.results[i], staged.results[i])
		}
		if !reflect.DeepEqual(fused.views[i], staged.views[i]) {
			t.Errorf("run %d: final views differ:\n fused  %v\n staged %v", i, fused.views[i], staged.views[i])
		}
		if !reflect.DeepEqual(fused.primary[i], staged.primary[i]) {
			t.Errorf("run %d: InPrimary differs between the paths", i)
		}
	}
}

// noisy broadcasts one message every poll, forever, and claims to be in
// the primary. Deliver panics with boom once the cluster-wide delivery
// count reaches panicAt (never when 0).
type noisy struct {
	out     []core.Message
	count   *int
	panicAt int
}

type noisyMsg struct{}

func (noisyMsg) Kind() string { return "test/noisy" }

// boom is the panic value: its address is what the caller must see.
var boom = errors.New("handler failed")

func (a *noisy) Name() string         { return "noisy" }
func (a *noisy) ViewChange(view.View) {}
func (a *noisy) InPrimary() bool      { return true }
func (a *noisy) Poll() []core.Message { return a.out }
func (a *noisy) Deliver(proc.ID, core.Message) {
	*a.count++
	if *a.count == a.panicAt {
		panic(boom)
	}
}

func noisyFactory(panicAt int) core.Factory {
	count := new(int)
	return core.Factory{Name: "noisy", New: func(proc.ID, view.View) core.Algorithm {
		return &noisy{out: []core.Message{noisyMsg{}}, count: count, panicAt: panicAt}
	}}
}

// waitGoroutines fails unless the goroutine count falls back to want: a
// joined executor may take a moment to leave the scheduler's count after
// it has answered the stop.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineFailurePaths ends a two-stage Run three ways — normally, on
// a checker violation and on a handler panic — and requires the
// executor to be joined each time and the panic to reach the caller with
// its original value. Every batch runs in two stages here; a round of 160
// processes is 160·159 deliveries, over twelve blocks.
func TestPipelineFailurePaths(t *testing.T) {
	setPipelineMin(t, 1)
	run := func(t *testing.T, f core.Factory, cfg Config) (res RunResult, err error, panicked any) {
		base := runtime.NumGoroutine()
		d := NewDriver(f, cfg, rng.New(7))
		defer func() {
			panicked = recover()
			if d.cluster.exec == nil {
				t.Error("the executor never started")
			}
			waitGoroutines(t, base)
		}()
		res, err = d.Run()
		return res, err, nil
	}

	t.Run("normal", func(t *testing.T) {
		_, err, p := run(t, ykd.Factory(ykd.VariantYKD), Config{Procs: 160, Changes: 2, MeanRounds: 1})
		if err != nil || p != nil {
			t.Fatalf("err %v, panic %v", err, p)
		}
	})
	t.Run("violation", func(t *testing.T) {
		// Every noisy process claims the primary, so the first split
		// gives two primaries.
		_, err, p := run(t, noisyFactory(0), Config{Procs: 160, Changes: 1, CheckSafety: true})
		var se *SafetyError
		if !errors.As(err, &se) || p != nil {
			t.Fatalf("err %v, panic %v; want a safety violation", err, p)
		}
	})
	t.Run("panic", func(t *testing.T) {
		// The 10 000th delivery is in the run's fifth block or later:
		// the ring has wrapped by then.
		_, _, p := run(t, noisyFactory(10000), Config{Procs: 160, Changes: 1, MeanRounds: 4})
		if p != boom {
			t.Fatalf("recovered %v, want the handler's own panic value", p)
		}
	})
}

// TestPipelineRunAllocs pins the executor's cost in allocations: a Run on
// a warmed 1024-process driver allocates at most two objects more with
// the executor than through the fused loop. testing.AllocsPerRun would
// pin GOMAXPROCS to 1 and with it the fused loop, so the count is read
// from the runtime, and the fewest of a few runs of one seed counts: the
// runtime keeps dead goroutines and wait-queue entries per core, and a
// run that starts its executor on a core whose cache is empty pays a few
// objects the code under test does not ask for. An allocation the
// two-stage path makes itself shows in every run, the fewest included.
func TestPipelineRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-proc runs are slow")
	}
	const warm, runs = 2, 5
	cfg := Config{Procs: 1024, Changes: 1, MeanRounds: 1}
	// fewest runs the same seeded run warm+runs times on one driver and
	// returns the smallest of the measured runs' allocation counts.
	fewest := func(min int) uint64 {
		setPipelineMin(t, min)
		d := NewDriver(ykd.Factory(ykd.VariantYKD), cfg, rng.New(61))
		counts := make([]uint64, 0, runs)
		var before, after runtime.MemStats
		for i := 0; i < warm+runs; i++ {
			d.Reset(rng.New(62))
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := d.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i >= warm {
				counts = append(counts, after.Mallocs-before.Mallocs)
			}
		}
		if used := d.cluster.exec != nil; used != (min != math.MaxInt) {
			t.Fatalf("executor used = %v at threshold %d", used, min)
		}
		t.Logf("threshold %d: %v", min, counts)
		return slices.Min(counts)
	}
	shipped := pipelineMin
	fused, staged := fewest(math.MaxInt), fewest(shipped)
	if staged > fused+2 {
		t.Errorf("a two-stage Run allocates %d objects, the fused loop %d: want at most 2 more", staged, fused)
	}
}
