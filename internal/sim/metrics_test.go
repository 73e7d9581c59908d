package sim_test

import (
	"errors"
	"strings"
	"testing"

	"dynvote/internal/metrics"
	"dynvote/internal/naive"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
	"dynvote/internal/ykd"
)

// TestDriverMetrics runs an instrumented case and checks the counters
// tell a consistent story: every delivery step is either delivered or
// dropped, the injected-change counter matches the run result, and the
// re-formation histogram saw the successful run.
func TestDriverMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
		Procs: 8, Changes: 4, MeanRounds: 2, CheckSafety: true, Metrics: reg,
	}, rng.New(7))
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	c := s.Counters
	if c["sim_runs_total"] != 1 {
		t.Errorf("runs = %d, want 1", c["sim_runs_total"])
	}
	if c["sim_rounds_total"] != int64(res.Rounds) {
		t.Errorf("rounds counter %d != result rounds %d", c["sim_rounds_total"], res.Rounds)
	}
	if c["sim_changes_injected_total"] != int64(res.ChangesInjected) {
		t.Errorf("changes counter %d != result changes %d",
			c["sim_changes_injected_total"], res.ChangesInjected)
	}
	steps := c["sim_delivery_steps_total"]
	if steps == 0 {
		t.Error("no delivery steps counted")
	}
	if got := c["sim_messages_delivered_total"] + c["sim_messages_dropped_total"]; got != steps {
		t.Errorf("delivered %d + dropped %d != steps %d",
			c["sim_messages_delivered_total"], c["sim_messages_dropped_total"], steps)
	}
	if c["sim_views_installed_total"] == 0 {
		t.Error("no view installations counted")
	}
	if c["sim_checker_assertions_total"] == 0 {
		t.Error("no checker assertions counted despite CheckSafety")
	}
	if c["sim_settle_rounds_total"] == 0 || c["sim_settle_rounds_total"] >= c["sim_rounds_total"] {
		t.Errorf("settle rounds = %d of %d total: implausible",
			c["sim_settle_rounds_total"], c["sim_rounds_total"])
	}
	if res.PrimaryFormed {
		if h := s.Histograms["sim_reform_rounds"]; h.Count != 1 {
			t.Errorf("reform histogram count = %d, want 1", h.Count)
		}
	}
}

// TestDriverMetricsSharedAcrossRuns: a campaign aggregates many runs
// into one registry.
func TestDriverMetricsSharedAcrossRuns(t *testing.T) {
	reg := metrics.NewRegistry()
	for run := 0; run < 3; run++ {
		d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
			Procs: 8, Changes: 2, MeanRounds: 1, Metrics: reg,
		}, rng.New(int64(run)))
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Counters["sim_runs_total"]; got != 3 {
		t.Errorf("runs = %d, want 3", got)
	}
}

// TestViolationCarriesTrace: a checker violation in a traced run
// returns a ViolationError holding the ring buffer's history, and the
// underlying SafetyError stays reachable through errors.As.
func TestViolationCarriesTrace(t *testing.T) {
	rec := trace.NewRecorder(512)
	d := sim.NewDriver(naive.Factory(), sim.Config{
		Procs: 8, Changes: 10, MeanRounds: 1, CheckSafety: true, Trace: rec,
	}, rng.New(29)) // seed 29 trips the naive algorithm within a few cascading runs
	var err error
	for run := 0; run < 10 && err == nil; run++ {
		d.Heal()
		_, err = d.Run()
	}
	if err == nil {
		t.Fatal("naive algorithm never violated safety under the soak")
	}
	var ve *sim.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("error type = %T, want *sim.ViolationError", err)
	}
	if len(ve.History) == 0 {
		t.Error("violation carries no trace history")
	}
	var se *sim.SafetyError
	if !errors.As(err, &se) {
		t.Error("SafetyError not reachable through the violation")
	}
	msg := err.Error()
	if !strings.Contains(msg, "safety violation") || !strings.Contains(msg, "--- trace") {
		t.Errorf("Error() should render the violation and the trace, got:\n%.200s", msg)
	}
	// The history must include structural events: the changes that led
	// to the violation.
	var changes int
	for _, ev := range ve.History {
		if ev.Kind == trace.KindChange {
			changes++
		}
	}
	if changes == 0 {
		t.Error("no connectivity-change events in the violation history")
	}
}

// TestMetricsAfterViolation: a run cut short by the checker still
// accounts for the work done up to the failure. The registry totals
// are compared with two independent tallies of the same runs: the
// RunResults (rounds, changes) and an unsampled trace big enough to
// hold every event (deliveries, drops, view installations).
func TestMetricsAfterViolation(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := trace.NewRecorder(1 << 14)
	d := sim.NewDriver(naive.Factory(), sim.Config{
		Procs: 8, Changes: 10, MeanRounds: 1, CheckSafety: true, Metrics: reg, Trace: rec,
	}, rng.New(29)) // the TestViolationCarriesTrace reproducer
	var rounds, changes, completed int64
	var err error
	for run := 0; run < 10 && err == nil; run++ {
		d.Heal()
		var res sim.RunResult
		res, err = d.Run()
		rounds += int64(res.Rounds)
		changes += int64(res.ChangesInjected)
		if err == nil {
			completed++
		}
	}
	if err == nil {
		t.Fatal("naive algorithm never violated safety under the soak")
	}
	traced := map[trace.Kind]int64{}
	for _, ev := range rec.Events() {
		traced[ev.Kind]++
	}
	if rec.Total() != uint64(rec.Len()) {
		t.Fatalf("trace ring wrapped (%d events, %d kept): the tally is not complete", rec.Total(), rec.Len())
	}

	c := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"sim_runs_total":               completed,
		"sim_rounds_total":             rounds,
		"sim_changes_injected_total":   changes,
		"sim_messages_delivered_total": traced[trace.KindDeliver],
		"sim_messages_dropped_total":   traced[trace.KindDrop],
		"sim_delivery_steps_total":     traced[trace.KindDeliver] + traced[trace.KindDrop],
		"sim_views_installed_total":    traced[trace.KindView],
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}
	if traced[trace.KindChange] != changes {
		t.Errorf("trace saw %d changes, the results %d", traced[trace.KindChange], changes)
	}
	// One CheckOnePrimary per round and one CheckStableAgreement per
	// completed run; the violating check is the last one counted.
	if got := c["sim_checker_assertions_total"]; got != rounds+completed && got != rounds+completed+1 {
		t.Errorf("sim_checker_assertions_total = %d, want %d (+1 if the end-of-run check tripped)", got, rounds+completed)
	}
}

// TestTraceSampling: delivery events are thinned by the sampling
// factor while structural view events are always kept.
func TestTraceSampling(t *testing.T) {
	full := trace.NewRecorder(1 << 16)
	d := sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
		Procs: 8, Changes: 4, MeanRounds: 2, Trace: full,
	}, rng.New(5))
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}

	sampled := trace.NewRecorder(1 << 16)
	d = sim.NewDriver(ykd.Factory(ykd.VariantYKD), sim.Config{
		Procs: 8, Changes: 4, MeanRounds: 2, Trace: sampled, TraceSampleEvery: 8,
	}, rng.New(5))
	if _, err := d.Run(); err != nil {
		t.Fatal(err)
	}

	count := func(r *trace.Recorder, k trace.Kind) int {
		n := 0
		for _, e := range r.Events() {
			if e.Kind == k {
				n++
			}
		}
		return n
	}
	fullDeliver, sampledDeliver := count(full, trace.KindDeliver), count(sampled, trace.KindDeliver)
	if sampledDeliver == 0 || sampledDeliver*4 > fullDeliver {
		t.Errorf("sampling 1-in-8 kept %d of %d deliveries", sampledDeliver, fullDeliver)
	}
	if fv, sv := count(full, trace.KindView), count(sampled, trace.KindView); fv != sv {
		t.Errorf("view events must not be sampled: full %d, sampled %d", fv, sv)
	}
	if fc, sc := count(full, trace.KindChange), count(sampled, trace.KindChange); fc != sc {
		t.Errorf("change events must not be sampled: full %d, sampled %d", fc, sc)
	}
}
