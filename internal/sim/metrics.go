package sim

import (
	"dynvote/internal/metrics"
)

// Metrics bundles the simulator's instrumentation, resolved once from
// a registry so the hot loop never touches a map. A nil *Metrics (the
// uninstrumented default) makes every observation a no-op nil check —
// the delivery path adds no allocations and no atomic traffic when
// metrics are disabled (see BenchmarkDriverMetricsOverhead).
//
// Every observation adds straight to its registry counter. None runs
// per delivery — the cluster reports once per DeliverBatch and
// IssueViews, the driver once per round, change and checker pass — so
// the atomic adds are off the inner loop, and a registry reader sees
// the work done so far at any moment, including after a run that a
// checker violation cut short.
type Metrics struct {
	// Runs counts completed Driver.Run invocations.
	Runs *metrics.Counter
	// Rounds counts message rounds executed.
	Rounds *metrics.Counter
	// Deliveries counts delivery steps (one (message, recipient)
	// pair each) — the simulator's innermost unit of work.
	Deliveries *metrics.Counter
	// Delivered counts deliveries that reached the recipient's
	// algorithm.
	Delivered *metrics.Counter
	// Dropped counts deliveries lost to crashes, view-synchronous
	// filtering, or test drop filters.
	Dropped *metrics.Counter
	// Views counts per-process view installations.
	Views *metrics.Counter
	// Changes counts connectivity changes injected.
	Changes *metrics.Counter
	// SettleRounds counts rounds run after a run's change budget was
	// exhausted — the quiescence-settling tail whose length the
	// availability percentages hide.
	SettleRounds *metrics.Counter
	// Assertions counts safety-checker invariant evaluations.
	Assertions *metrics.Counter
	// Reform histograms per-run re-formation latency in rounds
	// (successful runs only).
	Reform *metrics.Histogram
}

// NewMetrics resolves the simulator's instruments from reg. A nil
// registry yields nil — the zero-overhead disabled path.
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Runs:         reg.Counter("sim_runs_total", "completed simulation runs"),
		Rounds:       reg.Counter("sim_rounds_total", "message rounds executed"),
		Deliveries:   reg.Counter("sim_delivery_steps_total", "single-delivery steps executed"),
		Delivered:    reg.Counter("sim_messages_delivered_total", "deliveries that reached an algorithm"),
		Dropped:      reg.Counter("sim_messages_dropped_total", "deliveries dropped (crash, view change, filter)"),
		Views:        reg.Counter("sim_views_installed_total", "per-process view installations"),
		Changes:      reg.Counter("sim_changes_injected_total", "connectivity changes injected"),
		SettleRounds: reg.Counter("sim_settle_rounds_total", "rounds run after the change budget was spent"),
		Assertions:   reg.Counter("sim_checker_assertions_total", "safety-checker invariant evaluations"),
		Reform:       reg.Histogram("sim_reform_rounds", "rounds from last change to a primary re-forming", metrics.RoundBuckets),
	}
}

// The nil-receiver-safe observation helpers below keep the Cluster and
// Driver call sites to one line with a single branch on the disabled
// path.

// observeDeliveries absorbs one DeliverBatch's tallies.
func (m *Metrics) observeDeliveries(delivered, dropped int64) {
	if m == nil {
		return
	}
	m.Deliveries.Add(delivered + dropped)
	m.Delivered.Add(delivered)
	m.Dropped.Add(dropped)
}

func (m *Metrics) observeViews(n int) {
	if m == nil {
		return
	}
	m.Views.Add(int64(n))
}

func (m *Metrics) observeRound(settling bool) {
	if m == nil {
		return
	}
	m.Rounds.Inc()
	if settling {
		m.SettleRounds.Inc()
	}
}

func (m *Metrics) observeChange() {
	if m == nil {
		return
	}
	m.Changes.Inc()
}

func (m *Metrics) observeAssertion() {
	if m == nil {
		return
	}
	m.Assertions.Inc()
}

func (m *Metrics) observeRun(res RunResult) {
	if m == nil {
		return
	}
	m.Runs.Inc()
	if res.ReformRounds >= 0 {
		m.Reform.Observe(float64(res.ReformRounds))
	}
}
