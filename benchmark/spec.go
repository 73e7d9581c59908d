package main

// This file is the benchmark's declaration: the workloads, and every
// metric with its unit, direction and — end to end — regression bound.
// BENCHMARK.json at the root of the repository repeats it for the
// driver; TestSpecMatchesBenchmarkJSON holds the two together.

import "dynvote/internal/algset"

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// rateUnit names what ops_per_s counts on this workload.
	rateUnit string
	build    func(env) workload
}

const runSeconds = 10

var workloads = []workloadDecl{
	{
		Name:     "fig_sweep_64",
		Why:      "Regenerates thesis Figures 4-2 and 4-5 through experiment.RunSweep: 720 single-thread runs at 64 procs, checker and trace off. Rate in delivery steps; wait = 1.7e7 of them.",
		rateUnit: "delivery steps",
		build:    newFigSweep,
	},
	{
		Name:     "kilo_1024",
		Why:      "One reused sim.Driver at 1024 procs: wide proc.Set/Bits/quorum paths, the per-run arena and DeliverBatch dominate; the scheduler does nothing. Rate in delivery steps; wait = 2e7 of them.",
		rateUnit: "delivery steps",
		build:    newKilo,
	},
	{
		Name:     "soak_farm_64",
		Why:      "quorumcheck's default soak (six algorithms, checker on, 4096-event trace ring) through farm + two workers: the only path through trace, campaign, farm. Rate in delivery steps; wait = 2.5e6.",
		rateUnit: "delivery steps",
		build:    newSoak,
	},
	{
		Name:     "live_mixed",
		Why:      "3 replicas over loopback TCP, 8 closed-loop clients, window 1, half reads half writes: the latency of one live request. Rate in requests; wait = a read.",
		rateUnit: "requests",
		build:    newLiveMixed,
	},
	{
		Name:     "live_write_burst",
		Why:      "Same cluster, 2 clients, window 32, writes only: frame coalescing, the bounded send queues and their drop policy only act under this backpressure. Rate in writes; wait = a write.",
		rateUnit: "writes",
		build:    newLiveBurst,
	},
	{
		Name:     "live_failover",
		Why:      "Same cluster, open-loop probe writes every 500 us on a majority and a minority replica through partition/heal cycles: time without a primary. Rate in accepted writes; wait = rejoin.",
		rateUnit: "accepted writes",
		build:    newLiveFailover,
	},
}

// endToEnd are the metrics every workload reports from its timed,
// untraced pass. The driver requires each of them from each workload,
// so they are phrased in the workload's own unit of work (see the
// workloads' Why and README.md); the metrics that exist on some
// workloads only are per-layer metrics of the layer that observes them.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wait_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "accepted_pct", Unit: "%", Better: "higher", Bound: 0.04},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDecl{Name: n, Unit: unit, Better: better})
		}
	}
	// Simulator, algorithms, topology: busy time and counts from the
	// shadow driver.
	add("s", "lower", "sim.collect_s", "sim.deliver_s", "sim.deliver_self_s", "sim.issue_views_s",
		"sim.checker_s", "sim.reset_s", "alg.deliver_s", "alg.view_change_s", "alg.poll_s", "netsim.change_s")
	for _, f := range algset.All() {
		add("s", "lower", "alg."+f.Name+".handler_s")
	}
	add("ns", "lower", "sim.ns_per_delivery", "alg.ns_per_deliver")
	add("count", "lower", "sim.rounds", "sim.delivery_steps", "sim.delivered", "sim.dropped",
		"sim.views_installed", "sim.changes", "sim.assertions")
	// The timed pass's rate in each of the simulator's units.
	add("1/s", "higher", "sim.runs_per_s", "sim.deliveries_per_s", "sim.changes_per_s")
	// Leaf packages, probed directly at the workload's width.
	add("ns", "lower", "rng.intn_ns", "rng.shuffle_ns", "proc.set_intersect_ns", "proc.set_foreach_ns",
		"proc.bits_add_ns", "quorum.subquorum_ns", "trace.record_ns", "wire.frame_rt_ns")
	add("count", "lower", "trace.events")
	add("share", "lower", "trace.cost_share")
	// Schedulers.
	add("share", "lower", "experiment.sched_share", "campaign.sched_share", "farm.overhead_share", "farm.idle_share")
	add("s", "lower", "farm.chain_wall_p50_s")
	add("count", "higher", "farm.dispatched", "farm.completed")
	add("count", "lower", "farm.requeued")
	// Live path: what the client sees per class, then each layer below.
	add("us", "lower", "loadgen.read_p50_us", "loadgen.read_p99_us", "loadgen.read_p999_us",
		"loadgen.write_p50_us", "loadgen.write_p99_us", "loadgen.write_p999_us", "loadgen.sched_late_p99_us")
	add("ns", "lower", "loadgen.encode_ns", "loadgen.flush_ns", "loadgen.wait_ns",
		"register.get_ns", "register.set_ns", "gcs.broadcast_ns", "gcs.tcp_send_ns")
	add("us", "lower", "register.apply_lag_p50_us", "register.apply_lag_p99_us", "gcs.recv_gap_p99_us")
	add("count", "lower", "gcs.tcp_frames_per_op", "gcs.tcp_bytes_per_op", "gcs.app_payloads_per_op",
		"gcs.tcp_sendq_drops", "gcs.tcp_inbox_drops", "gcs.tcp_unreachable_drops", "gcs.tcp_dials",
		"gcs.views_installed", "register.lost_write_keys", "loadgen.not_primary", "loadgen.errors")
	// Failover, from the gcs.Timeline.
	add("ms", "lower", "gcs.detect_ms", "gcs.heal_to_proposal_ms", "gcs.proposal_to_install_ms",
		"alg.install_to_primary_ms", "gcs.majority_outage_p50_ms", "loadgen.rejoin_p50_ms")
	add("count", "lower", "gcs.views_per_cycle", "gcs.stuck_cycles")
	add("%", "higher", "loadgen.write_availability_pct")
	// Runtime and the benchmark itself.
	add("count", "lower", "go.allocs_per_op", "go.alloc_bytes_per_op")
	add("ms", "lower", "go.gc_pause_ms")
	add("MB", "lower", "go.peak_rss_mb")
	add("share", "lower", "bench.trace_overhead_share", "bench.lap_iqr_share")
	add("count", "higher", "bench.laps")
	return out
}
