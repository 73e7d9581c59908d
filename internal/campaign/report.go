package campaign

import (
	"time"

	"dynvote/internal/metrics"
)

// Report is the machine-readable record of one campaign, written by
// `quorumcheck -json` so CI can assert on the soak's outcome — the
// change count actually injected, per-algorithm availability, checker
// assertion totals, and the violation (if any) — without scraping the
// human-readable progress stream.
type Report struct {
	metrics.ReportHeader
	Procs   int     `json:"procs"`
	Changes int     `json:"changes"`
	Segment int     `json:"segment"`
	Rate    float64 `json:"rate"`
	Chains  int     `json:"chains"`
	Workers int     `json:"workers"`
	// Requeued totals the chain re-issues across the whole campaign —
	// farm retries after worker loss or straggler deadlines. Always 0
	// for local runs.
	Requeued int `json:"requeued"`
	// Aborted marks a campaign drained early (SIGINT, coordinator
	// shutdown): the statistics are a clean partial prefix.
	Aborted bool `json:"aborted,omitempty"`
	// Violation carries the first chain failure, trace dump included;
	// empty on a clean campaign.
	Violation  string            `json:"violation,omitempty"`
	Algorithms []AlgorithmReport `json:"algorithms"`
}

// AlgorithmReport flattens one algorithm's merged chains.
type AlgorithmReport struct {
	Algorithm       string        `json:"algorithm"`
	Changes         int           `json:"changes"`
	Runs            int           `json:"runs"`
	Formed          int           `json:"formed"`
	AvailabilityPct float64       `json:"availability_pct"`
	Assertions      int64         `json:"assertions"`
	Chains          []ChainReport `json:"chains"`
}

// ChainReport is one chain's contribution: the deterministic counters
// plus execution accounting (wall time, farm requeues) so CI artifacts
// show where a campaign's time went and which chains were retried.
type ChainReport struct {
	Chain       int     `json:"chain"`
	Changes     int     `json:"changes"`
	Runs        int     `json:"runs"`
	Formed      int     `json:"formed"`
	Assertions  int64   `json:"assertions"`
	WallSeconds float64 `json:"wall_seconds"`
	Requeued    int     `json:"requeued"`
}

// NewReport flattens a campaign result. violation may be nil.
func NewReport(tool string, cfg Config, res *Result, workers int, violation error) *Report {
	cfg = cfg.withDefaults()
	r := &Report{
		ReportHeader: metrics.ReportHeader{
			Tool:        tool,
			GeneratedAt: time.Now().UTC(),
			Seed:        cfg.Seed,
			WallSeconds: res.Elapsed.Seconds(),
		},
		Procs:   cfg.Procs,
		Changes: cfg.Changes,
		Segment: cfg.Segment,
		Rate:    cfg.Rate,
		Chains:  cfg.Chains,
		Workers: workers,
		Aborted: res.Aborted,
	}
	if violation != nil {
		r.Violation = violation.Error()
	}
	for _, a := range res.Algorithms {
		ar := AlgorithmReport{
			Algorithm:       a.Algorithm,
			Changes:         a.Changes,
			Runs:            a.Runs,
			Formed:          a.Formed,
			AvailabilityPct: a.AvailabilityPercent(),
			Assertions:      a.Assertions,
		}
		for _, c := range a.Chains {
			ar.Chains = append(ar.Chains, ChainReport{
				Chain: c.Chain, Changes: c.Changes, Runs: c.Runs,
				Formed: c.Formed, Assertions: c.Assertions,
				WallSeconds: c.Wall.Seconds(), Requeued: c.Requeued,
			})
			r.Requeued += c.Requeued
		}
		r.Algorithms = append(r.Algorithms, ar)
	}
	return r
}
