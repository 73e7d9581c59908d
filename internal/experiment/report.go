package experiment

import "dynvote/internal/metrics"

// RunReport is the machine-readable record of one measurement session:
// what was asked for, what came out, how long it took, and — when the
// session was instrumented — a snapshot of every metric the simulator
// and sweep layers accumulated. cmd/availsim and cmd/figures write one
// with -metrics-out; downstream tooling consumes it with encoding/json
// instead of scraping the human-readable tables.
type RunReport struct {
	metrics.ReportHeader
	Procs int          `json:"procs"`
	Runs  int          `json:"runs"`
	Mode  string       `json:"mode"`
	Cases []CaseReport `json:"cases"`
}

// CaseReport flattens one CaseResult into plain JSON-friendly numbers.
// Availability intervals and histogram summaries are precomputed so a
// consumer needs no knowledge of the stats package.
type CaseReport struct {
	Algorithm  string  `json:"algorithm"`
	Changes    int     `json:"changes"`
	MeanRounds float64 `json:"mean_rounds"`
	Runs       int     `json:"runs"`

	AvailabilityPct float64 `json:"availability_pct"`
	WilsonLowPct    float64 `json:"wilson_low_pct"`
	WilsonHighPct   float64 `json:"wilson_high_pct"`

	ReformMeanRounds float64 `json:"reform_mean_rounds"`
	ReformMaxRounds  int     `json:"reform_max_rounds"`
	NeverReformed    int     `json:"never_reformed"`

	AmbiguousStablePct   float64 `json:"ambiguous_stable_pct"`
	AmbiguousStableMax   int     `json:"ambiguous_stable_max"`
	AmbiguousInFlightPct float64 `json:"ambiguous_in_flight_pct"`
	AmbiguousInFlightMax int     `json:"ambiguous_in_flight_max"`

	MaxMessageBytes int `json:"max_message_bytes,omitempty"`
	MaxRoundBytes   int `json:"max_round_bytes,omitempty"`
}

// NewCaseReport flattens a finished case. Changes is carried alongside
// because CaseResult does not record it.
func NewCaseReport(res CaseResult, changes int) CaseReport {
	lo, hi := res.Availability.WilsonInterval()
	return CaseReport{
		Algorithm:            res.Algorithm,
		Changes:              changes,
		MeanRounds:           res.MeanRounds,
		Runs:                 res.Availability.Runs,
		AvailabilityPct:      res.Availability.Percent(),
		WilsonLowPct:         lo,
		WilsonHighPct:        hi,
		ReformMeanRounds:     res.Reform.Mean(),
		ReformMaxRounds:      res.Reform.Max(),
		NeverReformed:        res.NeverReformed,
		AmbiguousStablePct:   res.Stable.PercentAtLeast(1),
		AmbiguousStableMax:   res.Stable.Max(),
		AmbiguousInFlightPct: res.InProgress.PercentAtLeast(1),
		AmbiguousInFlightMax: res.InProgress.Max(),
		MaxMessageBytes:      res.Sizes.MaxMessageBytes,
		MaxRoundBytes:        res.Sizes.MaxRoundBytes,
	}
}

// AddCase appends one case to the report.
func (r *RunReport) AddCase(res CaseResult, changes int) {
	r.Cases = append(r.Cases, NewCaseReport(res, changes))
}

// AddSeries appends every point of a sweep's series.
func (r *RunReport) AddSeries(series []Series, changes int) {
	for _, s := range series {
		for _, p := range s.Points {
			r.AddCase(p, changes)
		}
	}
}
