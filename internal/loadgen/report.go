package loadgen

import "dynvote/internal/metrics"

// FailoverReport is the measured failover under one injected
// partition: wall-clock offsets of the injection and heal, and the
// timeline-derived loss/recovery intervals.
type FailoverReport struct {
	// InjectedAtSec is when the partition was injected, as an offset
	// from run start.
	InjectedAtSec float64 `json:"injected_at_sec"`
	// HealedAtSec is when the partition was healed (0 if never).
	HealedAtSec float64 `json:"healed_at_sec,omitempty"`
	// PrimaryLostMs is injection → first primary-loss event.
	PrimaryLostMs float64 `json:"primary_lost_ms"`
	// RecoveryMs is injection → first primary-regain after the loss:
	// the live analogue of the thesis's availability gap.
	RecoveryMs float64 `json:"recovery_ms"`
	// RejoinMs is heal → the first cut-off replica's primary regain.
	// RecoveryMs is set by the majority side re-forming around the
	// fault; this is how long the minority side stayed unavailable
	// once the network was whole again (0 if it never rejoined).
	RejoinMs float64 `json:"rejoin_ms"`
	// ViewsProposed and ViewsInstalled count reconfiguration traffic
	// over the whole run.
	ViewsProposed  int `json:"views_proposed"`
	ViewsInstalled int `json:"views_installed"`
	// Timeline is the rendered event timeline (one line per event).
	Timeline []string `json:"timeline,omitempty"`
}

// PeerWireReport is one node's wire-level view of one peer, flattened
// from gcs.PeerStats for JSON.
type PeerWireReport struct {
	Node       int     `json:"node"`
	Peer       int     `json:"peer"`
	MsgsOut    int64   `json:"msgs_out"`
	BytesOut   int64   `json:"bytes_out"`
	MsgsIn     int64   `json:"msgs_in"`
	BytesIn    int64   `json:"bytes_in"`
	Dropped    int64   `json:"dropped,omitempty"`
	SendMeanMs float64 `json:"send_mean_ms"`
	SendMaxMs  float64 `json:"send_max_ms"`
}

// Report is the machine-readable result of one cmd/loadgen run, what
// -json emits. Its header's tool is always "loadgen".
type Report struct {
	metrics.ReportHeader
	Alg      string           `json:"alg"`
	Nodes    int              `json:"nodes"`
	Conns    int              `json:"conns"`
	Pipeline int              `json:"pipeline,omitempty"` // per-conn request window; 0/1 = closed loop
	RateRPS  float64          `json:"rate_rps,omitempty"` // target; 0 = unpaced
	Result   Result           `json:"result"`
	Failover *FailoverReport  `json:"failover,omitempty"`
	Peers    []PeerWireReport `json:"peers,omitempty"`
}
