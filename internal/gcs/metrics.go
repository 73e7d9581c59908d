package gcs

import (
	"dynvote/internal/metrics"
)

// nodeMetrics bundles a Node's instrumentation, resolved once at
// construction. All instruments are shared across the nodes of one
// registry — a scrape sees cluster-wide totals. A nil registry yields
// nil instruments (no-ops), so the event loop is branch-cheap when
// uninstrumented.
type nodeMetrics struct {
	broadcasts  *metrics.Counter // frames broadcast (views + bundles), per recipient
	bundlesIn   *metrics.Counter // current-view bundles delivered to the algorithm
	views       *metrics.Counter // views installed
	reconfigs   *metrics.Counter // failure-detector reachability reports processed
	earlyHeld   *metrics.Counter // bundles buffered ahead of their view
	snapSaves   *metrics.Counter // durable snapshots taken
	snapLoads   *metrics.Counter // durable snapshots restored
	appPayloads *metrics.Counter // application payloads delivered
}

func newNodeMetrics(reg *metrics.Registry) nodeMetrics {
	return nodeMetrics{
		broadcasts:  reg.Counter("gcs_broadcasts_sent_total", "frames broadcast to peers (one per recipient)"),
		bundlesIn:   reg.Counter("gcs_bundles_delivered_total", "current-view bundles delivered to the algorithm"),
		views:       reg.Counter("gcs_views_installed_total", "views installed by nodes"),
		reconfigs:   reg.Counter("gcs_reconfigurations_total", "failure-detector reachability reports processed"),
		earlyHeld:   reg.Counter("gcs_early_bundles_held_total", "bundles buffered ahead of their view's announcement"),
		snapSaves:   reg.Counter("gcs_snapshot_saves_total", "durable state snapshots taken"),
		snapLoads:   reg.Counter("gcs_snapshot_restores_total", "durable state snapshots restored"),
		appPayloads: reg.Counter("gcs_app_payloads_delivered_total", "application payloads delivered to handlers"),
	}
}

// tcpMetrics instruments a TCPTransport's wire traffic. The three
// drop counters make saturation visible instead of silent: inboxDrops
// is receive-side overflow of the frames channel, sendqDrops is
// overflow of a peer's bounded send queue, deadDrops is frames
// discarded because their peer was unreachable (dialing or backing
// off) — among them the probes the failure detector keeps sending a
// suspected peer, so against a crashed peer it grows at up to the probe
// rate without anything being wrong on this side.
type tcpMetrics struct {
	bytesIn    *metrics.Counter
	bytesOut   *metrics.Counter
	framesIn   *metrics.Counter
	framesOut  *metrics.Counter
	redials    *metrics.Counter
	inboxDrops *metrics.Counter
	sendqDrops *metrics.Counter
	deadDrops  *metrics.Counter
}

func newTCPMetrics(reg *metrics.Registry) tcpMetrics {
	return tcpMetrics{
		bytesIn:    reg.Counter("gcs_tcp_bytes_in_total", "bytes read from peers (headers included)"),
		bytesOut:   reg.Counter("gcs_tcp_bytes_out_total", "bytes written to peers (headers included)"),
		framesIn:   reg.Counter("gcs_tcp_frames_in_total", "frames read from peers (heartbeats included)"),
		framesOut:  reg.Counter("gcs_tcp_frames_out_total", "frames written to peers (heartbeats and probes included)"),
		redials:    reg.Counter("gcs_tcp_dials_total", "outgoing connections established"),
		inboxDrops: reg.Counter("gcs_tcp_inbox_drops_total", "inbound frames dropped on frames-channel overflow"),
		sendqDrops: reg.Counter("gcs_tcp_sendq_drops_total", "outbound frames dropped on send-queue overflow"),
		deadDrops:  reg.Counter("gcs_tcp_unreachable_drops_total", "outbound frames dropped because the peer was unreachable (a failed dial or its redial back-off; heartbeats and failure-detector probes included)"),
	}
}
