package main

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dynvote/internal/gcs"
	"dynvote/internal/metrics"
	"dynvote/internal/register"
)

// lagTracker measures replication lag for the writes of client 0: from
// the acknowledgement the client receives to the moment another
// replica applies the write. One write in sampleEvery is followed.
type lagTracker struct {
	prefix string // client 0's key prefix
	mu     sync.Mutex
	acked  map[[2]int64]time.Time // (key, counter) → client saw the ack
	applie map[[2]int64]time.Time // (key, counter) → other replica applied
}

func newLagTracker(cl *client) *lagTracker {
	return &lagTracker{
		prefix: cl.keys[0][:strings.LastIndex(cl.keys[0], "k")+1],
		acked:  map[[2]int64]time.Time{},
		applie: map[[2]int64]time.Time{},
	}
}

func (t *lagTracker) onAck(key int, counter int64, at time.Time) {
	if counter%sampleEvery != 0 {
		return
	}
	t.mu.Lock()
	t.acked[[2]int64{int64(key), counter}] = at
	t.mu.Unlock()
}

// onApply is register.Store.OnApply on a replica other than the
// writer's; it runs on that replica's node loop.
func (t *lagTracker) onApply(key string, e register.Entry) {
	if !strings.HasPrefix(key, t.prefix) {
		return
	}
	counter, err := strconv.ParseInt(e.Value, 10, 64)
	if err != nil || counter%sampleEvery != 0 {
		return
	}
	k, err := strconv.Atoi(key[len(t.prefix):])
	if err != nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.applie[[2]int64{int64(k), counter}] = now
	t.mu.Unlock()
}

// lagsUs returns apply time minus ack time for every followed write
// both sides saw. Negative when the other replica applied the write
// before the client had read its acknowledgement.
func (t *lagTracker) lagsUs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for id, ack := range t.acked {
		if apply, ok := t.applie[id]; ok {
			out = append(out, float64(apply.Sub(ack))/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// tracedLaps is the traced pass of a live workload. It replaces the
// rig's cluster with an instrumented twin (gcs.InstrumentTransport,
// one shared registry, an OnApply hook), follows one request in
// sampleEvery with spans, and runs the workload's own lap for the
// traced window. It returns the per-layer metrics and the laps.
func (g *rig) tracedLaps(timed *pass, seconds float64, window int, writeShare float64, lap func() (lapStats, error)) (map[string]float64, *pass, error) {
	g.close()
	if err := g.open(true); err != nil {
		return nil, nil, err
	}
	m := map[string]float64{}
	lag := newLagTracker(g.clients[0])
	for _, cl := range g.clients {
		cl.trace = &reqTrace{spans: g.e.spans, lap: -1}
	}
	g.clients[0].onAck = lag.onAck
	// Client 0 writes through replica 0; replica 1 is never the
	// writer's own and never cut off.
	g.c.stores[1].OnApply = lag.onApply
	if err := g.warm(window, writeShare); err != nil {
		return nil, nil, err
	}
	g.idleProbes(m)

	before := g.c.reg.Snapshot()
	payloads := g.c.appPayloads.Load()
	mem := readMem()
	start := time.Now()
	p := &pass{}
	for len(p.laps) < 2 || time.Since(start).Seconds() < seconds {
		id := g.e.spans.open("lap", -1)
		for _, cl := range g.clients {
			cl.trace.lap = id
		}
		l, err := lap()
		g.e.spans.close(id)
		if err != nil {
			return nil, nil, err
		}
		p.laps = append(p.laps, l)
		// Set acknowledges at enqueue: a write its client was told had
		// succeeded can still be missing on a replica once the traffic
		// has drained. Nothing repairs that before the next view change,
		// so a short drain is as good as a long one; whether the last
		// write of a key is among the dropped is chance, hence the most
		// seen after any lap.
		time.Sleep(200 * time.Millisecond)
		m["register.lost_write_keys"] = max(m["register.lost_write_keys"], float64(g.lostWriteKeys()))
	}
	delta := g.c.reg.Snapshot().Delta(before)
	var ops float64
	for _, l := range p.laps {
		ops += float64(l.attempted)
	}
	memSince(mem).into(m, ops)

	var rt reqTrace
	for _, cl := range g.clients {
		rt.encode += cl.trace.encode
		rt.encodes += cl.trace.encodes
		rt.flush += cl.trace.flush
		rt.flushes += cl.trace.flushes
		rt.wait += cl.trace.wait
		rt.waiting += cl.trace.waiting
	}
	if rt.encodes > 0 {
		m["loadgen.encode_ns"] = float64(rt.encode) / float64(rt.encodes)
	}
	if rt.flushes > 0 {
		m["loadgen.flush_ns"] = float64(rt.flush) / float64(rt.flushes)
	}
	if rt.waiting > 0 {
		m["loadgen.wait_ns"] = float64(rt.wait) / float64(rt.waiting)
	}
	lags := lag.lagsUs()
	m["register.apply_lag_p50_us"] = percentile(lags, 0.50)
	m["register.apply_lag_p99_us"] = percentile(lags, 0.99)

	// Heartbeats are frames too: per-op figures on a slow workload
	// include the idle traffic of the time an op took.
	c := delta.Counters
	m["gcs.tcp_frames_per_op"] = float64(c["gcs_tcp_frames_out_total"]) / ops
	m["gcs.tcp_bytes_per_op"] = float64(c["gcs_tcp_bytes_out_total"]) / ops
	m["gcs.app_payloads_per_op"] = float64(g.c.appPayloads.Load()-payloads) / ops
	m["gcs.tcp_sendq_drops"] = float64(c["gcs_tcp_sendq_drops_total"])
	m["gcs.tcp_inbox_drops"] = float64(c["gcs_tcp_inbox_drops_total"])
	m["gcs.tcp_unreachable_drops"] = float64(c["gcs_tcp_unreachable_drops_total"])
	m["gcs.tcp_dials"] = float64(c["gcs_tcp_dials_total"])
	for _, e := range g.c.tl.Events() {
		if e.Kind == gcs.EventView && e.At.After(start) {
			m["gcs.views_installed"]++
		}
	}
	var send gcs.LatencyStats
	for _, w := range g.c.wrapped {
		for _, ps := range w.Peers() {
			send.Count += ps.Send.Count
			send.Total += ps.Send.Total
		}
	}
	m["gcs.tcp_send_ns"] = float64(send.Mean())
	var gaps metrics.HistogramSnapshot
	for name, h := range delta.Histograms {
		if strings.HasSuffix(name, "_recv_gap_seconds") {
			gaps = mergeHistograms(gaps, h)
		}
	}
	m["gcs.recv_gap_p99_us"] = gaps.Quantile(0.99) * 1e6
	m["bench.trace_overhead_share"] = median(timed.rates())/median(p.rates()) - 1
	return m, p, nil
}

func mergeHistograms(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	if a.Bounds == nil {
		return metrics.HistogramSnapshot{
			Bounds:  b.Bounds,
			Buckets: append([]int64(nil), b.Buckets...),
			Count:   b.Count,
			Sum:     b.Sum,
		}
	}
	for i := range a.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// lostWriteKeys counts keys whose value on some replica is older than
// the last write acknowledged to the key's writer.
func (g *rig) lostWriteKeys() (lost int) {
	snaps := make([]map[string]register.Entry, len(g.c.stores))
	for i, st := range g.c.stores {
		snaps[i] = st.Snapshot()
	}
	for _, cl := range g.clients {
		for k, acked := range cl.acked {
			if acked == 0 {
				continue
			}
			for _, snap := range snaps {
				have, _ := strconv.ParseInt(snap[cl.keys[k]].Value, 10, 64)
				if have < acked {
					lost++
					break
				}
			}
		}
	}
	return lost
}

// idleProbes times direct calls into the layers below the server on a
// cluster that carries no other load, spaced so that each call finds
// the node loop idle.
func (g *rig) idleProbes(m map[string]float64) {
	st := g.c.stores[0]
	m["register.get_ns"] = perCall(100000, func(int) {
		if _, ok, _ := st.Get("warm"); ok {
			sink++
		}
	})
	const n = 2000
	spaced := func(call func(i int) error) float64 {
		var total time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := call(i)
			total += time.Since(t0)
			if err != nil {
				return 0 // a stopped node; the laps will report it
			}
			time.Sleep(50 * time.Microsecond)
		}
		return float64(total) / n
	}
	m["register.set_ns"] = spaced(func(i int) error { return st.Set("probe", strconv.Itoa(i)) })
	// A payload register ignores (unknown operation), so this is the
	// broadcast path alone: copy, queue, node loop, transport.
	m["gcs.broadcast_ns"] = spaced(func(int) error { return st.Node().Broadcast([]byte{0}) })
}

func (w *closedLoop) layers(timed *pass) (map[string]float64, error) {
	m, _, err := w.tracedLaps(timed, w.e.tracedSeconds, w.window, w.writeShare, w.lap)
	return m, err
}

func (w *failover) layers(timed *pass) (map[string]float64, error) {
	w.cycles = nil
	m, traced, err := w.tracedLaps(timed, w.e.tracedSeconds, 1, 1, w.lap)
	if err != nil {
		return nil, err
	}
	// The breakdown below is of the traced cycles, so the rejoin time it
	// adds up to must be theirs too: rejoin has two modes, about one
	// and two heartbeats, chosen by how a cluster's heartbeat tickers
	// happen to be phased against the cycle, and the traced cluster is
	// not the timed one.
	for _, x := range []string{"loadgen.rejoin_p50_ms", "loadgen.write_availability_pct", "gcs.stuck_cycles"} {
		m[x] = traced.extra(x)
	}
	parts := map[string][]float64{}
	events := w.c.tl.Events()
	for _, ct := range w.cycles {
		breakdown(events, ct, parts)
	}
	for name, vs := range parts {
		m[name] = median(vs)
	}
	return m, nil
}
