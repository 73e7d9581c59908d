// Package metrics is a dependency-free, concurrency-safe registry of
// atomic counters, gauges and fixed-bucket histograms — the
// observability substrate for the simulator, the experiment harness and
// the live group-communication nodes. It exposes its contents four
// ways: a structured Snapshot (JSON-serializable, with Delta for
// interval rates), an aligned text table for terminal output, the
// Prometheus text exposition format for scrape endpoints, and an
// http.Handler wrapping the latter. Every tool's JSON report embeds
// ReportHeader, which carries such a Snapshot, and leaves through
// WriteReport.
//
// Every metric type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram or *Registry are no-ops that allocate nothing, so
// instrumented hot paths (the simulator executes hundreds of millions
// of delivery steps per campaign) pay only a nil check when metrics
// are disabled. Enable by constructing a Registry and resolving the
// instruments once, outside the hot loop.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is
// usable; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is usable;
// a nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram tallies observations into fixed buckets chosen at
// registration. Buckets are upper bounds (inclusive, ascending); an
// implicit +Inf bucket catches the overflow. A nil Histogram is a
// no-op.
type Histogram struct {
	bounds  []float64      // ascending upper bounds, no +Inf
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot captures the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	return s
}

// DefBuckets is a general-purpose latency scale (seconds).
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100}

// WireBuckets is a sub-millisecond-to-seconds latency scale (seconds)
// for localhost wire traffic and request/response latencies, where
// DefBuckets' 1ms floor would flatten every observation into the first
// bucket and quantile estimates with it.
var WireBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// RoundBuckets suits round-count observations such as re-formation
// latency (the simulator's unit of time is the message round).
var RoundBuckets = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128}

// Registry holds named metrics. The zero value is NOT usable; use
// NewRegistry. A nil *Registry hands out nil instruments, so a single
// code path serves both instrumented and uninstrumented runs.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.ensureFree(name)
	c := &Counter{}
	r.counters[name] = c
	r.help[name] = help
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns
// nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.ensureFree(name)
	g := &Gauge{}
	r.gauges[name] = g
	r.help[name] = help
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later registrations reuse the
// first buckets). Bounds must be ascending; an implicit +Inf bucket is
// added. Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.ensureFree(name)
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	if !sort.Float64sAreSorted(b) {
		panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
	}
	h := &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	r.histograms[name] = h
	r.help[name] = help
	return h
}

// ensureFree panics if name is already registered as another type —
// a programming error, caught at startup rather than masked.
func (r *Registry) ensureFree(name string) {
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.histograms[name]
	if c || g || h {
		panic(fmt.Sprintf("metrics: %q already registered as a different type", name))
	}
}

// HistogramSnapshot is a histogram's state at a point in time.
// Buckets[i] counts observations ≤ Bounds[i] (exclusive of earlier
// buckets); the final element of Buckets is the +Inf overflow.
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Mean returns the average observation, 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) from the bucket
// counts, interpolating linearly inside the bucket that holds the
// target rank — the same estimator Prometheus's histogram_quantile
// applies server-side. Observations landing in the +Inf overflow
// bucket are reported as the highest finite bound (a quantile cannot
// exceed what the buckets can resolve). Returns 0 on an empty
// histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Buckets {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			// Overflow bucket: clamp to the highest finite bound.
			if len(h.Bounds) == 0 {
				return 0
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.Bounds[i-1]
		}
		upper := h.Bounds[i]
		return lower + (upper-lower)*(rank-float64(prev))/float64(c)
	}
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// QuantileSummary is the standard latency triple extracted from a
// histogram.
type QuantileSummary struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Summary returns the p50/p95/p99 quantile estimates.
func (h HistogramSnapshot) Summary() QuantileSummary {
	return QuantileSummary{
		P50: h.Quantile(0.50),
		P95: h.Quantile(0.95),
		P99: h.Quantile(0.99),
	}
}

// Quantile estimates the q-th quantile of the live histogram; see
// HistogramSnapshot.Quantile. A nil histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.snapshot().Quantile(q)
}

// Summary returns the live histogram's p50/p95/p99 estimates. A nil
// histogram reports zeros.
func (h *Histogram) Summary() QuantileSummary {
	if h == nil {
		return QuantileSummary{}
	}
	return h.snapshot().Summary()
}

// Snapshot is a registry's full state at a point in time. It
// round-trips through encoding/json (bucket +Inf is implicit, so no
// non-finite values appear).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value. On a nil registry it
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Delta returns the change from prev to s: counters and histogram
// buckets are subtracted (new metrics appear whole), gauges keep their
// current value. Use for interval rates — e.g. changes/sec between two
// progress ticks.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok || len(p.Buckets) != len(h.Buckets) {
			d.Histograms[name] = h
			continue
		}
		dh := HistogramSnapshot{
			Bounds:  append([]float64(nil), h.Bounds...),
			Buckets: make([]int64, len(h.Buckets)),
			Count:   h.Count - p.Count,
			Sum:     h.Sum - p.Sum,
		}
		for i := range h.Buckets {
			dh.Buckets[i] = h.Buckets[i] - p.Buckets[i]
		}
		d.Histograms[name] = dh
	}
	return d
}

// Table renders the snapshot as an aligned, name-sorted text table.
func (s Snapshot) Table() string {
	type row struct{ name, value string }
	rows := make([]row, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		rows = append(rows, row{name, fmt.Sprintf("%d", v)})
	}
	for name, v := range s.Gauges {
		rows = append(rows, row{name, fmt.Sprintf("%d", v)})
	}
	for name, h := range s.Histograms {
		q := h.Summary()
		rows = append(rows, row{name, fmt.Sprintf("count=%d sum=%.6g mean=%.6g p50=%.6g p95=%.6g p99=%.6g",
			h.Count, h.Sum, h.Mean(), q.P50, q.P95, q.P99)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	width := 0
	for _, r := range rows {
		if len(r.name) > width {
			width = len(r.name)
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %s\n", width, r.name, r.value)
	}
	return b.String()
}
