package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dynvote/internal/metrics"
)

// Config drives one closed-loop load run.
type Config struct {
	// Addrs are the server addresses; workers are spread round-robin
	// across them, so every replica sees client traffic.
	Addrs []string
	// Conns is the number of concurrent client connections (default 4).
	// Each connection is closed-loop: at most Pipeline outstanding
	// requests.
	Conns int
	// Pipeline is the per-connection request window (default 1 = one
	// request in flight, the classic closed loop). With Pipeline N a
	// connection issues up to N requests back-to-back, flushes them in
	// one syscall, and collects the N responses in order — sequence
	// numbers verify none were lost or duplicated.
	Pipeline int
	// Rate is the target aggregate request rate in req/s across all
	// connections. 0 means unpaced — every connection issues
	// back-to-back requests.
	Rate float64
	// Duration is the run length (default 5s).
	Duration time.Duration
	// Keys is the key-space size (default 64).
	Keys int
	// WriteFraction is the fraction of requests that are writes
	// (default 0.5).
	WriteFraction float64
	// Seed makes the op mix reproducible.
	Seed int64
	// Registry receives the run's counters and the request-latency
	// histogram. Nil creates a private registry.
	Registry *metrics.Registry
}

// LatencySummary is request latency in milliseconds.
type LatencySummary struct {
	MinMs  float64 `json:"min_ms"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Result is what one Run measured.
type Result struct {
	Duration      time.Duration  `json:"-"`
	DurationSec   float64        `json:"duration_sec"`
	Requests      int64          `json:"requests"`
	OK            int64          `json:"ok"`
	NotFound      int64          `json:"not_found"`
	NotPrimary    int64          `json:"not_primary"`
	Errors        int64          `json:"errors"`
	Redials       int64          `json:"redials"`
	ThroughputRPS float64        `json:"throughput_rps"`
	Latency       LatencySummary `json:"latency_ms"`
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Conns <= 0 {
		out.Conns = 4
	}
	if out.Pipeline <= 0 {
		out.Pipeline = 1
	}
	if out.Duration <= 0 {
		out.Duration = 5 * time.Second
	}
	if out.Keys <= 0 {
		out.Keys = 64
	}
	if out.WriteFraction < 0 {
		out.WriteFraction = 0
	}
	if out.WriteFraction == 0 {
		out.WriteFraction = 0.5
	}
	if out.WriteFraction > 1 {
		out.WriteFraction = 1
	}
	if out.Registry == nil {
		out.Registry = metrics.NewRegistry()
	}
	return out
}

// runCounters groups the registry instruments one run writes into.
type runCounters struct {
	requests   *metrics.Counter
	ok         *metrics.Counter
	notFound   *metrics.Counter
	notPrimary *metrics.Counter
	errs       *metrics.Counter
	redials    *metrics.Counter
	latency    *metrics.Histogram
}

func newRunCounters(reg *metrics.Registry) runCounters {
	return runCounters{
		requests:   reg.Counter("loadgen_requests_total", "client requests issued"),
		ok:         reg.Counter("loadgen_ok_total", "requests answered OK"),
		notFound:   reg.Counter("loadgen_not_found_total", "reads of absent keys"),
		notPrimary: reg.Counter("loadgen_not_primary_total", "writes refused outside the primary"),
		errs:       reg.Counter("loadgen_errors_total", "transport/protocol request failures"),
		redials:    reg.Counter("loadgen_redials_total", "client reconnects after request failure"),
		latency:    reg.Histogram("loadgen_request_seconds", "client request round-trip latency", metrics.WireBuckets),
	}
}

// extrema is the worker-local min/max that the shared histogram's
// buckets cannot recover exactly.
type extrema struct {
	min, max time.Duration
	any      bool
}

func (e *extrema) observe(d time.Duration) {
	if !e.any || d < e.min {
		e.min = d
	}
	if d > e.max {
		e.max = d
	}
	e.any = true
}

func (e *extrema) merge(o extrema) {
	if !o.any {
		return
	}
	if !e.any || o.min < e.min {
		e.min = o.min
	}
	if o.max > e.max {
		e.max = o.max
	}
	e.any = true
}

// Run drives the cluster for cfg.Duration and reports what it
// measured. It returns an error only when the run could not start at
// all (no addresses, no connection ever established); request-level
// failures are data, not errors — a run across a partition is the
// whole point of the harness.
func Run(cfg Config) (Result, error) {
	if len(cfg.Addrs) == 0 {
		return Result{}, errors.New("loadgen: no server addresses")
	}
	c := cfg.withDefaults()
	rc := newRunCounters(c.Registry)

	// Per-connection pacing interval: the aggregate rate divided across
	// connections. Zero means unpaced.
	var interval time.Duration
	if c.Rate > 0 {
		interval = time.Duration(float64(c.Conns) / c.Rate * float64(time.Second))
	}

	start := time.Now()
	deadline := start.Add(c.Duration)
	ext := make([]extrema, c.Conns)
	var wg sync.WaitGroup
	for i := 0; i < c.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			worker(&c, rc, c.Addrs[i%len(c.Addrs)], i, interval, deadline, &ext[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all extrema
	for i := range ext {
		all.merge(ext[i])
	}
	res := Result{
		Duration:    elapsed,
		DurationSec: elapsed.Seconds(),
		Requests:    rc.requests.Value(),
		OK:          rc.ok.Value(),
		NotFound:    rc.notFound.Value(),
		NotPrimary:  rc.notPrimary.Value(),
		Errors:      rc.errs.Value(),
		Redials:     rc.redials.Value(),
	}
	res.ThroughputRPS = float64(res.Requests) / elapsed.Seconds()
	q := rc.latency.Summary()
	res.Latency = LatencySummary{
		P50Ms: q.P50 * 1e3,
		P95Ms: q.P95 * 1e3,
		P99Ms: q.P99 * 1e3,
	}
	if n := rc.latency.Count(); n > 0 {
		res.Latency.MeanMs = rc.latency.Sum() / float64(n) * 1e3
	}
	if all.any {
		res.Latency.MinMs = float64(all.min) / float64(time.Millisecond)
		res.Latency.MaxMs = float64(all.max) / float64(time.Millisecond)
	}
	if res.Requests == 0 {
		return res, errors.New("loadgen: no requests completed or failed — could not reach any server")
	}
	return res, nil
}

// worker is one closed-loop connection driving a window of up to
// c.Pipeline requests: fill the window (pacing each issue when a rate
// is set), flush the batch in one syscall, collect every response,
// repeat. A failed batch costs the connection and every request still
// in flight on it — redial and keep going, like a real client would.
// Every issued request is counted exactly once: as ok/notFound/
// notPrimary when its response arrives, as an error when its
// connection dies first.
func worker(c *Config, rc runCounters, addr string, idx int, interval time.Duration, deadline time.Time, ext *extrema) {
	rng := rand.New(rand.NewSource(c.Seed + int64(idx)*1664525 + 1013904223))
	var cl *Client
	defer func() {
		if cl != nil {
			_ = cl.Close()
		}
	}()
	// fail charges every in-flight request on the dead connection as
	// an error and redials.
	fail := func() {
		rc.errs.Add(int64(cl.InFlight()))
		_ = cl.Close()
		cl = dialUntil(addr, deadline)
		if cl != nil {
			rc.redials.Inc()
		}
	}
	next := time.Now()
	for time.Now().Before(deadline) {
		if cl == nil {
			cl = dialUntil(addr, deadline)
			if cl == nil {
				return // server unreachable for the rest of the run
			}
		}
		// Fill the window.
		issueErr := false
		for cl.InFlight() < c.Pipeline && time.Now().Before(deadline) {
			if interval > 0 {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				if now := time.Now(); next.Before(now) {
					next = now // behind schedule: no debt, resume the pace from here
				}
			}
			key := fmt.Sprintf("k%04d", rng.Intn(c.Keys))
			var err error
			if rng.Float64() < c.WriteFraction {
				err = cl.StartSet(key, fmt.Sprintf("v%d.%d", idx, rng.Int63()))
			} else {
				err = cl.StartGet(key)
			}
			rc.requests.Inc()
			if err != nil {
				rc.errs.Inc() // the request that failed to issue
				issueErr = true
				break
			}
		}
		if issueErr {
			fail()
			continue
		}
		if cl.InFlight() == 0 {
			continue // deadline hit before anything was issued
		}
		if err := cl.Flush(); err != nil {
			fail()
			continue
		}
		// Drain the window.
		for cl.InFlight() > 0 {
			comp, err := cl.Next()
			if err != nil {
				fail()
				break
			}
			el := time.Since(comp.Start)
			rc.latency.Observe(el.Seconds())
			ext.observe(el)
			switch comp.Status {
			case statusOK:
				rc.ok.Inc()
			case statusNotFound:
				rc.notFound.Inc()
			case statusNotPrimary:
				rc.notPrimary.Inc()
			default:
				rc.errs.Inc()
			}
		}
	}
}

// dialUntil connects with a small backoff until the deadline.
func dialUntil(addr string, deadline time.Time) *Client {
	for time.Now().Before(deadline) {
		cl, err := DialClient(addr)
		if err == nil {
			return cl
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
