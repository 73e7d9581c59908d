package main

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/gcs"
	"dynvote/internal/loadgen"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/register"
	"dynvote/internal/rng"
)

// Response statuses of the loadgen protocol. The package does not
// export them; the warm-up asserts the two a healthy cluster produces
// (a write answers stOK, a read of an unwritten key stNotFound), which
// holds these copies to the protocol.
const (
	stOK byte = iota
	stNotFound
	stNotPrimary
)

const (
	liveNodes = 3
	// TCPConfig's defaults, restated because the readiness gate and
	// the failover breakdown are phrased in them.
	heartbeatEvery = 50 * time.Millisecond
	failAfter      = 3 * heartbeatEvery
	liveKeys       = 64
	warmUp         = 500 * time.Millisecond
	sampleEvery    = 16 // traced pass: spans for one request in 16
)

// cluster is three register replicas over real loopback TCP, each
// behind a loadgen server. The traced variant wraps the transports
// with gcs.InstrumentTransport and shares one registry.
type cluster struct {
	opened  time.Time
	tcp     []*gcs.TCPTransport
	wrapped []*gcs.InstrumentedTransport
	stores  []*register.Store
	servers []*loadgen.Server
	tl      *gcs.Timeline
	reg     *metrics.Registry
	// appPayloads counts gcs application payloads delivered, traced
	// clusters only.
	appPayloads atomic.Int64
}

func openCluster(traced bool) (*cluster, error) {
	factory, err := algset.ByName("ykd")
	if err != nil {
		return nil, err
	}
	c := &cluster{opened: time.Now(), tl: gcs.NewTimeline()}
	if traced {
		c.reg = metrics.NewRegistry()
	}
	addrs := make(map[proc.ID]string, liveNodes)
	for i := 0; i < liveNodes; i++ {
		tr, err := gcs.NewTCPTransport(gcs.TCPConfig{ID: proc.ID(i), OwnAddr: "127.0.0.1:0", Metrics: c.reg})
		if err != nil {
			c.close()
			return nil, err
		}
		c.tcp = append(c.tcp, tr)
		addrs[proc.ID(i)] = tr.Addr()
	}
	for _, tr := range c.tcp {
		tr.SetPeers(addrs)
	}
	for i := 0; i < liveNodes; i++ {
		id := proc.ID(i)
		var transport gcs.Transport = c.tcp[i]
		onEvent := c.tl.Hook(id)
		if traced {
			w := gcs.InstrumentTransport(c.tcp[i], id, c.reg, gcs.FaultProfile{})
			c.wrapped = append(c.wrapped, w)
			transport = w
			record := onEvent
			onEvent = func(ev gcs.Event) {
				if ev.Kind == gcs.EventApp {
					c.appPayloads.Add(1)
				}
				record(ev)
			}
		}
		st, err := register.Open(register.Config{ID: id, N: liveNodes, Transport: transport, Algorithm: factory, OnEvent: onEvent})
		if err != nil {
			c.close()
			return nil, err
		}
		c.stores = append(c.stores, st)
		srv, err := loadgen.NewServer(st, "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.servers {
		_ = s.Close() // listener teardown; nothing to report
	}
	for _, st := range c.stores {
		st.Close()
	}
	// A stopped node closes the transport it was given; transports that
	// never got a node remain after a partial start.
	for i := len(c.stores); i < len(c.wrapped); i++ {
		_ = c.wrapped[i].Close()
	}
	for i := max(len(c.stores), len(c.wrapped)); i < len(c.tcp); i++ {
		_ = c.tcp[i].Close()
	}
}

func (c *cluster) settled() bool {
	for _, st := range c.stores {
		if !st.InPrimary() || st.Node().CurrentView().Members.Count() != liveNodes {
			return false
		}
	}
	return true
}

// awaitSettled waits until every replica is primary in the full view
// and the membership has been quiet for the given time. A freshly
// opened cluster reports "primary, full view" before any socket is
// connected and then flaps through singleton views, so before lap 1
// the gate asks for two failure-detector periods of quiet; between
// failover cycles it asks for none.
func (c *cluster) awaitSettled(quiet, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		last := c.opened
		if evs := c.tl.Events(); len(evs) > 0 {
			last = evs[len(evs)-1].At
		}
		if c.settled() && time.Since(last) >= quiet {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster did not settle into a quiet full primary view within %v:\n%s", timeout, c.tl)
}

// partition cuts replica 2 off from replicas 0 and 1; heal reconnects.
func (c *cluster) partition() {
	c.tcp[2].Block(0, 1)
	c.tcp[0].Block(2)
	c.tcp[1].Block(2)
}

func (c *cluster) heal() {
	for _, tr := range c.tcp {
		tr.Block()
	}
}

// reqTrace is the traced pass's view of one client: durations of the
// three calls a request makes into loadgen.Client.
type reqTrace struct {
	spans                     *spanLog
	lap                       int
	encode, flush, wait       time.Duration
	encodes, flushes, waiting int64
}

// client is one connection and the single writer of its own keys:
// values are a per-key counter, so any value a read returns can be
// checked against what was issued.
type client struct {
	id      int
	cl      *loadgen.Client
	r       *rng.Source
	keys    []string
	issued  []int64 // last counter written per key
	acked   []int64 // last counter acknowledged per key
	pending []inFlight
	head    int // pending[head:] are in flight, oldest first
	trace   *reqTrace
	// onAck, when set, sees every acknowledged write (traced pass).
	onAck func(key int, counter int64, at time.Time)

	readUs, writeUs               []float64
	failed, notPrimary, completed int64
}

// inFlight is one outstanding request: its key and, for a write, the
// counter it carries.
type inFlight struct {
	key     int
	counter int64
}

func (c *client) inFlight() int { return len(c.pending) - c.head }

func dial(id int, addr string, seed int64) (*client, error) {
	cl, err := loadgen.DialClient(addr)
	if err != nil {
		return nil, err
	}
	c := &client{id: id, cl: cl, r: rng.New(seed).Child(int64(id)), issued: make([]int64, liveKeys), acked: make([]int64, liveKeys)}
	for k := 0; k < liveKeys; k++ {
		c.keys = append(c.keys, fmt.Sprintf("c%d-k%02d", id, k))
	}
	return c, nil
}

func (c *client) resetLap() {
	c.readUs, c.writeUs = c.readUs[:0], c.writeUs[:0]
	c.failed, c.notPrimary, c.completed = 0, 0, 0
}

// issue queues one request of the seeded mix.
func (c *client) issue(writeShare float64) error {
	k := c.r.Intn(liveKeys)
	write := writeShare >= 1 || c.r.Float64() < writeShare
	sampled := c.trace != nil && (c.completed+int64(c.inFlight()))%sampleEvery == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	var err error
	req := inFlight{key: k}
	if write {
		c.issued[k]++
		req.counter = c.issued[k]
		err = c.cl.StartSet(c.keys[k], strconv.FormatInt(req.counter, 10))
	} else {
		err = c.cl.StartGet(c.keys[k])
	}
	if sampled {
		t1 := time.Now()
		c.trace.encode += t1.Sub(t0)
		c.trace.encodes++
		c.trace.spans.add("loadgen.encode", c.trace.lap, t0, t1, c.reqID(c.inFlight()))
	}
	c.pending = append(c.pending, req)
	return err
}

// reqID names the request ahead requests behind the oldest one in
// flight: "<connection>/<sequence>".
func (c *client) reqID(ahead int) string {
	return strconv.Itoa(c.id) + "/" + strconv.FormatInt(c.completed+int64(ahead), 10)
}

// flush pushes the queued window to the wire.
func (c *client) flush() error {
	if c.trace == nil {
		return c.cl.Flush()
	}
	t0 := time.Now()
	err := c.cl.Flush()
	t1 := time.Now()
	c.trace.flush += t1.Sub(t0)
	c.trace.flushes++
	c.trace.spans.add("loadgen.flush", c.trace.lap, t0, t1, c.reqID(0))
	return err
}

// complete collects the oldest outstanding response, checks it, and
// returns its status and when it arrived. since is the moment latency
// counts from: the request's issue time when zero (closed loop), the
// time it was due otherwise (open loop).
func (c *client) complete(since time.Time) (status byte, at time.Time, err error) {
	sampled := c.trace != nil && c.completed%sampleEvery == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	comp, err := c.cl.Next()
	at = time.Now()
	if err != nil {
		return 0, at, fmt.Errorf("client %d: %w", c.id, err)
	}
	if sampled {
		c.trace.wait += at.Sub(t0)
		c.trace.waiting++
		c.trace.spans.add("loadgen.wait", c.trace.lap, t0, at, c.reqID(0))
	}
	req := c.pending[c.head]
	k := req.key
	if c.head++; c.head == len(c.pending) {
		c.pending, c.head = c.pending[:0], 0
	}
	c.completed++
	if since.IsZero() {
		since = comp.Start
	}
	us := float64(at.Sub(since)) / float64(time.Microsecond)
	switch {
	case comp.Status == stNotPrimary:
		c.notPrimary++
	case comp.Status == stOK && comp.Write:
		c.writeUs = append(c.writeUs, us)
		c.acked[k] = req.counter
		if c.onAck != nil {
			c.onAck(k, req.counter, at)
		}
	case comp.Status == stOK:
		// A read must return a counter its key's writer — this client —
		// had issued by now.
		v, perr := strconv.ParseInt(string(comp.Value), 10, 64)
		if perr != nil || v < 1 || v > c.issued[k] {
			return comp.Status, at, fmt.Errorf("client %d: read of %s returned %q, but the last value issued is %d",
				c.id, c.keys[k], comp.Value, c.issued[k])
		}
		c.readUs = append(c.readUs, us)
	case comp.Status == stNotFound && !comp.Write:
		c.readUs = append(c.readUs, us)
	default:
		c.failed++
	}
	return comp.Status, at, nil
}

// drive runs the closed loop: keep up to window requests in flight
// until count requests completed, or — with count 0 — until the
// deadline.
func (c *client) drive(window int, writeShare float64, count int, deadline time.Time) error {
	issued := 0
	for {
		for c.inFlight() < window && (count == 0 || issued < count) {
			if err := c.issue(writeShare); err != nil {
				return fmt.Errorf("client %d: %w", c.id, err)
			}
			issued++
		}
		if c.inFlight() == 0 {
			return nil
		}
		if err := c.flush(); err != nil {
			return fmt.Errorf("client %d: %w", c.id, err)
		}
		for c.inFlight() > 0 {
			if _, _, err := c.complete(time.Time{}); err != nil {
				return err
			}
		}
		if count == 0 && !time.Now().Before(deadline) {
			return nil
		}
	}
}

// rig is a cluster with its clients: what the three live workloads
// share.
type rig struct {
	e        env
	replicas []int // replica each client connects to
	c        *cluster
	clients  []*client
}

func (g *rig) open(traced bool) (err error) {
	if g.c, err = openCluster(traced); err != nil {
		return err
	}
	if err = g.c.awaitSettled(2*failAfter, 10*time.Second); err != nil {
		return err
	}
	for i, r := range g.replicas {
		cl, err := dial(i, g.c.servers[r].Addr(), g.e.seed)
		if err != nil {
			return err
		}
		g.clients = append(g.clients, cl)
	}
	return nil
}

func (g *rig) close() {
	for _, cl := range g.clients {
		_ = cl.cl.Close() // the server side is closing too
	}
	g.clients = nil
	if g.c != nil {
		g.c.close()
		g.c = nil
	}
}

// together runs f on every client at once and returns the first error.
func (g *rig) together(f func(*client) error) error {
	errs := make([]error, len(g.clients))
	var wg sync.WaitGroup
	for i, cl := range g.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(cl)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warm runs the workload's own load, untimed, and holds the status
// constants above to the protocol on the way. If the membership moved
// while it ran, the cluster was not ready after all: settle and warm
// again, so that lap 1 starts on a quiet cluster.
func (g *rig) warm(window int, writeShare float64) error {
	for try := 0; try < 5; try++ {
		before := g.c.tl.Len()
		if err := g.warmOnce(window, writeShare); err != nil {
			return err
		}
		if g.c.tl.Len() == before {
			return nil
		}
		if err := g.c.awaitSettled(2*failAfter, 10*time.Second); err != nil {
			return err
		}
	}
	return errors.New("membership kept changing through five warm-ups")
}

func (g *rig) warmOnce(window int, writeShare float64) error {
	for _, cl := range g.clients {
		if notPrimary, err := cl.cl.Set("warm", "1"); err != nil || notPrimary {
			return fmt.Errorf("warm-up write refused (not primary: %v, err: %v)", notPrimary, err)
		}
		if err := cl.cl.StartGet("never-written"); err != nil {
			return err
		}
		if comp, err := cl.cl.Next(); err != nil || comp.Status != stNotFound {
			return fmt.Errorf("warm-up read of an unwritten key: status %d, err %v", comp.Status, err)
		}
	}
	deadline := time.Now().Add(warmUp)
	return g.together(func(cl *client) error { return cl.drive(window, writeShare, 0, deadline) })
}

// latencies are the per-class samples of one lap, all clients merged.
func (g *rig) latencies() (readUs, writeUs []float64) {
	for _, cl := range g.clients {
		readUs = append(readUs, cl.readUs...)
		writeUs = append(writeUs, cl.writeUs...)
	}
	sort.Float64s(readUs)
	sort.Float64s(writeUs)
	return readUs, writeUs
}

// classExtras are the per-class percentiles of a lap, computed from
// its raw samples.
func classExtras(extra map[string]float64, class string, sorted []float64) {
	if len(sorted) == 0 {
		return
	}
	extra[class+"_p50_us"] = percentile(sorted, 0.50)
	extra[class+"_p99_us"] = percentile(sorted, 0.99)
	extra[class+"_p999_us"] = percentile(sorted, 0.999)
	extra[class+"_samples"] = float64(len(sorted))
}

// closedLoop is live_mixed and live_write_burst: the same rig and loop
// at two windows and write shares.
type closedLoop struct {
	rig
	window     int
	writeShare float64
	perClient  int // requests per client per lap
}

// live_mixed runs eight clients, four on each of replicas 0 and 1. With
// two clients the server goroutines park between requests, every
// request pays a thread wake-up whose cost depends on what the host is
// doing, and the read p50 of identical runs spread by 12 % (quartiles,
// 30 runs) against 5 % with eight, which keep both CPUs busy.
func newLiveMixed(e env) workload {
	return &closedLoop{rig: rig{e: e, replicas: []int{0, 1, 0, 1, 0, 1, 0, 1}}, window: 1, writeShare: 0.5, perClient: 12500}
}

func newLiveBurst(e env) workload {
	return &closedLoop{rig: rig{e: e, replicas: []int{0, 1}}, window: 32, writeShare: 1, perClient: 300000}
}

func (w *closedLoop) setup() error {
	if err := w.open(false); err != nil {
		return err
	}
	return w.warm(w.window, w.writeShare)
}

func (w *closedLoop) lap() (lapStats, error) {
	for _, cl := range w.clients {
		cl.resetLap()
	}
	t0 := time.Now()
	err := w.together(func(cl *client) error { return cl.drive(w.window, w.writeShare, w.perClient, time.Time{}) })
	l := lapStats{wall: time.Since(t0), extra: map[string]float64{}}
	if err != nil {
		return l, err
	}
	for _, cl := range w.clients {
		l.attempted += cl.completed
		// No fault is injected here, so a refusal is a failure.
		l.failed += cl.failed + cl.notPrimary
		l.extra["loadgen.not_primary"] += float64(cl.notPrimary)
		l.extra["loadgen.errors"] += float64(cl.failed)
	}
	l.work = float64(l.attempted)
	readUs, writeUs := w.latencies()
	classExtras(l.extra, "loadgen.read", readUs)
	classExtras(l.extra, "loadgen.write", writeUs)
	if w.writeShare < 1 {
		l.waitUs = l.extra["loadgen.read_p50_us"]
	} else {
		l.waitUs = l.extra["loadgen.write_p50_us"]
	}
	return l, nil
}
