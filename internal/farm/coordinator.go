package farm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynvote/internal/campaign"
	"dynvote/internal/metrics"
	"dynvote/internal/wire"
)

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Campaign is the campaign to farm out. Its AlgorithmDone hook
	// fires on the coordinator, under the coordinator's lock, and its
	// ProgressEvery throttles Progress below. Its Progress and Abort are
	// never read: chains report progress on the workers, and Drain is
	// the farm's drain.
	Campaign campaign.Config
	// Listen is the TCP listen address (e.g. "127.0.0.1:0").
	Listen string
	// StragglerAfter re-issues a chain to an idle worker when its
	// current holder has been running it longer than this and no fresh
	// work remains — the tail-latency hedge. 0 disables.
	StragglerAfter time.Duration
	// Progress, when non-nil, receives farm-level progress updates
	// every Campaign.ProgressEvery, serialized with the campaign's
	// AlgorithmDone hook.
	Progress func(Update)
	// Metrics, when non-nil, receives the farm counters: chains
	// dispatched/completed/requeued, connected workers, and per-worker
	// completion counters.
	Metrics *metrics.Registry
}

// Update is one farm progress snapshot.
type Update struct {
	Done, Total int // chains merged / chains overall
	Requeued    int // chain re-issues so far
	Workers     int // connected workers
	Elapsed     time.Duration
}

// farmMetrics resolves the coordinator's instruments once.
type farmMetrics struct {
	reg        *metrics.Registry
	dispatched *metrics.Counter
	completed  *metrics.Counter
	requeued   *metrics.Counter
	workers    *metrics.Gauge
}

func newFarmMetrics(reg *metrics.Registry) farmMetrics {
	return farmMetrics{
		reg:        reg,
		dispatched: reg.Counter("farm_chains_dispatched_total", "chain assignments sent to workers (re-issues included)"),
		completed:  reg.Counter("farm_chains_completed_total", "chains merged exactly once"),
		requeued:   reg.Counter("farm_chains_requeued_total", "chain re-issues after worker loss or straggler deadline"),
		workers:    reg.Gauge("farm_workers_connected", "currently connected workers"),
	}
}

// Coordinator dispatches a farmed campaign: the work queue, the
// per-worker in-flight windows, requeues and straggler hedging. Chain
// outcomes go to a campaign.Merge, the merge campaign.Run uses too.
type Coordinator struct {
	cfg       CoordinatorConfig
	merge     *campaign.Merge
	camp      campaign.Config // merge.Config(): defaults applied
	ln        net.Listener
	confBody  []byte // config frame body, serialized once
	start     time.Time
	drainFlag atomic.Bool
	m         farmMetrics

	mu          sync.Mutex // taken before the merge's lock, never after
	queue       []int      // pending job indices (job = alg*Chains + chain)
	requeued    []int
	workers     map[*coordWorker]struct{}
	workerSeq   int
	peakWorkers int
	finished    bool

	finishedCh chan struct{}
	acceptDone chan struct{}
}

// coordWorker is the coordinator's view of one connected worker.
type coordWorker struct {
	conn     net.Conn
	bw       *bufio.Writer
	wmu      sync.Mutex // serializes frame writes (assigns, abort)
	id       int
	window   int // capacity + 1: one chain waits while the rest run
	draining bool
	// outstanding maps issued-but-unmerged jobs to their issue time.
	outstanding map[int]time.Time
	completed   *metrics.Counter
}

// NewCoordinator binds the listen address and starts accepting
// workers. The campaign does not progress until Run is called.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Campaign.Factories) == 0 {
		return nil, fmt.Errorf("farm: campaign has no algorithms")
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("farm: listen %s: %w", cfg.Listen, err)
	}
	var w wire.Writer
	encodeConfig(&w, cfg.Campaign)
	merge := campaign.NewMerge(cfg.Campaign)
	c := &Coordinator{
		cfg:        cfg,
		merge:      merge,
		camp:       merge.Config(),
		ln:         ln,
		confBody:   append([]byte(nil), w.Bytes()...),
		start:      time.Now(),
		m:          newFarmMetrics(cfg.Metrics),
		queue:      make([]int, merge.Jobs()),
		requeued:   make([]int, merge.Jobs()),
		workers:    make(map[*coordWorker]struct{}),
		finishedCh: make(chan struct{}),
		acceptDone: make(chan struct{}),
	}
	for i := range c.queue {
		c.queue[i] = i
	}
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's bound listen address, for workers to
// join.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Workers returns the current and peak connected worker counts.
func (c *Coordinator) Workers() (current, peak int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers), c.peakWorkers
}

// Drain stops issuing new chains and finishes once every in-flight
// chain has reported (or its worker vanished): the SIGINT path. The
// merged result covers whatever completed, marked Aborted.
func (c *Coordinator) Drain() {
	c.drainFlag.Store(true)
	c.mu.Lock()
	c.maybeFinishLocked()
	c.mu.Unlock()
}

// Run drives the farm to completion and returns the merged campaign
// result — bit-identical to a local campaign.Run for the same
// (seed, chains) — and the first violation as the error, exactly like
// campaign.Run. It blocks until the work queue drains, a violation
// aborts the farm, or Drain empties the in-flight window.
func (c *Coordinator) Run() (*campaign.Result, error) {
	var ticker *time.Ticker
	var tick <-chan time.Time
	every := c.cfg.Campaign.ProgressEvery
	interval := every
	if c.cfg.StragglerAfter > 0 {
		if half := c.cfg.StragglerAfter / 2; interval == 0 || half < interval {
			interval = half
		}
	}
	if interval > 0 {
		ticker = time.NewTicker(interval)
		tick = ticker.C
		defer ticker.Stop()
	}
	lastProgress := time.Now()
loop:
	for {
		select {
		case <-c.finishedCh:
			break loop
		case <-tick:
			// The straggler hedge needs a periodic nudge: an idle worker
			// only asks for work when a result frees its window, and a
			// stalled tail produces no results.
			c.fillAll()
			if c.cfg.Progress != nil && every > 0 && time.Since(lastProgress) >= every {
				lastProgress = time.Now()
				c.emitProgress()
			}
		}
	}
	c.Close()
	return c.merge.Result(c.drainFlag.Load())
}

// Close shuts the listener and every worker connection down. Run calls
// it on the way out; it is idempotent.
func (c *Coordinator) Close() {
	_ = c.ln.Close()
	c.mu.Lock()
	conns := make([]net.Conn, 0, len(c.workers))
	for w := range c.workers {
		conns = append(conns, w.conn)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		_ = conn.Close()
	}
	<-c.acceptDone
}

func (c *Coordinator) emitProgress() {
	c.mu.Lock()
	u := Update{
		Total:   len(c.requeued),
		Workers: len(c.workers),
		Elapsed: time.Since(c.start),
	}
	for _, r := range c.requeued {
		u.Requeued += r
	}
	c.mu.Unlock()
	c.merge.Locked(func(merged int) {
		u.Done = merged
		c.cfg.Progress(u)
	})
}

func (c *Coordinator) acceptLoop() {
	defer close(c.acceptDone)
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed: campaign finished or aborted
		}
		go c.handleWorker(conn)
	}
}

// handleWorker owns one worker connection: handshake, config frame,
// then the issue/collect loop until the connection dies or the farm
// finishes. On any exit, the worker's outstanding chains requeue.
func (c *Coordinator) handleWorker(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)

	// Handshake under a deadline: a junk connection (port scan, fault
	// test) must not hold a coordinator slot open forever.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := wire.ReadFrame(br, nil, maxFrame)
	if err != nil {
		_ = conn.Close()
		return
	}
	r := wire.NewReader(body)
	if r.Byte() != msgHello {
		_ = conn.Close()
		return
	}
	capacity, err := decodeHello(r)
	if err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	w := &coordWorker{
		conn:        conn,
		bw:          bufio.NewWriterSize(conn, 16<<10),
		window:      capacity + 1,
		outstanding: make(map[int]time.Time),
	}

	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		_ = conn.Close()
		return
	}
	c.workerSeq++
	w.id = c.workerSeq
	c.workers[w] = struct{}{}
	if len(c.workers) > c.peakWorkers {
		c.peakWorkers = len(c.workers)
	}
	w.completed = c.m.reg.Counter(
		fmt.Sprintf("farm_worker_%d_chains_total", w.id),
		"chains completed by this worker")
	c.mu.Unlock()
	c.m.workers.Add(1)

	defer func() {
		_ = conn.Close()
		c.m.workers.Add(-1)
		c.unregister(w)
	}()

	// The campaign config crosses the wire exactly once per connection;
	// every subsequent assign is ~10 bytes.
	w.wmu.Lock()
	err = wire.WriteFrame(w.bw, c.confBody, maxFrame)
	if err == nil {
		err = w.bw.Flush()
	}
	w.wmu.Unlock()
	if err != nil {
		return
	}

	c.fill(w)

	var buf []byte
	for {
		body, err := wire.ReadFrame(br, buf, maxFrame)
		if err != nil {
			return
		}
		buf = body[:0]
		r := wire.NewReader(body)
		switch r.Byte() {
		case msgResult:
			res, err := decodeResult(r)
			if err != nil {
				return // corrupt frame: drop the worker, requeue its chains
			}
			c.handleResult(w, res)
		case msgGoodbye:
			c.mu.Lock()
			w.draining = true
			c.mu.Unlock()
		default:
			return // protocol violation
		}
	}
}

// unregister removes a worker and requeues its outstanding unmerged
// chains — the chain index is the unit of retry, and the merge's
// seen-set keeps a requeued chain from ever merging twice.
func (c *Coordinator) unregister(w *coordWorker) {
	c.mu.Lock()
	if _, ok := c.workers[w]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.workers, w)
	requeuedAny := false
	for job := range w.outstanding {
		if c.merge.Merged(job) {
			continue
		}
		if !c.queuedLocked(job) {
			c.queue = append(c.queue, job)
		}
		c.requeued[job]++
		c.m.requeued.Inc()
		requeuedAny = true
	}
	c.maybeFinishLocked()
	c.mu.Unlock()
	if requeuedAny {
		c.fillAll()
	}
}

// queuedLocked reports whether job is already sitting in the pending
// queue (it can be, when a straggler re-issue and a worker loss race).
func (c *Coordinator) queuedLocked(job int) bool {
	for _, q := range c.queue {
		if q == job {
			return true
		}
	}
	return false
}

// handleResult hands one chain outcome to the merge, which keeps the
// first result per job (a straggler's duplicate is dropped), and
// aborts the farm on a violation.
func (c *Coordinator) handleResult(w *coordWorker, res chainResult) {
	if res.alg < 0 || res.alg >= len(c.camp.Factories) ||
		res.chain < 0 || res.chain >= c.camp.Chains {
		return // nonsense coordinates: ignore
	}
	job := res.alg*c.camp.Chains + res.chain
	var err error
	if res.errMsg != "" {
		err = errors.New(res.errMsg)
	}
	c.mu.Lock()
	delete(w.outstanding, job)
	res.stat.Requeued = c.requeued[job]
	if c.merge.Add(job, res.stat, err) {
		c.m.completed.Inc()
		w.completed.Inc()
	}
	c.maybeFinishLocked()
	c.mu.Unlock()
	if err != nil {
		c.abortWorkers()
		return
	}
	c.fill(w)
}

// maybeFinishLocked closes the farm when the queue has fully merged,
// a violation aborted it, or a drain has no chains left in flight.
func (c *Coordinator) maybeFinishLocked() {
	if c.finished {
		return
	}
	finish := c.merge.Done()
	if !finish && c.drainFlag.Load() {
		inFlight := 0
		for w := range c.workers {
			inFlight += len(w.outstanding)
		}
		finish = inFlight == 0
	}
	if finish {
		c.finished = true
		close(c.finishedCh)
	}
}

// abortWorkers broadcasts the abort frame: chains stop cooperatively
// at their next run boundary, mirroring the local campaign's abort.
func (c *Coordinator) abortWorkers() {
	c.mu.Lock()
	ws := make([]*coordWorker, 0, len(c.workers))
	for w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	var enc wire.Writer
	enc.Byte(msgAbort)
	for _, w := range ws {
		w.wmu.Lock()
		if wire.WriteFrame(w.bw, enc.Bytes(), maxFrame) == nil {
			_ = w.bw.Flush()
		}
		w.wmu.Unlock()
	}
}

// fillAll tops up every worker's window; used after requeues and by
// the straggler ticker.
func (c *Coordinator) fillAll() {
	c.mu.Lock()
	ws := make([]*coordWorker, 0, len(c.workers))
	for w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	for _, w := range ws {
		c.fill(w)
	}
}

// fill issues chains to one worker until its in-flight window is full
// or no work is available. Frame writes happen outside the coordinator
// lock: a slow worker's TCP backpressure must not stall the farm.
func (c *Coordinator) fill(w *coordWorker) {
	var enc wire.Writer
	for {
		c.mu.Lock()
		job, ok := c.nextJobLocked(w)
		c.mu.Unlock()
		if !ok {
			return
		}
		alg, chain := job/c.camp.Chains, job%c.camp.Chains
		encodeAssign(&enc, alg, chain)
		w.wmu.Lock()
		err := wire.WriteFrame(w.bw, enc.Bytes(), maxFrame)
		if err == nil {
			err = w.bw.Flush()
		}
		w.wmu.Unlock()
		if err != nil {
			// The connection is dying; its read loop will requeue this
			// job (it is recorded outstanding) along with the rest.
			return
		}
		c.m.dispatched.Inc()
	}
}

// nextJobLocked picks the next chain for w: fresh work from the queue
// first; with the queue empty and a straggler deadline configured, the
// oldest over-deadline chain held by another worker is hedged here
// (counted as a requeue — first result wins, the seen-set drops the
// loser).
func (c *Coordinator) nextJobLocked(w *coordWorker) (int, bool) {
	if c.finished || c.drainFlag.Load() || w.draining {
		return 0, false
	}
	if _, ok := c.workers[w]; !ok {
		return 0, false
	}
	if len(w.outstanding) >= w.window {
		return 0, false
	}
	if len(c.queue) > 0 {
		job := c.queue[0]
		c.queue = c.queue[1:]
		if c.merge.Merged(job) {
			// Merged while queued (requeue raced a late result): skip.
			return c.nextJobLocked(w)
		}
		c.issueLocked(w, job)
		return job, true
	}
	if c.cfg.StragglerAfter <= 0 {
		return 0, false
	}
	deadline := time.Now().Add(-c.cfg.StragglerAfter)
	best, bestAt := -1, time.Time{}
	for other := range c.workers {
		if other == w {
			continue
		}
		for job, at := range other.outstanding {
			if c.merge.Merged(job) || !at.Before(deadline) {
				continue
			}
			if _, dup := w.outstanding[job]; dup {
				continue
			}
			if best == -1 || at.Before(bestAt) {
				best, bestAt = job, at
			}
		}
	}
	if best == -1 {
		return 0, false
	}
	c.requeued[best]++
	c.m.requeued.Inc()
	c.issueLocked(w, best)
	return best, true
}

func (c *Coordinator) issueLocked(w *coordWorker, job int) {
	w.outstanding[job] = time.Now()
	c.merge.Start(job)
}
