// Package sim is the testing and simulation system of thesis Chapter
// 2.2: a driver loop that routes messages among algorithm instances
// without any network, injects connectivity changes, checks safety
// invariants, and gathers the statistics behind every figure in the
// availability study.
//
// The package has two layers. Cluster is the routing engine: it owns
// one algorithm instance per process, enforces view-synchronous
// FIFO-broadcast delivery, and exposes single-delivery granularity so
// a connectivity change can strike between any two deliveries — the
// mid-protocol interruptions whose effect the thesis measures. Driver
// adds the experiment semantics: message rounds, randomized change
// injection, quiescence detection and statistics.
package sim

import (
	"fmt"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/rng"
	"dynvote/internal/trace"
	"dynvote/internal/view"
)

// envelope is one broadcast in flight: a message, the view it was sent
// in, and its recipients in randomized order. How far delivery has got
// is kept by the sender's lane, not here.
type envelope struct {
	viewID     int64
	msg        core.Message
	recipients []int32
}

// lane is one sender with pending deliveries. It holds the sender's
// head envelope inline — the recipients not yet reached, next first, and
// the view ID and message — so a delivery step reads one lane and
// nothing behind it. The lane reloads from the next queued envelope
// when the head is finished.
type lane struct {
	recips []int32
	viewID int64
	msg    core.Message
	sender int
}

// DropFilter lets tests script message loss: returning true drops the
// single delivery of msg from sender to recipient.
type DropFilter func(from, to proc.ID, msg core.Message) bool

// Cluster hosts n algorithm instances and routes their broadcasts with
// view-synchronous, per-sender-FIFO semantics. It performs no
// randomness of its own beyond delivery-order shuffling driven by the
// caller's source.
type Cluster struct {
	factory core.Factory
	n       int
	initial view.View // the all-connected view 0, built once (Universe allocates past InlineProcs)
	algs    []core.Algorithm
	cur     []view.View // current view per process

	// Structure-of-arrays mirrors of the per-process state: one int64
	// load per delivery instead of dragging a 40-byte view.View or a
	// bitset probe through the cache. curID[p] is cur[p].ID, or -1 —
	// which no view ID equals — while p is crashed, so the delivery loop
	// drops for a stale view and for a crashed recipient with one
	// compare. crashedFlag[p] mirrors crashed; the delivery loop reads
	// it only to name the reason for a traced drop.
	curID       []int64
	crashedFlag []bool

	queues    [][]*envelope      // per-sender FIFO of in-flight broadcasts; the head's progress is in its lane
	lanes     []lane             // one per sender with pending deliveries (unordered)
	pending   int                // total undelivered (envelope, recipient) pairs
	crashed   proc.Set           // fail-stopped processes: no polls, no deliveries
	snapshots map[proc.ID][]byte // durable state captured at crash time

	// Per-run arena. Envelopes are handed out from grow-only chunks
	// (stable pointers) tracked by a single cursor, so Reset rewinds
	// every envelope ever issued with one index store instead of
	// walking a free list; each envelope keeps the recipient slice it
	// carved from the grow-only ID blocks across runs, so the
	// steady-state fan-out path never touches the heap. free recycles
	// envelopes within a run (the cursor only moves at high-water).
	// Neither arena moves ops_per_s; both are kept by the allocs/op of
	// BenchmarkSingleRun1024 in make bench-compare (DESIGN.md
	// "Ablations").
	envChunks [][]envelope
	envUsed   int         // envelopes issued from the arena since the last Reset
	idBlocks  []int32     // current recipient-ID block being carved
	free      []*envelope // recycled envelopes with reusable recipient slices

	recipBase     [][]int32   // per-sender members-minus-sender, ascending order
	recipView     []int64     // view ID each recipBase entry was built for (-1: none)
	memberScratch []proc.ID   // IssueViews shuffle buffer
	viewsOut      []view.View // CurrentViews result, reused per call

	// Drop, when non-nil, filters individual deliveries (tests only).
	Drop DropFilter

	// Bytes, when non-nil, is called with the encoded size of every
	// collected broadcast, enabling the §3.4 message-size statistics.
	Bytes func(msgBytes int)

	// Trace, when non-nil, records view installations, deliveries and
	// drops for debugging.
	Trace *trace.Recorder

	// TraceSampleEvery thins the high-volume delivery/drop events to
	// one in N when > 1, keeping long soaks cheap to trace; view
	// installations are always recorded (they are rare and
	// structural). ≤ 1 records everything.
	TraceSampleEvery int
	traceSkip        int // sampled steps to pass over before the next record; 0 reloads

	// Metrics, when non-nil, receives the cluster's instrumentation
	// (deliveries, drops, view installations). Nil costs one branch
	// per delivery step.
	Metrics *Metrics

	// Two-stage delivery (pipeline.go): pipelined is set for the length
	// of a Driver.Run on a multi-core machine; exec is built at the first
	// batch large enough to use it and kept for the cluster's life.
	pipelined bool
	exec      *executor
}

// NewCluster creates n algorithm instances, all starting in the
// initial all-connected view with ID 0.
func NewCluster(factory core.Factory, n int) *Cluster {
	initial := view.View{ID: 0, Members: proc.Universe(n)}
	c := &Cluster{
		factory:     factory,
		n:           n,
		initial:     initial,
		algs:        make([]core.Algorithm, n),
		cur:         make([]view.View, n),
		curID:       make([]int64, n),
		crashedFlag: make([]bool, n),
		queues:      make([][]*envelope, n),
		recipBase:   make([][]int32, n),
		recipView:   make([]int64, n),
	}
	// All n recipient caches are carved from one block: at kilo-process
	// sizes the per-sender make calls were n allocations of n-1 IDs
	// each, dominating construction.
	block := make([]int32, n*(n-1))
	for i := 0; i < n; i++ {
		c.algs[i] = factory.New(proc.ID(i), initial)
		c.cur[i] = initial
		c.recipBase[i] = block[i*(n-1) : i*(n-1) : (i+1)*(n-1)]
		c.recipView[i] = -1
	}
	return c
}

// Reset restores the cluster to its just-constructed state without
// rebuilding it: in-flight envelopes drain into the free pool, views
// and crash state roll back to the initial all-connected view, the
// per-sender recipient caches invalidate, and every algorithm is reset
// in place when it implements core.Resetter (all the study's
// algorithms do) or rebuilt through the factory otherwise. Scratch
// capacity — envelope pool, queues, recipient slices — is retained;
// that retention is the point: a fresh-start sweep executes thousands
// of independent runs, and after the first one the whole simulation
// stack is reused instead of reallocated.
//
// Reset is exact: a run on a reset cluster is bit-identical to the
// same run on a fresh one (the reset-vs-fresh golden tests prove it).
func (c *Cluster) Reset() {
	initial := c.initial
	// Drop the message references held by in-flight envelopes and lanes
	// (only senders with a lane have any) so the rewound arena pins no
	// payloads; the envelopes themselves — and the recipient slices they
	// carved — are reclaimed wholesale by rewinding the arena cursor
	// below.
	for _, l := range c.lanes {
		q := c.queues[l.sender]
		for i, env := range q {
			env.msg = nil
			q[i] = nil
		}
		c.queues[l.sender] = q[:0]
	}
	clear(c.lanes)
	c.lanes = c.lanes[:0]
	c.free = c.free[:0]
	c.envUsed = 0 // the one-store arena rewind: every envelope is fresh again
	for p := 0; p < c.n; p++ {
		c.cur[p] = initial
		c.curID[p] = 0
		c.recipView[p] = -1
		if res, ok := c.algs[p].(core.Resetter); ok {
			res.Reset(proc.ID(p), initial)
		} else {
			c.algs[p] = c.factory.New(proc.ID(p), initial)
		}
	}
	c.pending = 0
	c.crashed = proc.Set{}
	clear(c.crashedFlag)
	clear(c.snapshots) // crash-time durable state must not leak across runs
	c.traceSkip = 0
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.n }

// Algorithm returns process p's instance.
func (c *Cluster) Algorithm(p proc.ID) core.Algorithm { return c.algs[p] }

// View returns process p's current view.
func (c *Cluster) View(p proc.ID) view.View { return c.cur[p] }

// Crash fail-stops process p: it is never polled again, receives no
// further deliveries or views, and its in-flight broadcasts are
// discarded. If the algorithm supports snapshots, its durable state is
// captured as stable storage would hold it, enabling Recover.
func (c *Cluster) Crash(p proc.ID) {
	if c.crashed.Contains(p) || int(p) >= c.n {
		return
	}
	c.crashed = c.crashed.With(p)
	c.crashedFlag[p] = true
	c.curID[p] = -1
	if snap, ok := c.algs[p].(core.Snapshotter); ok {
		if data, err := snap.Snapshot(); err == nil {
			if c.snapshots == nil {
				c.snapshots = make(map[proc.ID][]byte)
			}
			c.snapshots[p] = data
		}
	}
	// Discard the crashed process's undelivered broadcasts, nilling
	// the queue slots so the backing array does not pin the discarded
	// envelopes (and their messages) for the rest of the run. The head
	// envelope's undelivered count is its lane's; the rest are whole.
	for i, l := range c.lanes {
		if l.sender == int(p) {
			c.pending -= len(l.recips)
			last := len(c.lanes) - 1
			c.lanes[i] = c.lanes[last]
			c.lanes[last] = lane{}
			c.lanes = c.lanes[:last]
			break
		}
	}
	q := c.queues[p]
	for i, env := range q {
		if i > 0 {
			c.pending -= len(env.recipients)
		}
		c.releaseEnvelope(env)
		q[i] = nil
	}
	c.queues[p] = q[:0]
}

// Crashed returns the set of fail-stopped processes.
func (c *Cluster) Crashed() proc.Set { return c.crashed }

// Recover brings a crashed process back: a fresh algorithm instance is
// built and its durable state restored from the snapshot taken at
// crash time (stable storage); algorithms without snapshot support
// resume with their frozen in-memory state, which is equivalent for
// the stateless baseline. The caller must issue the recovered
// process's current (singleton) view immediately afterwards.
func (c *Cluster) Recover(p proc.ID) error {
	if !c.crashed.Contains(p) {
		return fmt.Errorf("sim: process %v is not crashed", p)
	}
	if data, ok := c.snapshots[p]; ok {
		fresh := c.factory.New(p, c.initial)
		snap, ok := fresh.(core.Snapshotter)
		if !ok {
			return fmt.Errorf("sim: %s snapshot exists but instance cannot restore", c.factory.Name)
		}
		if err := snap.Restore(data); err != nil {
			return fmt.Errorf("sim: recover %v: %w", p, err)
		}
		c.algs[p] = fresh
		delete(c.snapshots, p)
	}
	c.crashed = c.crashed.Without(p)
	c.crashedFlag[p] = false
	c.curID[p] = c.cur[p].ID
	return nil
}

// IssueViews reports new views to their members, exactly as a group
// membership service would. Callers must Collect first so that
// messages sent in the old views are tagged correctly.
func (c *Cluster) IssueViews(r *rng.Source, views ...view.View) {
	installed := 0
	members := c.memberScratch
	for _, v := range views {
		// Deliver the view to members in random order: the relative
		// timing of view callbacks is not part of the model.
		members = v.Members.AppendMembers(members[:0])
		rng.ShuffleSlice(r, members)
		for _, p := range members {
			if c.crashedFlag[p] {
				continue
			}
			c.cur[p] = v
			c.curID[p] = v.ID
			c.algs[p].ViewChange(v)
			installed++
			if c.Trace != nil {
				c.Trace.Record(trace.Event{Kind: trace.KindView, Process: p, View: v})
			}
		}
	}
	c.memberScratch = members
	c.Metrics.observeViews(installed)
}

// Collect polls every process and enqueues its broadcasts, tagged with
// the sender's current view. It returns the number of new (envelope,
// recipient) deliveries enqueued.
func (c *Cluster) Collect(r *rng.Source) int {
	added := 0
	for p := 0; p < c.n; p++ {
		if c.crashedFlag[p] {
			continue
		}
		msgs := c.algs[p].Poll()
		if len(msgs) == 0 {
			continue
		}
		v := c.cur[p]
		for _, m := range msgs {
			if c.Bytes != nil && c.factory.Codec != nil {
				if b, err := c.factory.Codec.Encode(m); err == nil {
					c.Bytes(len(b))
				}
			}
			base := c.recipientsOf(v, proc.ID(p))
			if len(base) == 0 {
				continue // broadcast in a singleton view reaches nobody
			}
			env := c.newEnvelope()
			env.viewID = v.ID
			env.msg = m
			recipients := env.recipients[:0]
			if cap(recipients) < len(base) {
				recipients = c.carveIDs(len(base))
			}
			recipients = recipients[:len(base)]
			copy(recipients, base)
			rng.ShuffleSlice(r, recipients)
			env.recipients = recipients
			if len(c.queues[p]) == 0 {
				c.lanes = append(c.lanes, lane{recips: recipients, viewID: v.ID, msg: m, sender: p})
			}
			c.queues[p] = append(c.queues[p], env)
			added += len(recipients)
		}
	}
	c.pending += added
	return added
}

// recipientsOf returns sender's current broadcast recipient list
// (view members minus the sender, ascending). The list is cached per
// sender and rebuilt only when the sender's view changes — view IDs
// are unique, so an ID match guarantees identical membership. The
// returned slice is owned by the cache; callers must copy before
// reordering it.
func (c *Cluster) recipientsOf(v view.View, sender proc.ID) []int32 {
	s := int(sender)
	if c.recipView[s] == v.ID {
		return c.recipBase[s]
	}
	buf := c.recipBase[s][:0]
	v.Members.ForEach(func(q proc.ID) {
		if q != sender {
			buf = append(buf, int32(q))
		}
	})
	c.recipBase[s] = buf
	c.recipView[s] = v.ID
	return buf
}

// envChunkSize is the envelope arena's chunk granularity. Chunks are
// never freed or moved, so envelope pointers stay stable for the life
// of the cluster.
const envChunkSize = 128

// newEnvelope takes an envelope off the free list, or issues the next
// one from the arena (growing it by a chunk at the high-water mark).
func (c *Cluster) newEnvelope() *envelope {
	if n := len(c.free); n > 0 {
		env := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return env
	}
	if chunk := c.envUsed / envChunkSize; chunk == len(c.envChunks) {
		c.envChunks = append(c.envChunks, make([]envelope, envChunkSize))
	}
	env := &c.envChunks[c.envUsed/envChunkSize][c.envUsed%envChunkSize]
	c.envUsed++
	return env
}

// carveIDs cuts an n-ID slice out of the grow-only recipient arena.
// Full blocks are simply abandoned to the envelopes already holding
// slices into them; envelope recycling keeps each envelope's carved
// slice across runs, so the carve rate falls to zero at steady state.
func (c *Cluster) carveIDs(n int) []int32 {
	if len(c.idBlocks)+n > cap(c.idBlocks) {
		size := 4096
		if size < n {
			size = n
		}
		c.idBlocks = make([]int32, 0, size)
	}
	s := len(c.idBlocks)
	c.idBlocks = c.idBlocks[:s+n]
	return c.idBlocks[s : s+n : s+n]
}

// releaseEnvelope recycles a fully delivered (or discarded) envelope,
// dropping its message reference so the pool pins no payloads.
func (c *Cluster) releaseEnvelope(env *envelope) {
	env.msg = nil
	c.free = append(c.free, env)
}

// PendingDeliveries returns the number of undelivered (envelope,
// recipient) pairs.
func (c *Cluster) PendingDeliveries() int { return c.pending }

// DeliverBatch performs up to n delivery steps, fewer only when fewer
// are pending. A step picks a uniformly random sender with pending
// traffic and delivers that sender's next (message, recipient) pair,
// preserving per-sender FIFO order. The delivery is dropped — silently
// consumed — if the recipient has crashed or moved to a different view
// than the one the message was sent in (view-synchronous semantics: a
// process that detaches before receiving a message never receives it).
//
// A batch is the strike-free stretch between two connectivity changes:
// every step makes the same rng draw, FIFO pop and drop decision as a
// batch of one would, in the same order, so a run built from batches is
// bit-identical to one built from single steps whatever the batch
// sizes. The driver relies on this to keep the golden streams stable
// while the checker contract (changes may land between any two
// deliveries) caps each batch at the next strike. Inside a Driver.Run a
// large batch runs in two stages (pipeline.go), in the same order.
func (c *Cluster) DeliverBatch(r *rng.Source, n int) {
	if n > c.pending {
		n = c.pending
	}
	if n <= 0 {
		return
	}
	c.pending -= n
	if c.pipelined && n >= pipelineMin {
		c.deliverPipelined(r, n)
		return
	}
	var delivered, dropped int64
	ai := r.Intn(len(c.lanes))
	next := c.lanes[ai].recips[0]
	for ; n > 0; n-- {
		to, l := next, &c.lanes[ai]
		sender, viewID, msg := l.sender, l.viewID, l.msg
		c.advance(l, ai)
		// Draw the next step's lane and load its recipient before this
		// step's handler runs, so that load's cache miss overlaps the
		// handler. Handlers and drop filters cannot reach the cluster or
		// r, so the draws are the same in number and order.
		if n > 1 {
			ai = r.Intn(len(c.lanes))
			next = c.lanes[ai].recips[0]
		}
		if c.deliverStep(to, sender, viewID, msg) {
			delivered++
		} else {
			dropped++
		}
	}
	c.Metrics.observeDeliveries(delivered, dropped)
}

// advance consumes the next recipient of lane l, which is c.lanes[ai].
// Small enough to inline; the end of an envelope is nextEnvelope's.
func (c *Cluster) advance(l *lane, ai int) {
	if len(l.recips) > 1 {
		l.recips = l.recips[1:]
	} else {
		c.nextEnvelope(ai)
	}
}

// nextEnvelope consumes the last recipient of lane ai's head envelope:
// it recycles the envelope, then loads the sender's next one into the
// lane or retires the lane by moving the last lane into its slot.
func (c *Cluster) nextEnvelope(ai int) {
	l := &c.lanes[ai]
	q := c.queues[l.sender]
	c.releaseEnvelope(q[0])
	copy(q, q[1:])
	q[len(q)-1] = nil
	q = q[:len(q)-1]
	c.queues[l.sender] = q
	if len(q) > 0 {
		l.recips, l.viewID, l.msg = q[0].recipients, q[0].viewID, q[0].msg
		return
	}
	last := len(c.lanes) - 1
	c.lanes[ai] = c.lanes[last]
	c.lanes[last] = lane{} // the vacated slot must not pin msg
	c.lanes = c.lanes[:last]
}

// deliverStep runs one delivery step and reports whether msg reached
// to's handler. It drops msg when to has crashed or moved to a view other
// than viewID (curID -1 or another ID), or when the test filter says so.
func (c *Cluster) deliverStep(to int32, sender int, viewID int64, msg core.Message) bool {
	switch {
	case c.curID[to] != viewID:
		if c.Trace != nil {
			why := "view changed"
			if c.crashedFlag[to] {
				why = "crashed"
			}
			c.traceDelivery(trace.KindDrop, sender, to, msg, why)
		}
		return false
	case c.Drop != nil && c.Drop(proc.ID(sender), proc.ID(to), msg):
		if c.Trace != nil {
			c.traceDelivery(trace.KindDrop, sender, to, msg, "filtered")
		}
		return false
	}
	c.algs[to].Deliver(proc.ID(sender), msg)
	if c.Trace != nil {
		c.traceDelivery(trace.KindDeliver, sender, to, msg, "")
	}
	return true
}

// traceDelivery records one delivery step, or passes it over when the
// 1-in-N sampler says so. Callers have checked c.Trace; why is a
// static string, so nothing here allocates.
func (c *Cluster) traceDelivery(kind trace.Kind, sender int, to int32, msg core.Message, why string) {
	if c.TraceSampleEvery > 1 {
		if c.traceSkip == 0 {
			c.traceSkip = c.TraceSampleEvery
		}
		c.traceSkip--
		if c.traceSkip != 0 {
			return
		}
	}
	c.Trace.Record(trace.Event{Kind: kind, Process: proc.ID(to), From: proc.ID(sender), Detail: msg.Kind(), Reason: why})
}

// DeliverAll drains every pending delivery in randomized order.
// Deliveries never enqueue new traffic (sends wait in algorithm
// out-queues for the next Collect), so the whole drain is one batch.
func (c *Cluster) DeliverAll(r *rng.Source) {
	for c.pending > 0 {
		c.DeliverBatch(r, c.pending)
	}
}

// Round runs one message round: collect all broadcasts, then deliver
// them all. It returns the number of deliveries scheduled.
func (c *Cluster) Round(r *rng.Source) int {
	n := c.Collect(r)
	c.DeliverAll(r)
	return n
}

// RunToQuiescence runs rounds until no process has anything to send
// and no delivery is pending. It returns the number of rounds
// executed and an error if maxRounds is exceeded (indicating a
// livelock in the algorithm under test).
func (c *Cluster) RunToQuiescence(r *rng.Source, maxRounds int) (int, error) {
	for rounds := 0; ; rounds++ {
		if rounds > maxRounds {
			return rounds, fmt.Errorf("sim: no quiescence after %d rounds", maxRounds)
		}
		if c.Round(r) == 0 && c.pending == 0 {
			return rounds, nil
		}
	}
}

// Quiescent reports whether no deliveries are pending. It does not
// poll; call after Round or RunToQuiescence.
func (c *Cluster) Quiescent() bool { return c.pending == 0 }

// CurrentViews returns the distinct current views, i.e. the network
// components as the processes perceive them, each once, in the order of
// its lowest-numbered live member. The returned slice is reused by the
// next CurrentViews call: it is valid until then, which covers every
// checker-style caller that iterates it immediately.
//
// Dedup is a scan of the accumulating result. The checker calls this
// after every message round; views are issued to members in contiguous
// ID ranges, so consecutive processes usually share a view and the
// previous-ID compare catches them, and the rest scan a list as long as
// the component count (DESIGN.md "Ablations" has the measurement
// against a hash set for many-component runs).
func (c *Cluster) CurrentViews() []view.View {
	out := c.viewsOut[:0]
	last := int64(-1) // view IDs issued by netsim are non-negative
next:
	for p := 0; p < c.n; p++ {
		if c.crashedFlag[p] {
			continue
		}
		v := &c.cur[p]
		if v.ID == last {
			continue
		}
		last = v.ID
		for i := range out {
			if out[i].ID == v.ID {
				continue next
			}
		}
		out = append(out, *v)
	}
	c.viewsOut = out
	return out
}
