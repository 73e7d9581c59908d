package sim

import (
	"dynvote/internal/core"
	"dynvote/internal/rng"
)

// Two-stage delivery. A large batch is split between two goroutines: the
// caller plans — draws each step's lane, takes the lane's next recipient,
// advances lane, queue and envelope state — and writes the steps into a
// small ring of reused blocks, while an executor goroutine runs the
// blocks in plan order: the drop compare, the drop filter, the handler
// and the trace record. Handlers and filters cannot reach the lanes or
// the random source, and views, crashes and Collect happen only between
// batches, so the deliveries happen in exactly the fused loop's order.
//
// The executor belongs to one Driver.Run: it starts at the run's first
// batch of at least pipelineMin steps and is joined before Run returns.
// Bare Cluster callers never start one.
const (
	pipeBlock = 2048 // steps per ring block
	pipeDepth = 4    // blocks in the ring
)

// pipelineMin is the smallest batch that runs in two stages; smaller
// batches run the fused loop, where the hand-offs would cost more than
// the overlap gains. A variable only so that tests can force either path.
var pipelineMin = 150000

// step is one planned delivery.
type step struct {
	to     int32
	sender int32
	viewID int64
	msg    core.Message
}

// pipeMsg hands the executor one planned block: ring[idx][:n], the last
// of its batch when last is set. n < 0 stops the executor.
type pipeMsg struct {
	idx, n int
	last   bool
}

// pipeResult is the executor's answer to a batch's last block, or to a
// stop. A handler's panic is carried back to the planner, which raises it
// again on the caller's goroutine.
type pipeResult struct {
	delivered, dropped int64
	panicked           bool
	value              any
	stopped            bool
}

// executor is the second stage of DeliverBatch. Its ring and channels are
// built once per cluster and reused by every run; only the goroutine is
// per run.
type executor struct {
	c       *Cluster
	ring    [pipeDepth][pipeBlock]step
	free    chan struct{} // one token per block the planner may fill
	full    chan pipeMsg  // planned blocks, in plan order
	done    chan pipeResult
	seq     int // blocks planned since start; block seq uses ring[seq%pipeDepth]
	running bool
	body    func() // loop as a func value, made once: a go statement on x.loop allocates a closure per start
}

// startExecutor returns the cluster's executor with its goroutine
// running, building the executor on first use.
func (c *Cluster) startExecutor() *executor {
	x := c.exec
	if x == nil {
		x = &executor{
			c:    c,
			free: make(chan struct{}, pipeDepth),
			full: make(chan pipeMsg, pipeDepth+1), // room for a stop behind a full ring
			done: make(chan pipeResult, 1),
		}
		x.body = x.loop
		c.exec = x
	}
	if !x.running {
		for len(x.free) < pipeDepth {
			x.free <- struct{}{}
		}
		x.seq = 0
		x.running = true
		go x.body()
	}
	return x
}

// stop joins the executor's goroutine and drops the messages the ring
// still references, so a finished run pins no payloads.
func (x *executor) stop() {
	x.full <- pipeMsg{n: -1}
	for !(<-x.done).stopped {
	}
	x.running = false
	x.ring = [pipeDepth][pipeBlock]step{}
}

// loop is the executor goroutine: it runs each block it is handed and
// gives the block back, and answers a batch's last block with the
// batch's tallies. After a handler panics, the rest of the batch is
// skipped and the panic is the answer.
func (x *executor) loop() {
	var res pipeResult
	for {
		m := <-x.full
		if m.n < 0 {
			x.done <- pipeResult{stopped: true}
			return
		}
		if !res.panicked {
			x.run(x.ring[m.idx][:m.n], &res)
		}
		x.free <- struct{}{}
		if m.last {
			x.done <- res
			res = pipeResult{}
		}
	}
}

// run delivers one block's steps in order.
func (x *executor) run(blk []step, res *pipeResult) {
	defer func() {
		if v := recover(); v != nil {
			res.panicked, res.value = true, v
		}
	}()
	c := x.c
	for i := range blk {
		s := &blk[i]
		if c.deliverStep(s.to, int(s.sender), s.viewID, s.msg) {
			res.delivered++
		} else {
			res.dropped++
		}
	}
}

// deliverPipelined is DeliverBatch's two-stage path for n > 0 steps; the
// caller has taken them off pending. The caller's goroutine plans block
// after block while the executor runs the ones before.
func (c *Cluster) deliverPipelined(r *rng.Source, n int) {
	x := c.startExecutor()
	for n > 0 {
		<-x.free
		idx := x.seq % pipeDepth
		x.seq++
		blk := x.ring[idx][:min(n, pipeBlock)]
		for i := range blk {
			ai := r.Intn(len(c.lanes))
			l := &c.lanes[ai]
			blk[i] = step{to: l.recips[0], sender: int32(l.sender), viewID: l.viewID, msg: l.msg}
			c.advance(l, ai)
		}
		n -= len(blk)
		x.full <- pipeMsg{idx: idx, n: len(blk), last: n == 0}
	}
	res := <-x.done
	if res.panicked {
		panic(res.value)
	}
	c.Metrics.observeDeliveries(res.delivered, res.dropped)
}

// endRun closes a Driver.Run's use of the two-stage path: later batches
// run fused until the next Run, and a running executor is joined.
func (c *Cluster) endRun() {
	c.pipelined = false
	if c.exec != nil && c.exec.running {
		c.exec.stop()
	}
}
