package gcs

import (
	"fmt"
	"sync"

	"dynvote/internal/core"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/view"
	"dynvote/internal/wire"
)

// Frame kinds on the wire.
const (
	frameView byte = iota + 1 // leader's view announcement
	frameBundle
	frameViewNack // "your announcement is stale; I have seen view N"
)

// EventKind classifies node events.
type EventKind int

const (
	// EventView: a new view was installed.
	EventView EventKind = iota + 1
	// EventApp: an application payload was delivered.
	EventApp
	// EventPrimary: the node's primary-component status changed.
	EventPrimary
	// EventViewProposed: this node, as leader of its component,
	// announced a new view (it installs moments later). The
	// proposed→installed gap is the membership half of failover time.
	EventViewProposed
)

// Event is a notification from the node's event loop. Handlers run on
// the loop goroutine and must not block.
type Event struct {
	Kind    EventKind
	View    view.View
	From    proc.ID
	Payload []byte
	Primary bool
}

// Config assembles a Node.
type Config struct {
	// ID is this process's identity; processes are numbered 0..N-1.
	ID proc.ID
	// N is the total number of processes in the system.
	N int
	// Transport carries frames and failure-detector events.
	Transport Transport
	// Algorithm chooses the primary component algorithm variant.
	Algorithm core.Factory
	// OnEvent, when non-nil, receives node events from the loop
	// goroutine.
	OnEvent func(Event)
	// Restore, when non-nil, is a durable-state snapshot (from
	// Node.Snapshot of a previous incarnation) to restore before the
	// node starts — how a process rejoins after a crash without
	// forgetting which primaries it helped form.
	Restore []byte
	// Metrics, when non-nil, receives the node's instrumentation
	// (broadcasts, deliveries, views, reconfigurations, snapshot
	// activity). Share one registry across a cluster's nodes for
	// cluster-wide totals.
	Metrics *metrics.Registry
}

// Node hosts a primary component algorithm over a Transport: it runs
// the membership protocol, broadcasts the algorithm's messages, and
// piggybacks application payloads onto the same frames, exactly as the
// thesis's application interface prescribes (Figure 2-2).
type Node struct {
	cfg   Config
	alg   core.Algorithm
	pb    *core.Piggyback
	sends chan []byte
	m     nodeMetrics

	// apps is the loop's reused batch of payloads drained from sends
	// for one bundle (see sendQueued).
	apps [][]byte

	mu        sync.Mutex // guards the snapshot fields below
	curView   view.View
	inPrimary bool

	// early buffers bundles that arrive before their view is
	// installed here: members install a new view at slightly
	// different moments, and a fast member's state exchange must not
	// be lost to a slow one. Keyed by view ID; bounded.
	early      map[int64][]Frame
	earlyTotal int

	// maxSeenViewID tracks the highest view ID this node has heard of
	// — including via stale-view NACKs — so a leader whose process ID
	// composes smaller view IDs can still outbid a view it was never
	// a member of. lastReach remembers the latest failure-detector
	// report for re-announcements.
	maxSeenViewID int64
	lastReach     proc.Set

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewNode builds a node; Run starts it.
func NewNode(cfg Config) (*Node, error) {
	if cfg.N <= 0 || cfg.ID < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("gcs: bad identity %v of %d", cfg.ID, cfg.N)
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("gcs: transport required")
	}
	all := proc.Universe(cfg.N)
	initial := view.View{ID: 0, Members: all}
	alg := cfg.Algorithm.New(cfg.ID, initial)
	m := newNodeMetrics(cfg.Metrics)
	if cfg.Restore != nil {
		snap, ok := alg.(core.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("gcs: %s does not support state restore", cfg.Algorithm.Name)
		}
		if err := snap.Restore(cfg.Restore); err != nil {
			return nil, fmt.Errorf("gcs: restore: %w", err)
		}
		m.snapLoads.Inc()
	}
	return &Node{
		cfg:       cfg,
		alg:       alg,
		m:         m,
		pb:        core.NewPiggyback(alg, cfg.Algorithm.Codec),
		sends:     make(chan []byte, 64),
		early:     make(map[int64][]Frame),
		curView:   initial,
		inPrimary: alg.InPrimary(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

// Run starts the event loop. Stop shuts it down and waits for exit.
func (n *Node) Run() { go n.loop() }

// Stop signals the loop to exit and waits for it.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	<-n.done
}

// Snapshot captures the algorithm's durable state after stopping the
// node, suitable for Config.Restore in a later incarnation. It fails
// for algorithms without persistence support. Call only after Stop —
// the algorithm is not safe to read while the loop runs.
func (n *Node) Snapshot() ([]byte, error) {
	select {
	case <-n.done:
	default:
		return nil, fmt.Errorf("gcs: Snapshot requires a stopped node")
	}
	snap, ok := n.alg.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("gcs: %s does not support snapshots", n.alg.Name())
	}
	data, err := snap.Snapshot()
	if err == nil {
		n.m.snapSaves.Inc()
	}
	return data, err
}

// InPrimary reports whether this process currently belongs to the
// primary component.
func (n *Node) InPrimary() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inPrimary
}

// CurrentView returns the installed view.
func (n *Node) CurrentView() view.View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.curView
}

// Broadcast queues an application payload for delivery to the current
// view, riding the same frames as the algorithm's traffic. It returns
// once the payload is queued; payloads queued while the loop is busy
// leave together, in order, in one bundle.
func (n *Node) Broadcast(payload []byte) error {
	buf := make([]byte, len(payload))
	copy(buf, payload)
	select {
	case n.sends <- buf:
		return nil
	case <-n.stop:
		return fmt.Errorf("gcs: node stopped")
	}
}

func (n *Node) loop() {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			_ = n.cfg.Transport.Close()
			return
		case reach := <-n.cfg.Transport.Reachability():
			n.onReachability(reach)
		case f := <-n.cfg.Transport.Frames():
			n.onFrame(f)
		case payload := <-n.sends:
			n.sendQueued(payload)
		}
	}
}

// onReachability runs the membership step: the smallest reachable
// process leads; a leader announces a fresh view to its component.
// A follower waits for that announcement, and helps it happen when the
// leader is not in the follower's view: the leader may have seen no
// change it could act on (it was convicted here while it was paused,
// or by a detector more nervous than its own, and its own reachable
// set never moved), so the follower tells it which view it is in, the
// same message that answers a stale announcement.
func (n *Node) onReachability(reach proc.Set) {
	n.m.reconfigs.Inc()
	if !reach.Contains(n.cfg.ID) {
		reach = reach.With(n.cfg.ID)
	}
	n.lastReach = reach
	if lead := reach.Smallest(); lead != n.cfg.ID {
		// A smaller process will lead and announce the view.
		if cur := n.CurrentView(); !cur.Members.Contains(lead) {
			n.sendViewNack(lead, cur.ID)
		}
		return
	}
	v := view.View{ID: n.nextViewID(), Members: reach}
	n.emit(Event{Kind: EventViewProposed, View: v})
	var w wire.Writer
	w.Byte(frameView)
	w.Varint(v.ID)
	w.Set(v.Members)
	n.broadcastRaw(v.Members, w.Bytes())
	n.installView(v)
}

// nextViewID composes a view identifier that is strictly increasing at
// this leader and globally unique: the high bits carry an epoch above
// every view this leader has seen or been told about, the low bits its
// process ID, so concurrent leaders in disjoint components never
// collide.
func (n *Node) nextViewID() int64 {
	n.mu.Lock()
	base := n.curView.ID
	n.mu.Unlock()
	if n.maxSeenViewID > base {
		base = n.maxSeenViewID
	}
	epoch := base>>16 + 1
	id := epoch<<16 | int64(n.cfg.ID&0xFFFF)
	n.maxSeenViewID = id
	return id
}

func (n *Node) onFrame(f Frame) {
	r := wire.NewReader(f.Data)
	switch kind := r.Byte(); kind {
	case frameView:
		v := view.View{ID: r.Varint(), Members: r.Set()}
		if r.Err() != nil || !v.Members.Contains(n.cfg.ID) {
			return
		}
		// Trust only the member that leads this view.
		if f.From != v.Members.Smallest() {
			return
		}
		if v.ID > n.maxSeenViewID {
			n.maxSeenViewID = v.ID
		}
		if v.ID <= n.CurrentView().ID {
			// Stale announcement — typically a rightful leader whose
			// process ID composes smaller view IDs than one we joined
			// during a failure-detector race. Tell it how far we have
			// seen so it can re-announce above us.
			n.sendViewNack(f.From, n.CurrentView().ID)
			return
		}
		n.installView(v)
	case frameViewNack:
		seen := r.Varint()
		if r.Err() != nil {
			return
		}
		if seen > n.maxSeenViewID {
			n.maxSeenViewID = seen
		}
		// Re-announce with a higher epoch if we still lead the sender.
		// One we cannot reach yet is answered by the announcement that
		// follows the detector's next report; until then a new view
		// would be the old membership once more.
		if n.lastReach.Contains(f.From) && n.CurrentView().ID <= seen {
			n.onReachability(n.lastReach)
		}
	case frameBundle:
		viewID := r.Varint()
		if r.Err() != nil {
			return
		}
		cur := n.CurrentView().ID
		switch {
		case viewID == cur:
			n.deliverBundle(f)
			n.flush()
		case viewID > cur:
			// The sender installed a newer view before we did; hold
			// the bundle until the leader's announcement arrives.
			const maxEarly = 1024
			if n.earlyTotal < maxEarly {
				n.early[viewID] = append(n.early[viewID], f)
				n.earlyTotal++
				n.m.earlyHeld.Inc()
			}
		default:
			// Older view: view-synchronous drop.
		}
	}
}

// sendViewNack tells a leader the highest view this node has installed.
func (n *Node) sendViewNack(to proc.ID, seen int64) {
	var w wire.Writer
	w.Byte(frameViewNack)
	w.Varint(seen)
	_ = n.cfg.Transport.Send(to, w.Bytes())
}

// deliverBundle hands a current-view bundle to the algorithm and the
// application.
func (n *Node) deliverBundle(f Frame) {
	r := wire.NewReader(f.Data)
	_ = r.Byte()   // kind
	_ = r.Varint() // view id
	rest := f.Data[len(f.Data)-r.Remaining():]
	err := n.pb.Incoming(f.From, rest, func(app []byte) {
		n.m.appPayloads.Inc()
		n.emit(Event{Kind: EventApp, From: f.From, Payload: app})
	})
	if err != nil {
		return // corrupt frame; drop
	}
	n.m.bundlesIn.Inc()
}

// installView delivers the view to the algorithm and flushes whatever
// it wants to say.
func (n *Node) installView(v view.View) {
	n.m.views.Inc()
	n.mu.Lock()
	n.curView = v
	n.mu.Unlock()
	n.pb.ViewChanged(v)
	n.emit(Event{Kind: EventView, View: v})
	n.flush()

	if v.ID > n.maxSeenViewID {
		n.maxSeenViewID = v.ID
	}
	// Replay bundles that raced ahead of this view's announcement and
	// discard buffered traffic for views we skipped past.
	replay := n.early[v.ID]
	for id, frames := range n.early {
		if id <= v.ID {
			n.earlyTotal -= len(frames)
			delete(n.early, id)
		}
	}
	for _, f := range replay {
		if n.CurrentView().ID != v.ID {
			break // a replayed frame moved us to yet another view
		}
		n.deliverBundle(f)
		n.flush()
	}
}

// sendQueued sends payload and every payload already queued behind
// it, in queue order, as one bundle: one poll of the algorithm and one
// frame per peer for the whole batch, not one per Broadcast. Each
// bundle is a run of sends cases the loop could have picked back to
// back, so FIFO order per sender and view-synchronous delivery are
// unchanged. A bundle stops short of flushBufCap payload bytes, the
// transport's own coalescing bound, and the payload that would cross
// it opens the next one; a larger payload travels alone.
func (n *Node) sendQueued(payload []byte) {
	apps, size := append(n.apps, payload), len(payload)
	// Only this goroutine receives from sends, so the len(n.sends)
	// payloads queued now are there to take without blocking.
	for k := len(n.sends); k > 0; k-- {
		p := <-n.sends
		if size+len(p) > flushBufCap {
			n.flush(apps...)
			apps, size = apps[:0], 0
		}
		apps, size = append(apps, p), size+len(p)
	}
	n.flush(apps...)
	// Drop the references so delivered payloads are not kept alive.
	clear(apps[:cap(apps)])
	n.apps = apps[:0]
}

// flush bundles pending algorithm messages (and any application
// payloads) and broadcasts them to the current view — the thesis's
// outgoingMessagePoll discipline: poll after every new piece of
// information.
func (n *Node) flush(apps ...[]byte) {
	v := n.CurrentView()
	data, send, err := n.pb.Outgoing(apps...)
	if err != nil || !send {
		n.checkPrimary()
		return
	}
	var w wire.Writer
	w.Byte(frameBundle)
	w.Varint(v.ID)
	bundle := append(w.Bytes(), data...)
	n.broadcastRaw(v.Members, bundle)
	// Group multicast delivers to the sender too.
	for _, app := range apps {
		n.emit(Event{Kind: EventApp, From: n.cfg.ID, Payload: app})
	}
	n.checkPrimary()
}

func (n *Node) broadcastRaw(members proc.Set, data []byte) {
	members.ForEach(func(q proc.ID) {
		if q != n.cfg.ID {
			n.m.broadcasts.Inc()
			_ = n.cfg.Transport.Send(q, data)
		}
	})
}

func (n *Node) checkPrimary() {
	now := n.alg.InPrimary()
	n.mu.Lock()
	changed := now != n.inPrimary
	n.inPrimary = now
	n.mu.Unlock()
	if changed {
		n.emit(Event{Kind: EventPrimary, Primary: now})
	}
}

func (n *Node) emit(ev Event) {
	if n.cfg.OnEvent != nil {
		n.cfg.OnEvent(ev)
	}
}
