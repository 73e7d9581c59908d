// Package gcs is a live group communication substrate — the
// repository's stand-in for Transis (thesis Chapter 2). It provides
// the two services every primary component algorithm needs: broadcast
// within a view, and view change notifications. The same
// core.Algorithm implementations that run in the simulator run
// unchanged on a gcs.Node, over an in-memory network or over TCP.
//
// The broadcast is FIFO, not reliable: frames from one sender arrive in
// order over one connection, may be dropped at a full send queue, on
// inbox overflow or in redial back-off, and are never retransmitted.
// Reliable delivery within a view is ROADMAP item 4.
//
// Membership is deliberately simple (the thesis delegates it to
// Transis): within each connected component, the lexically smallest
// reachable process leads, assigning monotonically increasing view
// identifiers and announcing the view to its members. Messages are
// tagged with the view they were sent in and discarded by receivers in
// any other view — exactly the view-synchronous drop semantics the
// algorithms are designed for (an interrupted attempt becomes an
// ambiguous session; that is the phenomenon the thesis studies).
package gcs

import (
	"fmt"
	"sync"

	"dynvote/internal/proc"
)

// Frame is one point-to-point datagram between nodes.
type Frame struct {
	From proc.ID
	Data []byte
}

// Transport moves frames between nodes and reports reachability. The
// reachability channel is the failure detector: it carries the current
// set of reachable processes (including the receiver itself) whenever
// connectivity changes.
type Transport interface {
	// Send delivers a frame to one peer. Sends to unreachable peers
	// are silently dropped, like UDP into a dead link.
	Send(to proc.ID, data []byte) error
	// Frames returns the incoming frame stream.
	Frames() <-chan Frame
	// Reachability returns the failure-detector stream. It carries
	// the latest reachable set; intermediate values may be skipped.
	Reachability() <-chan proc.Set
	// Close releases the transport's resources.
	Close() error
}

// memChanDepth bounds per-node inbox buffering. Overflow drops frames
// (with a counter) rather than deadlocking two nodes sending to each
// other; the algorithms tolerate loss by design.
const memChanDepth = 4096

// MemNetwork is an in-process network of MemTransports with
// injectable partitions — the live analogue of the simulator's
// netsim.Topology, with a perfect failure detector.
type MemNetwork struct {
	mu      sync.Mutex
	nodes   map[proc.ID]*MemTransport
	reach   map[proc.ID]proc.Set
	dropped int
}

// NewMemNetwork creates a fully connected network over processes
// 0..n-1.
func NewMemNetwork(n int) *MemNetwork {
	mn := &MemNetwork{
		nodes: make(map[proc.ID]*MemTransport, n),
		reach: make(map[proc.ID]proc.Set, n),
	}
	all := proc.Universe(n)
	for i := 0; i < n; i++ {
		id := proc.ID(i)
		mn.nodes[id] = &MemTransport{
			id:     id,
			net:    mn,
			frames: make(chan Frame, memChanDepth),
			fd:     make(chan proc.Set, 1),
		}
		mn.reach[id] = all
	}
	return mn
}

// Transport returns process id's endpoint.
func (mn *MemNetwork) Transport(id proc.ID) *MemTransport {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	return mn.nodes[id]
}

// SetComponents installs a new connectivity state: the given sets must
// partition the process space. Every node whose reachable set changed
// gets a failure-detector notification.
func (mn *MemNetwork) SetComponents(comps ...proc.Set) error {
	mn.mu.Lock()
	defer mn.mu.Unlock()

	newReach := make(map[proc.ID]proc.Set, len(mn.nodes))
	for _, c := range comps {
		c := c
		c.ForEach(func(id proc.ID) { newReach[id] = c })
	}
	if len(newReach) != len(mn.nodes) {
		return fmt.Errorf("gcs: components cover %d of %d processes", len(newReach), len(mn.nodes))
	}

	for id, c := range newReach {
		if mn.reach[id].Equal(c) {
			continue
		}
		mn.reach[id] = c
		publishLatest(mn.nodes[id].fd, c)
	}
	return nil
}

// Dropped reports frames lost to inbox overflow, for tests.
func (mn *MemNetwork) Dropped() int {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	return mn.dropped
}

func (mn *MemNetwork) send(from, to proc.ID, data []byte) {
	mn.mu.Lock()
	reachable := mn.reach[from].Contains(to)
	dst := mn.nodes[to]
	mn.mu.Unlock()
	if !reachable || dst == nil {
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	select {
	case dst.frames <- Frame{From: from, Data: buf}:
	default:
		mn.mu.Lock()
		mn.dropped++
		mn.mu.Unlock()
	}
}

// MemTransport is one node's endpoint on a MemNetwork.
type MemTransport struct {
	id     proc.ID
	net    *MemNetwork
	frames chan Frame
	fd     chan proc.Set
}

var _ Transport = (*MemTransport)(nil)

// Send implements Transport.
func (t *MemTransport) Send(to proc.ID, data []byte) error {
	t.net.send(t.id, to, data)
	return nil
}

// Frames implements Transport.
func (t *MemTransport) Frames() <-chan Frame { return t.frames }

// Reachability implements Transport.
func (t *MemTransport) Reachability() <-chan proc.Set { return t.fd }

// Close implements Transport. The network keeps routing to other
// nodes; this endpoint simply stops being readable.
func (t *MemTransport) Close() error { return nil }

// publishLatest puts reach on a capacity-1 failure-detector channel,
// replacing any unread previous value (latest-wins semantics).
func publishLatest(fd chan proc.Set, reach proc.Set) {
	for {
		select {
		case fd <- reach:
			return
		default:
			select {
			case <-fd: // discard the stale unread value
			default:
			}
		}
	}
}
