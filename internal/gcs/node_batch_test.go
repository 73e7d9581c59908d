package gcs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/ykd"
)

// TestNodeBundlesQueuedBroadcasts holds node 0's loop while ten
// Broadcasts queue up behind it: the loop's next wake must send all ten
// as one bundle, which every member applies in Broadcast order.
func TestNodeBundlesQueuedBroadcasts(t *testing.T) {
	payloads := make([][]byte, 10)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("write-%d", i))
	}
	checkQueuedBundles(t, payloads, 1)
}

// TestNodeBundleStopsAtFlushBufCap queues two payloads that together
// exceed flushBufCap: they must leave in two bundles.
func TestNodeBundleStopsAtFlushBufCap(t *testing.T) {
	size := flushBufCap/2 + 1
	checkQueuedBundles(t, [][]byte{bytes.Repeat([]byte{'a'}, size), bytes.Repeat([]byte{'b'}, size)}, 2)
}

// checkQueuedBundles runs a 3-node MemNetwork cluster, each node with
// its own registry. The initial view is a 3-member primary and no node
// speaks until it is told something, so the cluster starts quiet. Node
// 0 broadcasts a marker; its own delivery of the marker holds its loop
// on a gate while payloads are broadcast, and then the gate opens.
// Every member must apply the marker and then payloads in order, each
// peer must deliver exactly wantBundles bundles after the marker's, and
// node 0 must send wantBundles frames per peer.
func checkQueuedBundles(t *testing.T, payloads [][]byte, wantBundles int) {
	const n = 3
	marker := []byte("marker")
	held := make(chan struct{})
	gate := make(chan struct{})
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }

	net := NewMemNetwork(n)
	regs := make([]*metrics.Registry, n)
	apps := make([]chan []byte, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		id := proc.ID(i)
		regs[i] = metrics.NewRegistry()
		apps[i] = make(chan []byte, len(payloads)+1)
		node, err := NewNode(Config{
			ID:        id,
			N:         n,
			Transport: net.Transport(id),
			Algorithm: ykd.Factory(ykd.VariantYKD),
			Metrics:   regs[i],
			OnEvent: func(ev Event) {
				if ev.Kind != EventApp {
					return
				}
				apps[id] <- ev.Payload
				if id == 0 && bytes.Equal(ev.Payload, marker) {
					close(held)
					<-gate
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	stopAll := func() {
		release()
		for _, node := range nodes {
			node.Stop()
		}
	}
	for _, node := range nodes {
		node.Run()
	}
	defer stopAll()
	for i, node := range nodes {
		if !node.InPrimary() || !node.CurrentView().Members.Equal(proc.Universe(n)) {
			t.Fatalf("node %d starts outside the 3-member primary view", i)
		}
	}

	sent := regs[0].Counter("gcs_broadcasts_sent_total", "")
	if err := nodes[0].Broadcast(marker); err != nil {
		t.Fatal(err)
	}
	<-held
	sentBefore := sent.Value()
	for _, p := range payloads {
		if err := nodes[0].Broadcast(p); err != nil {
			t.Fatal(err)
		}
	}
	release()

	want := append([][]byte{marker}, payloads...)
	for i := range nodes {
		for j, w := range want {
			select {
			case got := <-apps[i]:
				if !bytes.Equal(got, w) {
					t.Fatalf("node %d applied %.16q as payload %d, want %.16q", i, got, j, w)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("node %d applied %d of %d payloads", i, j, len(want))
			}
		}
	}
	// Stopping the loops orders their last counter updates before the
	// reads below.
	stopAll()

	if got := sent.Value() - sentBefore; got != int64(wantBundles*(n-1)) {
		t.Errorf("gcs_broadcasts_sent_total rose by %d for the payloads, want %d", got, wantBundles*(n-1))
	}
	for i := 1; i < n; i++ {
		// The marker's bundle is the first one each peer delivers.
		got := regs[i].Counter("gcs_bundles_delivered_total", "").Value() - 1
		if got != int64(wantBundles) {
			t.Errorf("node %d delivered %d bundles after the marker, want %d", i, got, wantBundles)
		}
	}
}
