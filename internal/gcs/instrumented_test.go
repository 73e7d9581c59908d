package gcs_test

import (
	"strings"
	"testing"
	"time"

	"dynvote/internal/gcs"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/ykd"
)

// startInstrumentedCluster wraps every MemTransport endpoint in an
// InstrumentedTransport and runs a node on each.
func startInstrumentedCluster(t *testing.T, n int, reg *metrics.Registry, fp gcs.FaultProfile, tl *gcs.Timeline) (*gcs.MemNetwork, []*gcs.Node, []*gcs.InstrumentedTransport) {
	t.Helper()
	net := gcs.NewMemNetwork(n)
	wrapped := make([]*gcs.InstrumentedTransport, n)
	nodes := make([]*gcs.Node, n)
	for i := 0; i < n; i++ {
		id := proc.ID(i)
		wrapped[i] = gcs.InstrumentTransport(net.Transport(id), id, reg, fp)
		node, err := gcs.NewNode(gcs.Config{
			ID: id, N: n,
			Transport: wrapped[i],
			Algorithm: ykd.Factory(ykd.VariantYKD),
			OnEvent:   tl.Hook(id),
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Run()
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	})
	return net, nodes, wrapped
}

func TestInstrumentedTransportCountsTraffic(t *testing.T) {
	reg := metrics.NewRegistry()
	net, nodes, wrapped := startInstrumentedCluster(t, 3, reg, gcs.FaultProfile{}, nil)
	eventually(t, "cluster converges", primaries(nodes, map[int]bool{0: true, 1: true, 2: true}))

	if err := nodes[0].Broadcast([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "peer counters populate", func() bool {
		s, ok := wrapped[0].PeerStats(1)
		return ok && s.MsgsOut > 0 && s.BytesOut > 0
	})
	eventually(t, "receive side counted", func() bool {
		s, ok := wrapped[1].PeerStats(0)
		return ok && s.MsgsIn > 0 && s.BytesIn > 0
	})

	s, _ := wrapped[0].PeerStats(1)
	if s.Send.Count == 0 || s.Send.Max < s.Send.Min || s.Send.Total < s.Send.Max {
		t.Errorf("send latency stats inconsistent: %+v", s.Send)
	}
	if s.Send.Mean() < s.Send.Min || s.Send.Mean() > s.Send.Max {
		t.Errorf("send mean %v outside [min %v, max %v]", s.Send.Mean(), s.Send.Min, s.Send.Max)
	}

	// Registry export carries the per-peer series.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gcs_peer_p1_msgs_out_total",
		"gcs_peer_p1_bytes_out_total",
		"gcs_peer_p0_msgs_in_total",
		"gcs_peer_p1_send_seconds_bucket",
		"gcs_peer_p1_send_seconds_quantile",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus export missing %s", want)
		}
	}

	// Peers() is sorted and covers both directions.
	peers := wrapped[0].Peers()
	for i := 1; i < len(peers); i++ {
		if peers[i].Peer <= peers[i-1].Peer {
			t.Errorf("Peers() not sorted: %v", peers)
		}
	}
	_ = net
}

// TestInstrumentedDropAll: DropRate 1 on one endpoint severs it as
// thoroughly as a partition — and every discard is counted.
func TestInstrumentedDropAll(t *testing.T) {
	net := gcs.NewMemNetwork(3)
	// Node 2's outgoing traffic is entirely dropped; its heartbeat-free
	// MemNetwork reachability still includes it, but its algorithm
	// traffic never arrives.
	tr2 := gcs.InstrumentTransport(net.Transport(2), 2, nil, gcs.FaultProfile{DropRate: 1, Seed: 7})
	defer tr2.Close()
	for i := 0; i < 20; i++ {
		if err := tr2.Send(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s, ok := tr2.PeerStats(0)
	if !ok || s.Dropped != 20 || s.MsgsOut != 0 {
		t.Errorf("drop accounting: %+v (ok=%v)", s, ok)
	}
}

// TestInstrumentedInjectedLatency: injected latency delays delivery but
// preserves per-peer order, and the cluster still converges.
func TestInstrumentedInjectedLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	fp := gcs.FaultProfile{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Seed: 42}
	_, nodes, wrapped := startInstrumentedCluster(t, 3, reg, fp, nil)
	eventually(t, "cluster converges despite injected latency",
		primaries(nodes, map[int]bool{0: true, 1: true, 2: true}))
	if err := nodes[0].Broadcast([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	eventually(t, "delayed frames still flow", func() bool {
		s, ok := wrapped[0].PeerStats(1)
		return ok && s.MsgsOut > 0
	})
}

func TestTimelineRecordsFailover(t *testing.T) {
	tl := gcs.NewTimeline()
	net, nodes, _ := startInstrumentedCluster(t, 5, nil, gcs.FaultProfile{}, tl)
	eventually(t, "cluster converges", primaries(nodes,
		map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}))

	injectedAt := time.Now()
	if err := net.SetComponents(proc.NewSet(0, 1, 2), proc.NewSet(3, 4)); err != nil {
		t.Fatal(err)
	}
	eventually(t, "majority re-forms", primaries(nodes,
		map[int]bool{0: true, 1: true, 2: true, 3: false, 4: false}))

	lost, regained, ok := tl.Recovery(injectedAt)
	if !ok {
		t.Fatalf("no recovery measured; timeline:\n%s", tl)
	}
	if lost < 0 || regained < lost {
		t.Errorf("recovery ordering wrong: lost=%v regained=%v", lost, regained)
	}
	if tl.CountKind(gcs.EventViewProposed) == 0 {
		t.Error("no view proposals recorded")
	}
	if tl.CountKind(gcs.EventView) == 0 {
		t.Error("no view installs recorded")
	}
	if s := tl.String(); !strings.Contains(s, "proposes view") || !strings.Contains(s, "regains primary") {
		t.Errorf("timeline rendering incomplete:\n%s", s)
	}
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *gcs.Timeline
	tl.Record(0, gcs.Event{Kind: gcs.EventPrimary})
	if tl.Len() != 0 || tl.Events() != nil || tl.CountKind(gcs.EventPrimary) != 0 {
		t.Error("nil timeline should no-op")
	}
	if _, _, ok := tl.Recovery(time.Now()); ok {
		t.Error("nil timeline measured a recovery")
	}
	if _, ok := tl.Rejoin(0, time.Now()); ok {
		t.Error("nil timeline measured a rejoin")
	}
	hook := tl.Hook(3)
	hook(gcs.Event{Kind: gcs.EventView}) // must not panic
}

// TestTimelineRecoverySemantics: recovery is first-loss to first-regain
// strictly after the injection point.
func TestTimelineRecoverySemantics(t *testing.T) {
	tl := gcs.NewTimeline()
	// A pre-injection primary flap must not count.
	tl.Record(0, gcs.Event{Kind: gcs.EventPrimary, Primary: false})
	tl.Record(0, gcs.Event{Kind: gcs.EventPrimary, Primary: true})
	injected := time.Now()
	if _, _, ok := tl.Recovery(injected); ok {
		t.Fatal("recovery measured from pre-injection events")
	}
	time.Sleep(time.Millisecond)
	tl.Record(1, gcs.Event{Kind: gcs.EventPrimary, Primary: false})
	if _, _, ok := tl.Recovery(injected); ok {
		t.Fatal("recovery measured before any node regained")
	}
	time.Sleep(time.Millisecond)
	tl.Record(1, gcs.Event{Kind: gcs.EventPrimary, Primary: true})
	lost, regained, ok := tl.Recovery(injected)
	if !ok || lost <= 0 || regained <= lost {
		t.Errorf("recovery = (%v, %v, %v)", lost, regained, ok)
	}
}
