package gcs

// White-box tests for the coalesced TCP wire path: they reach the
// dialFn test hook, the buffer pool and the queue constants, so they
// live inside the package rather than in gcs_test.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"dynvote/internal/metrics"
	"dynvote/internal/proc"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// setDialFn installs a dial hook. Safe only while the transport has no
// registered peers (no writer goroutine exists yet to race with).
func setDialFn(t *TCPTransport, fn func(network, addr string, timeout time.Duration) (net.Conn, error)) {
	t.mu.Lock()
	t.dialFn = fn
	t.mu.Unlock()
}

// TestHeartbeatSurvivesDeadPeer is the head-of-line regression test:
// one unreachable peer whose dials burn the full dial timeout must not
// starve the heartbeats of healthy peers. The pre-coalescing transport
// dialed dead peers serially on the heartbeat goroutine, so a single
// dead peer (200ms per tick against a 20ms period) made live peers
// flap dead too.
func TestHeartbeatSurvivesDeadPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test")
	}
	a, err := NewTCPTransport(TCPConfig{
		ID: 0, OwnAddr: "127.0.0.1:0",
		HeartbeatEvery: 20 * time.Millisecond,
		FailAfter:      150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport(TCPConfig{
		ID: 1, OwnAddr: "127.0.0.1:0",
		HeartbeatEvery: 20 * time.Millisecond,
		FailAfter:      150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Peer 2 is dead: every dial to it hangs for the full timeout and
	// fails, the worst case for head-of-line blocking.
	const deadAddr = "192.0.2.1:9"
	setDialFn(a, func(network, addr string, timeout time.Duration) (net.Conn, error) {
		if addr == deadAddr {
			time.Sleep(timeout)
			return nil, errors.New("peer down")
		}
		return net.DialTimeout(network, addr, timeout)
	})
	a.SetPeers(map[proc.ID]string{1: b.Addr(), 2: deadAddr})
	b.SetPeers(map[proc.ID]string{0: a.Addr()})

	waitFor(t, "b hears a's heartbeats", func() bool { return b.Reach().Contains(0) })
	waitFor(t, "a hears b's heartbeats", func() bool { return a.Reach().Contains(1) })

	// The dead peer keeps eating dial timeouts the whole while; the live
	// link must never flap.
	until := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(until) {
		if !b.Reach().Contains(0) {
			t.Fatal("live peer 0 flapped dead while peer 2 was unreachable")
		}
		if !a.Reach().Contains(1) {
			t.Fatal("live peer 1 flapped dead while peer 2 was unreachable")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if a.Reach().Contains(2) {
		t.Error("dead peer 2 reported reachable")
	}
}

// TestTCPSendSteadyStateAllocs pins the steady-state allocation cost of
// the live wire path end to end: Send's pooled copy, the writer's
// reused flush buffer, and the receiver's arena carving together must
// average well under one heap allocation per frame once warm.
func TestTCPSendSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test")
	}
	a, err := NewTCPTransport(TCPConfig{
		ID: 0, OwnAddr: "127.0.0.1:0", HeartbeatEvery: time.Hour,
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPTransport(TCPConfig{
		ID: 1, OwnAddr: "127.0.0.1:0", HeartbeatEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeers(map[proc.ID]string{1: b.Addr()})

	payload := bytes.Repeat([]byte{0xab}, 64)
	// Warm up: dial the connection, grow the writer's flush buffer, and
	// confirm frames flow.
	for i := 0; i < 200; i++ {
		_ = a.Send(1, payload)
	}
	waitFor(t, "warmup frames delivered", func() bool {
		return a.m.framesOut.Value() >= 200
	})
	// Top up the buffer pool so the measurement never depends on how
	// quickly the writer goroutine recycles.
	for len(a.bufPool) < 256 {
		a.bufPool <- make([]byte, 0, 256)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = a.Send(1, payload)
	})
	if allocs >= 1 {
		t.Errorf("steady-state Send averaged %.2f allocs, want < 1", allocs)
	}
}

// TestTCPDropCountersExported drives both overflow paths — a send
// queue backed up behind a hung dial, and an inbound frames channel
// nobody drains — and checks the drops land in Prometheus-visible
// counters instead of vanishing.
func TestTCPDropCountersExported(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP test")
	}
	reg := metrics.NewRegistry()

	// Outbound: the writer's one coalesced batch is bounded by
	// flushBufCap, then it hangs forever in dial; everything past the
	// batch plus the queue depth must be dropped and counted.
	a, err := NewTCPTransport(TCPConfig{
		ID: 0, OwnAddr: "127.0.0.1:0", HeartbeatEvery: time.Hour, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	setDialFn(a, func(network, addr string, timeout time.Duration) (net.Conn, error) {
		<-a.stop
		return nil, errors.New("peer down")
	})
	a.SetPeers(map[proc.ID]string{1: "192.0.2.1:9"})
	body := make([]byte, 1024)
	total := flushBufCap/len(body) + sendQueueDepth + 128
	for i := 0; i < total; i++ {
		_ = a.Send(1, body)
	}
	if got := a.m.sendqDrops.Value(); got == 0 {
		t.Error("send-queue overflow produced no sendq drops")
	}

	// Inbound: flood past the frames channel depth without draining.
	b, err := NewTCPTransport(TCPConfig{
		ID: 1, OwnAddr: "127.0.0.1:0", HeartbeatEvery: time.Hour, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := rawWireFrame(2, []byte("overflow me"))
	var burst []byte
	for i := 0; i < memChanDepth+256; i++ {
		burst = append(burst, frame...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "inbox overflow counted", func() bool {
		return b.m.inboxDrops.Value() > 0
	})

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"gcs_tcp_sendq_drops_total",
		"gcs_tcp_inbox_drops_total",
		"gcs_tcp_unreachable_drops_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metric %s missing from Prometheus exposition", name)
		}
	}
}

// rawWireFrame encodes one frame in the transport framing.
func rawWireFrame(from proc.ID, body []byte) []byte {
	return appendWireFrame(nil, from, body)
}

// BenchmarkTCPRoundTrip measures one full wire round trip: Send →
// writer coalesce → syscall → buffered read → arena → frames channel,
// and the same back again.
func BenchmarkTCPRoundTrip(b *testing.B) {
	ta, err := NewTCPTransport(TCPConfig{
		ID: 0, OwnAddr: "127.0.0.1:0", HeartbeatEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ta.Close()
	tb, err := NewTCPTransport(TCPConfig{
		ID: 1, OwnAddr: "127.0.0.1:0", HeartbeatEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	ta.SetPeers(map[proc.ID]string{1: tb.Addr()})
	tb.SetPeers(map[proc.ID]string{0: ta.Addr()})

	payload := bytes.Repeat([]byte{0x5a}, 64)
	roundTrip := func() error {
		_ = ta.Send(1, payload)
		select {
		case <-tb.Frames():
		case <-time.After(5 * time.Second):
			return fmt.Errorf("a→b frame lost")
		}
		_ = tb.Send(0, payload)
		select {
		case <-ta.Frames():
		case <-time.After(5 * time.Second):
			return fmt.Errorf("b→a frame lost")
		}
		return nil
	}
	// Warm up both directions: dials and flush-buffer growth happen
	// here, not on the clock.
	if err := roundTrip(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := roundTrip(); err != nil {
			b.Fatal(err)
		}
	}
	// The deferred Closes allocate too, and how much of that lands
	// before the benchmark returns depends on when the closed
	// connections' readers exit: keep them off the clock.
	b.StopTimer()
}
