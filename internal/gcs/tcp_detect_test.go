package gcs

// White-box tests for evidence-driven recovery detection. Every
// transport here beats once an hour, so whatever these tests observe
// was caused by a frame, never by a tick.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dynvote/internal/metrics"
	"dynvote/internal/proc"
)

// quietTransport returns a transport that never ticks and knows no
// peers.
func quietTransport(t *testing.T, id proc.ID) *TCPTransport {
	t.Helper()
	if testing.Short() {
		t.Skip("TCP test")
	}
	tr, err := NewTCPTransport(TCPConfig{
		ID: id, OwnAddr: "127.0.0.1:0", HeartbeatEvery: time.Hour,
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// quietPair returns two such transports, 0 and 1, that know each
// other's address.
func quietPair(t *testing.T) (a, b *TCPTransport) {
	t.Helper()
	a, b = quietTransport(t, 0), quietTransport(t, 1)
	a.SetPeers(map[proc.ID]string{1: b.Addr()})
	b.SetPeers(map[proc.ID]string{0: a.Addr()})
	return a, b
}

// awaitReach reads the transport's published reachability until it
// equals want.
func awaitReach(t *testing.T, tr *TCPTransport, want proc.Set) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case got := <-tr.Reachability():
			if got.Equal(want) {
				return
			}
		case <-timeout:
			t.Fatalf("transport %v never published %v (reach %v)", tr.cfg.ID, want, tr.Reach())
		}
	}
}

func awaitFrame(t *testing.T, tr *TCPTransport, want string) {
	t.Helper()
	select {
	case f := <-tr.Frames():
		if string(f.Data) != want {
			t.Fatalf("transport %v got %q, want %q", tr.cfg.ID, f.Data, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("transport %v never got %q", tr.cfg.ID, want)
	}
}

// TestTCPFirstFrameEstablishesReachability: one frame from a to b is
// enough for both to publish {a,b} — b because it heard a, a because
// b's kicked beat echoed a heartbeat back — and the exchange then
// stops: frames from a peer inside the reachable set kick nothing.
func TestTCPFirstFrameEstablishesReachability(t *testing.T) {
	a, b := quietPair(t)
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	both := proc.NewSet(0, 1)
	awaitReach(t, b, both)
	awaitReach(t, a, both)
	awaitFrame(t, b, "x")

	// More traffic both ways is only that traffic.
	const burst = 100
	for i := 0; i < burst; i++ {
		_ = a.Send(1, []byte("y"))
		_ = b.Send(0, []byte("z"))
	}
	for i := 0; i < burst; i++ {
		awaitFrame(t, b, "y")
		awaitFrame(t, a, "z")
	}
	out := func() int64 { return a.m.framesOut.Value() + b.m.framesOut.Value() }
	waitFor(t, "the bursts to be counted", func() bool { return out() >= 2*burst+3 })
	settled := out()
	// x, b's echo, a's echo of the echo; a second kick can slip in
	// while a first beat is between its heartbeats and its refresh.
	if extra := settled - 2*burst; extra > 6 {
		t.Errorf("%d frames beyond the two bursts, want the 3 of one echo exchange", extra)
	}
	time.Sleep(50 * time.Millisecond) // thousands of loopback round trips
	if now := out(); now != settled {
		t.Errorf("frames out grew %d -> %d with nothing sent: the echo does not terminate", settled, now)
	}
}

// TestTCPFrameClearsRedialBackoff: a writer sitting out a redial
// back-off dials again as soon as a frame from that peer arrives, and
// the echo it was woken for is not dropped as unreachable.
func TestTCPFrameClearsRedialBackoff(t *testing.T) {
	a, b := quietPair(t)
	var (
		mu    sync.Mutex
		down  = true
		dials int
	)
	setDialFn(a, func(network, addr string, timeout time.Duration) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		dials++
		if down {
			return nil, errors.New("peer down")
		}
		return net.DialTimeout(network, addr, timeout)
	})
	dialed := func() int {
		mu.Lock()
		defer mu.Unlock()
		return dials
	}

	// Six refused dials take the back-off to redialMax.
	const refused = 6
	waitFor(t, "the writer to back off fully", func() bool {
		_ = a.Send(1, []byte("lost"))
		return dialed() >= refused
	})
	mu.Lock()
	down = false
	atFull := dials
	mu.Unlock()
	a.mu.Lock()
	queue := a.conns[1].queue
	a.mu.Unlock()
	waitFor(t, "the refused sends to be counted", func() bool { return len(queue) == 0 })
	time.Sleep(5 * time.Millisecond) // let the writer finish counting the batch it holds
	dropsBefore := a.m.deadDrops.Value()

	// b is up and says so. Nothing else will ever make a's writer
	// dial: no tick, no Send. If the back-off stood, the kicked echo
	// would be dropped and this would time out.
	if err := b.Send(0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	awaitFrame(t, a, "hello")
	waitFor(t, "a redial on evidence", func() bool { return dialed() > atFull })
	awaitReach(t, b, proc.NewSet(0, 1))
	if got := a.m.deadDrops.Value(); got != dropsBefore {
		t.Errorf("unreachable drops %d -> %d: the echo was dropped behind the back-off", dropsBefore, got)
	}
}

// TestTCPBlockedPeerNeitherKicksNorReaches: a frame from a blocked
// peer is not evidence of anything.
func TestTCPBlockedPeerNeitherKicksNorReaches(t *testing.T) {
	a, b := quietPair(t)
	b.Block(0)
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b to read the frame", func() bool { return b.m.framesIn.Value() == 1 })
	time.Sleep(20 * time.Millisecond) // room for a beat that must not come
	select {
	case r := <-b.Reachability():
		t.Errorf("b published %v on a frame from a blocked peer", r)
	default:
	}
	if r := b.Reach(); r.Contains(0) {
		t.Errorf("blocked peer in reach %v", r)
	}
	if n := b.m.framesOut.Value(); n != 0 {
		t.Errorf("b sent %d frames: a blocked peer's frame kicked a beat", n)
	}
	select {
	case f := <-b.Frames():
		t.Errorf("frame %q from a blocked peer delivered", f.Data)
	default:
	}
}

// TestTCPBlockAppliesToQuietLink: the reader parks on a quiet link
// between drains; a Block that lands while it is parked must cover
// the next frame, not the one after.
func TestTCPBlockAppliesToQuietLink(t *testing.T) {
	b := quietTransport(t, 1)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawWireFrame(0, []byte("before"))); err != nil {
		t.Fatal(err)
	}
	awaitFrame(t, b, "before")
	// The counters are flushed just before the reader parks.
	waitFor(t, "b's reader to finish the drain", func() bool { return b.m.framesIn.Value() == 1 })
	time.Sleep(5 * time.Millisecond)

	b.Block(0)
	if _, err := conn.Write(rawWireFrame(0, []byte("after"))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "b to read the second frame", func() bool { return b.m.framesIn.Value() == 2 })
	select {
	case f := <-b.Frames():
		t.Errorf("frame %q delivered from a peer blocked before it was sent", f.Data)
	default:
	}
}
