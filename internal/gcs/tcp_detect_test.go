package gcs

// The failure detector on real sockets: what the readers, writers and
// the loop add to the machine that detector_test.go runs in virtual
// time. The quiet transports beat once an hour and so never probe
// either: whatever the tests built on them observe was caused by a
// frame, never by a tick. The probe and pause tests further down pick
// their own period.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/ykd"
)

// beatingTransport returns a transport with the given heartbeat period
// that knows no peers.
func beatingTransport(t *testing.T, id proc.ID, every time.Duration) *TCPTransport {
	t.Helper()
	if testing.Short() {
		t.Skip("TCP test")
	}
	tr, err := NewTCPTransport(TCPConfig{
		ID: id, OwnAddr: "127.0.0.1:0", HeartbeatEvery: every,
		Metrics: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// quietTransport returns a transport that never ticks and knows no
// peers.
func quietTransport(t *testing.T, id proc.ID) *TCPTransport {
	t.Helper()
	return beatingTransport(t, id, time.Hour)
}

// beatingPair returns two transports, 0 and 1, with the given heartbeat
// period that know each other's address.
func beatingPair(t *testing.T, every time.Duration) (a, b *TCPTransport) {
	t.Helper()
	a, b = beatingTransport(t, 0, every), beatingTransport(t, 1, every)
	a.SetPeers(map[proc.ID]string{1: b.Addr()})
	b.SetPeers(map[proc.ID]string{0: a.Addr()})
	return a, b
}

// quietPair returns such a pair that never ticks.
func quietPair(t *testing.T) (a, b *TCPTransport) {
	t.Helper()
	return beatingPair(t, time.Hour)
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

// TestTCPUnknownSenderNotReachable: a frame from an id that is no
// configured peer is delivered, and is evidence of nothing: it is not
// stamped, kicks no beat, and its id never enters the published set.
func TestTCPUnknownSenderNotReachable(t *testing.T) {
	_, b := quietPair(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// All in one write, so one drain: a detector that stamped 7 would
	// publish it beside 0 at the beat that 0's frame kicks.
	frames := append(rawWireFrame(7, nil), rawWireFrame(7, []byte("stranger"))...)
	if _, err := conn.Write(append(frames, rawWireFrame(0, []byte("peer"))...)); err != nil {
		t.Fatal(err)
	}
	awaitFrame(t, b, "stranger")
	awaitFrame(t, b, "peer")
	select {
	case r := <-b.Reachability():
		if want := proc.NewSet(0, 1); !r.Equal(want) {
			t.Errorf("b published %v, want %v", r, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never published the configured peer that spoke")
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
	nothingPublished(t, b, "on a frame from a blocked peer")
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

// nothingPublished fails if the transport has a reachability reading
// waiting to be consumed.
func nothingPublished(t *testing.T, tr *TCPTransport, when string) {
	t.Helper()
	select {
	case r := <-tr.Reachability():
		t.Errorf("transport %v published %v %s", tr.cfg.ID, r, when)
	default:
	}
}

// TestTCPProbeFindsHealWithinTick: with a tick a second apart, a healed
// link is found by a probe, an eighth of a tick apart.
func TestTCPProbeFindsHealWithinTick(t *testing.T) {
	const every = time.Second
	const probeEvery = every / probesPerBeat
	opened := time.Now()
	a, b := beatingPair(t, every)
	alone := func(tr *TCPTransport) proc.Set { return proc.NewSet(tr.cfg.ID) }
	both := proc.NewSet(0, 1)

	// Nobody has ticked yet: the first probe does the set-up as well.
	awaitReach(t, a, both)
	awaitReach(t, b, both)
	if up := time.Since(opened); up > every/2 {
		t.Errorf("set-up took %v: no probe went out before the first tick", up)
	}

	a.Block(1)
	b.Block(0)
	awaitReach(t, a, alone(a)) // each at its own next tick
	awaitReach(t, b, alone(b))
	lost := time.Now()

	a.Block()
	b.Block()
	healed := time.Now()
	awaitReach(t, a, both)
	awaitReach(t, b, both)
	took := time.Since(healed)
	// One probe period to the next probe plus a round trip; the bound
	// leaves room for a loaded race-detector run and still ends well
	// before either side's next tick could have done the work.
	if took > 3*probeEvery {
		t.Errorf("heal found after %v, want within %v (probe period %v)", took, 3*probeEvery, probeEvery)
	}
	if sinceLoss := time.Since(lost); sinceLoss >= every {
		t.Fatalf("test ran %v past the loss: a tick may have found the heal", sinceLoss)
	}
}

// TestTCPProbeRespectsBlock: a probe to a blocked peer is not sent, and
// one from a blocked peer is read and dropped without a stamp, a kick
// or an echo.
func TestTCPProbeRespectsBlock(t *testing.T) {
	const every = time.Second
	opened := time.Now()
	a, b := beatingTransport(t, 0, every), beatingTransport(t, 1, every)
	a.Block(1)
	a.SetPeers(map[proc.ID]string{1: b.Addr()})
	b.SetPeers(map[proc.ID]string{0: a.Addr()})
	// b suspects a and probes it; a suspects b and may not.
	waitFor(t, "two of b's probes to arrive", func() bool { return a.m.framesIn.Value() >= 2 })
	// The first tick publishes whatever it finds; what is asserted below
	// is about the time before it.
	if left := every - time.Since(opened); left < every/probesPerBeat {
		t.Skipf("two probes took %v: too close to the first tick to tell", every-left)
	}
	if n := a.m.framesOut.Value(); n != 0 {
		t.Errorf("a sent %d frames to a peer it blocks", n)
	}
	if n := b.m.framesIn.Value(); n != 0 {
		t.Errorf("b received %d frames from a peer that blocks it", n)
	}
	nothingPublished(t, a, "on probes from a blocked peer")
	nothingPublished(t, b, "with no answer to its probes")
	if r := a.Reach(); r.Contains(1) {
		t.Errorf("blocked peer in reach %v", r)
	}
}

// TestTCPLocalPauseConvictsNobody: a detector that could not look for
// 2×FailAfter, here because its lock was held, does not read its own
// absence as its peer's silence. The peer, which kept running, does
// convict the stalled process; and a peer that then really dies is
// still convicted.
func TestTCPLocalPauseConvictsNobody(t *testing.T) {
	const every = 20 * time.Millisecond
	a, b := beatingPair(t, every)
	both := proc.NewSet(0, 1)
	awaitReach(t, a, both)
	awaitReach(t, b, both)

	// After a stall the detector races the readers for the lock, and a
	// detector that charges its peers for the stall is only caught when
	// it wins; five stalls make a lucky pass unlikely.
	for round := 0; round < 5; round++ {
		// The stall lasts 2×FailAfter and until b, which kept running,
		// has convicted a: on a loaded box b may have been starved for
		// part of it and rightly not count that part either.
		func() {
			a.mu.Lock()
			defer a.mu.Unlock() // also when awaitReach gives up
			stalled := time.Now()
			awaitReach(t, b, proc.NewSet(1))
			time.Sleep(2*a.cfg.FailAfter - time.Since(stalled))
		}()

		awaitReach(t, b, both) // b hears a again
		time.Sleep(3 * every)  // looks a had every chance to get wrong
		nothingPublished(t, a, "after its own stall")
		if r := a.Reach(); !r.Equal(both) {
			t.Fatalf("a reaches %v after its own stall, want %v", r, both)
		}
	}

	_ = b.Close()
	awaitReach(t, a, proc.NewSet(0))
}

// TestTCPPausedLeaderRejoinsItsCluster: the membership step runs only
// on a published reachability change and the smallest reachable id
// leads. When that id alone stalls for 2×FailAfter the others convict
// it and move to a view without it; resumed, it keeps its reachable
// set and publishes nothing, so the others, who gain a smaller peer
// and wait for it to lead, have to tell it: it saw no change.
func TestTCPPausedLeaderRejoinsItsCluster(t *testing.T) {
	const (
		n     = 3
		every = 20 * time.Millisecond
	)
	trs := make([]*TCPTransport, n)
	addrs := make(map[proc.ID]string, n)
	for i := range trs {
		trs[i] = beatingTransport(t, proc.ID(i), every)
		addrs[proc.ID(i)] = trs[i].Addr()
	}
	nodes := make([]*Node, n)
	for i, tr := range trs {
		tr.SetPeers(addrs)
		node, err := NewNode(Config{
			ID: proc.ID(i), N: n, Transport: tr,
			Algorithm: ykd.Factory(ykd.VariantYKD),
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Run()
		t.Cleanup(node.Stop)
		nodes[i] = node
	}
	together := func() bool {
		v := nodes[0].CurrentView()
		for _, nd := range nodes {
			if got := nd.CurrentView(); got.ID != v.ID || got.Size() != n || !nd.InPrimary() {
				return false
			}
		}
		return true
	}
	waitFor(t, "the cluster to form", together)

	for round := 0; round < 3; round++ {
		func() {
			trs[0].mu.Lock()
			defer trs[0].mu.Unlock()
			stalled := time.Now()
			waitFor(t, "1 and 2 to go on without 0", func() bool {
				rest := proc.NewSet(1, 2)
				return nodes[1].CurrentView().Members.Equal(rest) && nodes[2].CurrentView().Members.Equal(rest)
			})
			time.Sleep(2*trs[0].cfg.FailAfter - time.Since(stalled))
		}()
		waitFor(t, "all three to share one view again", together)
	}
}
