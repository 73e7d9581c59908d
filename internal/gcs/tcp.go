package gcs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dynvote/internal/metrics"
	"dynvote/internal/proc"
)

// TCPConfig assembles a TCPTransport.
type TCPConfig struct {
	// ID is this process's identity.
	ID proc.ID
	// OwnAddr is this process's listen address (e.g. "127.0.0.1:0").
	// If empty, Addrs[ID] is used.
	OwnAddr string
	// Addrs maps peers to their listen addresses. More peers can be
	// registered later with SetPeers — useful when ports are assigned
	// by the operating system.
	Addrs map[proc.ID]string
	// HeartbeatEvery is the heartbeat period (default 50ms).
	HeartbeatEvery time.Duration
	// FailAfter is how long a silent peer stays "reachable" (default
	// 3× HeartbeatEvery).
	FailAfter time.Duration
	// Metrics, when non-nil, receives wire-traffic instrumentation
	// (bytes and frames in/out, dials, dropped frames).
	Metrics *metrics.Registry
}

// TCPTransport implements Transport over a full TCP mesh. Each peer
// gets a dedicated writer goroutine fed by a bounded frame queue:
// Send enqueues and returns, the writer coalesces whatever is queued
// into one write syscall per drain cycle, and dialing (with backoff)
// happens on the writer, never on the caller — a dead peer costs its
// own writer a dial timeout, not the sender or the heartbeat loop.
// The inbound path reads through a buffered reader into grow-only
// arena chunks, so a frame costs no per-frame heap allocation and the
// heartbeat bookkeeping is batched to one mutex acquisition per drain.
// A Block list simulates network partitions for demos and tests
// without touching the operating system.
//
// Every reachability decision is the detector's; heartbeatLoop steps it
// on one timer and one wake channel, which only a reader that heard a
// suspected peer and SetPeers signal — not Send, and deliberately not
// Block: a real network does not announce a heal. A process resumed
// from a pause publishes nothing; Node.onReachability is how a paused
// leader learns it has to lead.
type TCPTransport struct {
	cfg      TCPConfig
	listener net.Listener
	frames   chan Frame
	fd       chan proc.Set
	m        tcpMetrics

	// dialFn dials one peer; tests substitute slow or failing dialers.
	// Set only before peers are registered (writers snapshot it).
	dialFn func(network, addr string, timeout time.Duration) (net.Conn, error)

	mu       sync.Mutex
	peers    map[proc.ID]string
	conns    map[proc.ID]*peerConn
	accepted map[net.Conn]struct{}
	det      *detector
	closed   bool

	// bufPool recycles Send's frame-body copies between the callers
	// and the writer goroutines; a channel free list stays warm under
	// GC pressure, unlike sync.Pool.
	bufPool chan []byte

	wake     chan struct{} // see wakeLoop
	stop     chan struct{}
	done     chan struct{} // heartbeat loop exit
	writerWG sync.WaitGroup
	stopOnce sync.Once
}

var _ Transport = (*TCPTransport)(nil)

// Frame wire format: 4-byte big-endian length, 4-byte sender ID, body.
// A zero-length body is a heartbeat.
const tcpHeader = 8

// Wire-path tuning. sendQueueDepth bounds per-peer outbound buffering:
// overflow drops frames (counted) rather than blocking the sender.
// flushBufCap caps how many bytes one drain cycle coalesces into a
// single write; readBufSize is the inbound bufio window; readChunk is
// the arena granularity for received frame bodies (one allocation
// amortized over ~readChunk bytes of delivered frames).
const (
	sendQueueDepth = 512
	flushBufCap    = 64 << 10
	readBufSize    = 64 << 10
	readChunk      = 64 << 10
	dialTimeout    = 200 * time.Millisecond
	redialMin      = 10 * time.Millisecond
	redialMax      = 300 * time.Millisecond
)

// NewTCPTransport starts listening on cfg.Addrs[cfg.ID] and begins
// heartbeating all peers.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 50 * time.Millisecond
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 3 * cfg.HeartbeatEvery
	}
	addr := cfg.OwnAddr
	if addr == "" {
		addr = cfg.Addrs[cfg.ID]
	}
	if addr == "" {
		return nil, fmt.Errorf("gcs: no listen address for %v", cfg.ID)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gcs: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		cfg:      cfg,
		listener: ln,
		m:        newTCPMetrics(cfg.Metrics),
		dialFn:   net.DialTimeout,
		frames:   make(chan Frame, memChanDepth),
		fd:       make(chan proc.Set, 1),
		peers:    make(map[proc.ID]string, len(cfg.Addrs)),
		conns:    make(map[proc.ID]*peerConn),
		accepted: make(map[net.Conn]struct{}),
		det:      newDetector(cfg.ID, cfg.HeartbeatEvery, cfg.FailAfter, time.Now()),
		bufPool:  make(chan []byte, 1024),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	t.SetPeers(cfg.Addrs)
	go t.acceptLoop()
	go t.heartbeatLoop()
	return t, nil
}

// SetPeers registers (or replaces) peer addresses. Call before the
// cluster is expected to converge.
func (t *TCPTransport) SetPeers(addrs map[proc.ID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, a := range addrs {
		if id != t.cfg.ID {
			t.peers[id] = a
			t.det.peers.Add(id)
		}
	}
	t.wakeLoop() // new peers are suspects, to be probed from now on
}

// Addr returns the transport's bound listen address.
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// grabBuf returns a recycled body buffer (or a fresh one).
func (t *TCPTransport) grabBuf() []byte {
	select {
	case b := <-t.bufPool:
		return b
	default:
		return make([]byte, 0, 256)
	}
}

// releaseBuf returns a body buffer to the pool. nil (heartbeat) is a
// no-op; a full pool lets the buffer fall to the garbage collector.
func (t *TCPTransport) releaseBuf(b []byte) {
	if b == nil {
		return
	}
	select {
	case t.bufPool <- b[:0]:
	default:
	}
}

// Send implements Transport: copy the frame into a pooled buffer and
// enqueue it on the peer's writer. It never blocks and never dials —
// queue overflow and unreachable peers drop the frame (counted), like
// UDP into a dead link.
func (t *TCPTransport) Send(to proc.ID, data []byte) error {
	t.mu.Lock()
	if t.det.blocked.Contains(to) || t.closed {
		t.mu.Unlock()
		return nil
	}
	pc := t.peerConnLocked(to)
	t.mu.Unlock()
	if pc == nil {
		return nil // unknown peer: drop, like a dead link
	}
	var buf []byte
	if len(data) > 0 {
		buf = append(t.grabBuf(), data...)
	}
	select {
	case pc.queue <- buf:
	default:
		t.m.sendqDrops.Inc()
		t.releaseBuf(buf)
	}
	return nil
}

// Frames implements Transport.
func (t *TCPTransport) Frames() <-chan Frame { return t.frames }

// Reachability implements Transport.
func (t *TCPTransport) Reachability() <-chan proc.Set { return t.fd }

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.mu.Lock()
		t.closed = true
		// Force-close every writer's live connection so writers
		// blocked in a write return immediately; the writers
		// themselves exit on t.stop.
		for _, pc := range t.conns {
			pc.closeConn()
		}
		// Accepted inbound connections must close too: leaving them
		// open leaks their readLoop goroutines and keeps peers writing
		// into a transport that will never deliver — a "restarted"
		// process would still look alive to the rest of the cluster.
		for c := range t.accepted {
			_ = c.Close()
		}
		t.mu.Unlock()
		_ = t.listener.Close()
		t.writerWG.Wait()
		<-t.done
	})
	return nil
}

// Block drops all traffic to and from the given peers, simulating a
// partition. Passing no peers clears the block list (heals). A blocked
// peer leaves the reachable set at the next beat without waiting out
// FailAfter, so under Block the time to detect a partition is the
// phase of the tick, not a detection time. Block itself triggers no
// beat in either direction and nothing is sent to a blocked peer,
// probes included: a healed peer re-enters the reachable set when the
// next probe to it, at most HeartbeatEvery/probesPerBeat after the
// heal, gets through and is echoed.
func (t *TCPTransport) Block(peers ...proc.ID) {
	t.mu.Lock()
	t.det.blocked = proc.NewSet(peers...)
	t.mu.Unlock()
}

// peerConn owns one peer's outbound path: a bounded frame queue
// drained by a dedicated writer goroutine that dials (with backoff),
// coalesces queued frames into one buffer, and writes them with a
// single syscall per drain cycle.
type peerConn struct {
	t  *TCPTransport
	id proc.ID
	// queue carries pooled frame bodies; nil means heartbeat.
	queue chan []byte
	// heard is set by a reader that got a frame from this peer while
	// it was outside the reachable set: the peer is up now, whatever
	// the last dial said, so the writer forgets its redial back-off.
	heard atomic.Bool

	connMu sync.Mutex
	c      net.Conn // live connection, nil while down; Close() forces it shut
}

// peerConnLocked returns (creating on first use) the writer for one
// peer. Caller holds t.mu. Returns nil for unknown peers and after
// Close.
func (t *TCPTransport) peerConnLocked(to proc.ID) *peerConn {
	if pc, ok := t.conns[to]; ok {
		return pc
	}
	if _, ok := t.peers[to]; !ok {
		return nil
	}
	if t.closed {
		return nil
	}
	pc := &peerConn{t: t, id: to, queue: make(chan []byte, sendQueueDepth)}
	t.conns[to] = pc
	t.writerWG.Add(1)
	go pc.writeLoop()
	return pc
}

// closeConn force-closes the writer's live connection, if any.
func (pc *peerConn) closeConn() {
	pc.connMu.Lock()
	if pc.c != nil {
		_ = pc.c.Close()
	}
	pc.connMu.Unlock()
}

// setConn publishes the writer's live connection for closeConn.
func (pc *peerConn) setConn(c net.Conn) {
	pc.connMu.Lock()
	pc.c = c
	pc.connMu.Unlock()
}

// appendWireFrame encodes one frame (header + body) onto dst.
func appendWireFrame(dst []byte, from proc.ID, body []byte) []byte {
	var hdr [tcpHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(from))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// writeLoop drains the peer's queue: block for the first frame,
// opportunistically coalesce everything else already queued into one
// reused flush buffer, make sure a connection exists (dialing with
// backoff off the senders' path), and write the whole batch with one
// syscall. Write errors drop the connection and the in-flight batch —
// the transport promises datagram semantics, not delivery.
func (pc *peerConn) writeLoop() {
	t := pc.t
	defer t.writerWG.Done()
	var (
		conn     net.Conn
		flush    []byte
		backoff  time.Duration
		nextDial time.Time
	)
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		var first []byte
		select {
		case <-t.stop:
			return
		case first = <-pc.queue:
		}
		flush = appendWireFrame(flush[:0], t.cfg.ID, first)
		t.releaseBuf(first)
		frames := int64(1)
	drain:
		for len(flush) < flushBufCap {
			select {
			case b := <-pc.queue:
				flush = appendWireFrame(flush, t.cfg.ID, b)
				t.releaseBuf(b)
				frames++
			default:
				break drain
			}
		}
		if conn == nil {
			if pc.heard.Swap(false) {
				backoff, nextDial = 0, time.Time{}
			}
			if time.Now().Before(nextDial) {
				t.m.deadDrops.Add(frames)
				continue
			}
			c, err := t.dialPeer(pc.id)
			if err != nil {
				if backoff == 0 {
					backoff = redialMin
				} else if backoff < redialMax {
					backoff *= 2
					if backoff > redialMax {
						backoff = redialMax
					}
				}
				nextDial = time.Now().Add(backoff)
				t.m.deadDrops.Add(frames)
				continue
			}
			conn = c
			backoff = 0
			pc.setConn(conn)
			// Close may have swept past before setConn registered this
			// connection; it would then never be force-closed, and a
			// blocked write could stall shutdown. Re-check and bail.
			select {
			case <-t.stop:
				return
			default:
			}
		}
		if _, err := conn.Write(flush); err != nil {
			_ = conn.Close()
			conn = nil
			pc.setConn(nil)
			backoff = redialMin
			nextDial = time.Now().Add(backoff)
			continue
		}
		t.m.bytesOut.Add(int64(len(flush)))
		t.m.framesOut.Add(frames)
	}
}

// dialPeer resolves the peer's current address and dials it.
func (t *TCPTransport) dialPeer(to proc.ID) (net.Conn, error) {
	t.mu.Lock()
	addr, ok := t.peers[to]
	dial := t.dialFn
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gcs: unknown peer %v", to)
	}
	c, err := dial("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	t.m.redials.Inc()
	return c, nil
}

func (t *TCPTransport) acceptLoop() {
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed: shutting down
			}
			// Transient accept failure (resource pressure, aborted
			// handshake): back off briefly and keep accepting. Dying
			// here would silently deafen this node to new peers.
			select {
			case <-t.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		go t.readLoop(conn)
	}
}

// hbMark is one batched heartbeat observation: the latest arrival
// time per sender within a drain cycle.
type hbMark struct {
	from proc.ID
	at   time.Time
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return
	}
	t.accepted[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, readBufSize)
	var (
		header   [tcpHeader]byte
		chunk    []byte // grow-only arena for delivered frame bodies
		bytesIn  int64
		framesIn int64
		hbs      []hbMark // reused; almost always one sender per conn
	)
	// flush applies one drain cycle's batched effects: wire counters
	// and the detector's stamps, one mutex acquisition for the lot. The
	// detector re-checks the block list, so a peer blocked mid-drain
	// cannot resurrect its heartbeat; a stamp it calls news wakes the
	// loop and lets that peer's writer redial at once.
	flush := func() {
		if bytesIn != 0 {
			t.m.bytesIn.Add(bytesIn)
			t.m.framesIn.Add(framesIn)
			bytesIn, framesIn = 0, 0
		}
		if len(hbs) == 0 {
			return
		}
		t.mu.Lock()
		for _, hb := range hbs {
			if t.det.heard(hb.from, hb.at) {
				t.wakeLoop()
				if pc := t.conns[hb.from]; pc != nil {
					pc.heard.Store(true)
				}
			}
		}
		t.mu.Unlock()
		hbs = hbs[:0]
	}
	defer flush()

	var blocked proc.Set
	newDrain := true
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			return
		}
		// The block list is read once per drain, and only now that the
		// drain's first header is here: a snapshot taken before
		// parking on a quiet link would deliver the first frames after
		// Block from the list as it was when the link went quiet.
		if newDrain {
			blocked, newDrain = t.blockedSnapshot(), false
		}
		size := binary.BigEndian.Uint32(header[:])
		from := proc.ID(binary.BigEndian.Uint32(header[4:]))
		if size > 1<<22 {
			return // corrupt stream
		}
		var body []byte
		if size > 0 {
			if cap(chunk)-len(chunk) < int(size) {
				n := readChunk
				if int(size) > n {
					n = int(size)
				}
				chunk = make([]byte, 0, n)
			}
			body = chunk[len(chunk) : len(chunk)+int(size)]
			chunk = chunk[:len(chunk)+int(size)]
			if _, err := io.ReadFull(br, body); err != nil {
				return
			}
		}
		bytesIn += int64(tcpHeader) + int64(size)
		framesIn++
		if !blocked.Contains(from) {
			// Record heartbeat freshness, overwriting this sender's
			// earlier mark within the drain (latest wins).
			now := time.Now()
			found := false
			for i := range hbs {
				if hbs[i].from == from {
					hbs[i].at = now
					found = true
					break
				}
			}
			if !found {
				hbs = append(hbs, hbMark{from: from, at: now})
			}
			if size > 0 {
				select {
				case t.frames <- Frame{From: from, Data: body}:
				default:
					// Inbox overflow: drop (counted) and rewind the
					// arena — the body was the last carve.
					t.m.inboxDrops.Inc()
					chunk = chunk[:len(chunk)-int(size)]
				}
			}
		}
		// About to block on the next header: apply the batch.
		if br.Buffered() < tcpHeader {
			flush()
			newDrain = true
		}
	}
}

func (t *TCPTransport) blockedSnapshot() proc.Set {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.det.blocked
}

// heartbeatLoop runs the detector on the wall clock: one step at each
// deadline it returns, and one whenever a reader or SetPeers wakes the
// loop. Enqueueing a heartbeat never blocks, and dialing dead peers
// happens on their writer goroutines, so one unreachable peer cannot eat
// the heartbeat budget of the healthy ones.
func (t *TCPTransport) heartbeatLoop() {
	defer close(t.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-timer.C:
		case <-t.wake: // a fire this raced stays in timer.C: one idle step
		}
		t.mu.Lock()
		// Read under the lock, so that a stall on it counts as a pause.
		to, reach, publish, next := t.det.step(time.Now())
		for _, id := range to {
			if pc := t.peerConnLocked(id); pc != nil {
				select {
				case pc.queue <- nil:
				default:
					t.m.sendqDrops.Inc()
				}
			}
		}
		t.mu.Unlock()
		if publish {
			publishLatest(t.fd, reach)
		}
		timer.Reset(time.Until(next))
	}
}

// wakeLoop makes heartbeatLoop step now; pending wakes coalesce.
func (t *TCPTransport) wakeLoop() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// Reach returns the current reachable set as the failure detector
// computed it at its last beat — a diagnostic snapshot.
func (t *TCPTransport) Reach() proc.Set {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.det.reach
}
