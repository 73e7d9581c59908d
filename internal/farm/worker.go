package farm

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynvote/internal/campaign"
	"dynvote/internal/metrics"
	"dynvote/internal/wire"
)

// WorkerConfig assembles a Worker.
type WorkerConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// Capacity is how many chains this worker executes concurrently
	// (default GOMAXPROCS). The coordinator keeps Capacity+1
	// chains assigned so the worker never idles between chains.
	Capacity int
	// Metrics, when non-nil, counts chains executed by this worker.
	Metrics *metrics.Registry

	// dieAfterResults is a test hook: after sending (and flushing) this
	// many result frames, the worker closes its connection abruptly,
	// simulating a worker crash mid-campaign. 0 disables.
	dieAfterResults int
}

// assignment is one (algorithm, chain) cell to execute.
type assignment struct{ alg, chain int }

// Worker executes campaign chains for a remote coordinator. Join
// performs the handshake and receives the campaign configuration (once
// per connection); Serve runs chains until the coordinator closes the
// connection, aborts, or Drain winds the worker down.
type Worker struct {
	cfg  WorkerConfig
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	wmu  sync.Mutex // serializes frame writes (results, goodbye)
	camp campaign.Config

	abort     atomic.Bool // stop chains at their next run boundary
	draining  atomic.Bool // goodbye sent: ignore further assigns
	assignsMu sync.Once   // closes assigns exactly once
	assigns   chan assignment
	results   chan chainResult
	readDone  chan struct{}
	readErr   error

	chainsRun *metrics.Counter
}

// Join dials the coordinator, introduces this worker's capacity, and
// receives the campaign configuration.
func Join(cfg WorkerConfig) (*Worker, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	conn, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:       cfg,
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 64<<10),
		bw:        bufio.NewWriterSize(conn, 64<<10),
		readDone:  make(chan struct{}),
		chainsRun: cfg.Metrics.Counter("farm_worker_chains_run_total", "chains executed by this worker"),
	}
	// The window the coordinator maintains is capacity+1; size the
	// channels generously so the read loop never blocks on them.
	w.assigns = make(chan assignment, 4*cfg.Capacity+16)
	w.results = make(chan chainResult, 4*cfg.Capacity+16)

	var enc wire.Writer
	encodeHello(&enc, cfg.Capacity)
	if err := wire.WriteFrame(w.bw, enc.Bytes(), maxFrame); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		_ = conn.Close()
		return nil, err
	}

	body, err := wire.ReadFrame(w.br, nil, maxFrame)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	r := wire.NewReader(body)
	if r.Byte() != msgConfig {
		_ = conn.Close()
		return nil, errors.New("farm: coordinator did not send a config frame")
	}
	camp, err := decodeConfig(r)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	w.camp = camp
	return w, nil
}

// Serve executes assigned chains until the coordinator closes the
// connection (campaign finished), an abort frame arrives, or Drain
// winds the worker down. It returns nil on every cooperative exit.
func (w *Worker) Serve() error {
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Capacity; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.runChains()
		}()
	}
	go func() {
		wg.Wait()
		close(w.results)
	}()
	go w.readLoop()

	if err := w.writeResults(); err != nil {
		// The connection died under us: stop chains and discard what
		// they were about to report — the coordinator requeues.
		w.abort.Store(true)
	}
	for range w.results {
		// Drain any residue so the runner goroutines can exit.
	}
	_ = w.conn.Close()
	<-w.readDone
	return w.readErr
}

// Drain winds the worker down gracefully (the SIGINT path): tell the
// coordinator to assign no more, finish every chain already assigned,
// report those results, and let Serve return. Chains in the assign
// queue count as in-flight — they are outstanding at the coordinator,
// so finishing them here merges their work instead of forcing a requeue.
func (w *Worker) Drain() {
	if w.draining.Swap(true) {
		return
	}
	var enc wire.Writer
	enc.Byte(msgGoodbye)
	w.wmu.Lock()
	if wire.WriteFrame(w.bw, enc.Bytes(), maxFrame) == nil {
		_ = w.bw.Flush()
	}
	w.wmu.Unlock()
	// Unblock the read loop: no further frames matter except abort, and
	// a drained worker exiting on abort a moment late is harmless.
	_ = w.conn.SetReadDeadline(time.Now())
}

// closeAssigns is the read loop's exclusive shutdown signal to the
// chain runners.
func (w *Worker) closeAssigns() {
	w.assignsMu.Do(func() { close(w.assigns) })
}

// readLoop handles coordinator frames: assigns feed the chain runners,
// abort stops everything cooperatively, EOF means the campaign is done.
func (w *Worker) readLoop() {
	defer close(w.readDone)
	defer w.closeAssigns()
	var buf []byte
	for {
		body, err := wire.ReadFrame(w.br, buf, maxFrame)
		if err != nil {
			if w.draining.Load() || w.abort.Load() ||
				errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return // cooperative shutdown
			}
			w.readErr = err
			return
		}
		buf = body[:0]
		r := wire.NewReader(body)
		switch r.Byte() {
		case msgAssign:
			alg, chain := int(r.Uvarint()), int(r.Uvarint())
			if r.Err() != nil {
				w.readErr = r.Err()
				return
			}
			if w.draining.Load() {
				continue // said goodbye; the coordinator will requeue
			}
			select {
			case w.assigns <- assignment{alg, chain}:
			default:
				// Window overflow (coordinator bug): drop; it requeues.
			}
		case msgAbort:
			w.abort.Store(true)
			return
		default:
			w.readErr = errors.New("farm: unexpected frame from coordinator")
			return
		}
	}
}

// runChains is one runner goroutine: execute assigned chains to their
// full budget, deterministically, and queue the results.
func (w *Worker) runChains() {
	for a := range w.assigns {
		if a.alg < 0 || a.alg >= len(w.camp.Factories) ||
			a.chain < 0 || a.chain >= max(w.camp.Chains, 1) {
			continue
		}
		stat, err := campaign.RunChain(w.camp, a.alg, a.chain, &w.abort)
		if err == campaign.ErrAborted {
			continue // nobody wants a partial chain
		}
		res := chainResult{alg: a.alg, chain: a.chain, stat: stat}
		if err != nil {
			var ce *campaign.ChainError
			if errors.As(err, &ce) {
				// Ship the underlying violation text (trace dump
				// included); the coordinator rebuilds the ChainError so
				// the coordinates are not double-wrapped.
				res.errMsg = ce.Err.Error()
			} else {
				res.errMsg = err.Error()
			}
		}
		w.chainsRun.Inc()
		w.results <- res
	}
}

// writeResults streams result frames back, coalescing: frames
// accumulate in the buffered writer and flush only when no further
// result is immediately pending — one syscall per burst, not per chain.
func (w *Worker) writeResults() error {
	var enc wire.Writer
	sent := 0
	for res := range w.results {
		encodeResult(&enc, res)
		w.wmu.Lock()
		err := wire.WriteFrame(w.bw, enc.Bytes(), maxFrame)
		if err == nil && len(w.results) == 0 {
			err = w.bw.Flush()
		}
		w.wmu.Unlock()
		if err != nil {
			return err
		}
		sent++
		if w.cfg.dieAfterResults > 0 && sent >= w.cfg.dieAfterResults {
			// Crash simulation: the flushed results made it out; the
			// rest of this worker's window dies with the connection.
			_ = w.conn.Close()
			return errors.New("farm: worker killed by test hook")
		}
	}
	w.wmu.Lock()
	err := w.bw.Flush()
	w.wmu.Unlock()
	return err
}
