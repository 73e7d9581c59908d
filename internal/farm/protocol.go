// Package farm distributes a soak campaign across worker processes
// over TCP: a coordinator dispatches (algorithm, chain) cells from a
// work queue and hands each outcome to campaign.Merge, the merge a
// local campaign.Run uses; workers execute chains and stream back
// per-chain reports. Chains are seeded purely from
// (rootSeed, algorithm, chainIndex) — see internal/campaign — so the
// farmed merge is bit-identical to a local run at any worker count and
// any completion order, which also makes the chain the natural unit of
// retry: a lost worker's outstanding chains are simply re-issued, and
// the merge's seen-set guarantees each chain merges exactly once no
// matter how many times it was dispatched.
//
// The wire protocol is length-prefixed frames (internal/wire's shared
// framing) carrying wire-codec bodies whose first byte is the message
// type. The campaign configuration crosses the wire once per
// connection; per-chain dispatch costs one ~10-byte assign frame, and
// workers coalesce result frames into buffered writes flushed only
// when no further result is pending.
package farm

import (
	"fmt"
	"math"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/campaign"
	"dynvote/internal/core"
	"dynvote/internal/naive"
	"dynvote/internal/wire"
)

// protoVersion is bumped on any incompatible frame change; a
// coordinator refuses workers speaking another version.
const protoVersion = 1

// maxFrame bounds farm frame bodies. Violation results carry the full
// trace ring-buffer dump in their error text, so the cap is generous.
const maxFrame = 8 << 20

// Message types, first byte of every frame body.
const (
	// msgHello (worker → coordinator): protocol version, capacity.
	msgHello byte = iota + 1
	// msgConfig (coordinator → worker): the campaign parameters, sent
	// exactly once per connection.
	msgConfig
	// msgAssign (coordinator → worker): one (algorithm, chain) cell.
	msgAssign
	// msgAbort (coordinator → worker): a violation elsewhere — stop all
	// chains at their next run boundary and exit.
	msgAbort
	// msgResult (worker → coordinator): one chain's outcome.
	msgResult
	// msgGoodbye (worker → coordinator): draining — assign no more; the
	// worker finishes and reports its outstanding chains, then leaves.
	msgGoodbye
)

// Result statuses.
const (
	statusOK byte = iota
	statusViolation
)

func encodeHello(w *wire.Writer, capacity int) {
	w.Reset()
	w.Byte(msgHello)
	w.Uvarint(protoVersion)
	w.Uvarint(uint64(capacity))
}

func decodeHello(r *wire.Reader) (capacity int, err error) {
	if v := r.Uvarint(); r.Err() == nil && v != protoVersion {
		return 0, fmt.Errorf("farm: worker speaks protocol %d, want %d", v, protoVersion)
	}
	capacity = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return 0, err
	}
	if capacity <= 0 || capacity > 1<<16 {
		return 0, fmt.Errorf("farm: implausible worker capacity %d", capacity)
	}
	return capacity, nil
}

// encodeConfig ships the deterministic campaign parameters; hooks and
// scheduling knobs stay local to each side.
func encodeConfig(w *wire.Writer, cfg campaign.Config) {
	w.Reset()
	w.Byte(msgConfig)
	w.Varint(cfg.Seed)
	w.Uvarint(uint64(cfg.Procs))
	w.Uvarint(uint64(cfg.Changes))
	w.Uvarint(uint64(cfg.Segment))
	w.Uvarint(math.Float64bits(cfg.Rate))
	w.Uvarint(uint64(cfg.Chains))
	w.Uvarint(uint64(cfg.TraceRetain))
	w.Uvarint(uint64(len(cfg.Factories)))
	for _, f := range cfg.Factories {
		w.RawBytes([]byte(f.Name))
	}
}

func decodeConfig(r *wire.Reader) (campaign.Config, error) {
	cfg := campaign.Config{
		Seed:        r.Varint(),
		Procs:       int(r.Uvarint()),
		Changes:     int(r.Uvarint()),
		Segment:     int(r.Uvarint()),
		Rate:        math.Float64frombits(r.Uvarint()),
		Chains:      int(r.Uvarint()),
		TraceRetain: int(r.Uvarint()),
	}
	n := int(r.Uvarint())
	if r.Err() != nil {
		return campaign.Config{}, r.Err()
	}
	if n <= 0 || n > 1024 {
		return campaign.Config{}, fmt.Errorf("farm: implausible algorithm count %d", n)
	}
	for i := 0; i < n; i++ {
		name := r.RawString()
		if r.Err() != nil {
			return campaign.Config{}, r.Err()
		}
		f, err := resolveFactory(name)
		if err != nil {
			return campaign.Config{}, err
		}
		cfg.Factories = append(cfg.Factories, f)
	}
	return cfg, nil
}

// resolveFactory maps an algorithm name back to its factory on the
// worker side. The naive strawman sits outside algset (it exists to
// prove the checker works), so it gets an explicit branch — a farmed
// `-alg naive` checker-validation run must behave like a local one.
func resolveFactory(name string) (core.Factory, error) {
	if nf := naive.Factory(); name == nf.Name {
		return nf, nil
	}
	return algset.ByName(name)
}

func encodeAssign(w *wire.Writer, alg, chain int) {
	w.Reset()
	w.Byte(msgAssign)
	w.Uvarint(uint64(alg))
	w.Uvarint(uint64(chain))
}

// chainResult is one executed chain crossing the wire back.
type chainResult struct {
	alg, chain int
	stat       campaign.ChainStats
	// errMsg is the underlying violation text (trace dump included);
	// empty for a clean chain.
	errMsg string
}

func encodeResult(w *wire.Writer, res chainResult) {
	w.Reset()
	w.Byte(msgResult)
	w.Uvarint(uint64(res.alg))
	w.Uvarint(uint64(res.chain))
	w.Uvarint(uint64(res.stat.Changes))
	w.Uvarint(uint64(res.stat.Runs))
	w.Uvarint(uint64(res.stat.Formed))
	w.Uvarint(uint64(res.stat.Assertions))
	w.Uvarint(uint64(res.stat.Wall))
	if res.errMsg == "" {
		w.Byte(statusOK)
	} else {
		w.Byte(statusViolation)
		w.RawBytes([]byte(res.errMsg))
	}
}

func decodeResult(r *wire.Reader) (chainResult, error) {
	res := chainResult{
		alg:   int(r.Uvarint()),
		chain: int(r.Uvarint()),
	}
	res.stat.Changes = int(r.Uvarint())
	res.stat.Runs = int(r.Uvarint())
	res.stat.Formed = int(r.Uvarint())
	res.stat.Assertions = int64(r.Uvarint())
	res.stat.Wall = time.Duration(r.Uvarint())
	res.stat.Chain = res.chain
	if r.Byte() == statusViolation {
		res.errMsg = r.RawString()
	}
	return res, r.Err()
}
