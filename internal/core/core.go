// Package core defines the algorithm-to-application interface of
// thesis Chapter 2: the contract between a primary component algorithm
// and whatever carries its messages.
//
// The thesis's central implementation idea is that the algorithm is an
// independent entity with no inherent communication abilities: it only
// needs to broadcast messages, receive messages and view-change
// reports, and maintain state. Anything that provides those services —
// the in-process simulation driver, or a live group communication
// substrate — can host any of the algorithms unchanged.
//
// Algorithms are event-driven and deterministic: state changes only in
// ViewChange and Deliver, so the host never needs to poll except right
// after feeding the algorithm new information (thesis §2.1).
package core

import (
	"fmt"

	"dynvote/internal/proc"
	"dynvote/internal/view"
	"dynvote/internal/wire"
)

// Message is one algorithm-level protocol message. Concrete message
// types are defined by each algorithm package and must be treated as
// immutable once returned from Poll, because the simulation driver
// fans a single broadcast message out to many recipients without
// copying.
type Message interface {
	// Kind names the message type for tracing and diagnostics,
	// e.g. "ykd/state".
	Kind() string
}

// Codec translates a message to and from its wire form. Codecs are
// stateless and shared across all instances of an algorithm.
type Codec interface {
	Encode(m Message) ([]byte, error)
	Decode(b []byte) (Message, error)
}

// Algorithm is a primary component algorithm instance bound to a
// single process. It mirrors the C++ class of thesis Figure 2-1:
// viewChanged, incomingMessage, outgoingMessagePoll and inPrimary.
//
// The host must call Poll after every ViewChange or Deliver and
// broadcast each returned message to the algorithm's current view;
// between events the algorithm never has anything new to send.
type Algorithm interface {
	// Name identifies the algorithm variant, e.g. "ykd".
	Name() string
	// ViewChange reports a new connectivity view containing this
	// process. Any attempt in progress is interrupted.
	ViewChange(v view.View)
	// Deliver hands the algorithm one protocol message broadcast by
	// process from within the current view. Hosts guarantee
	// view-synchronous delivery: messages sent in an earlier view are
	// dropped, never delivered late.
	Deliver(from proc.ID, m Message)
	// Poll returns the broadcasts the algorithm wants sent to its
	// current view, in order. It drains the send queue: a second call
	// without intervening events returns nil. The returned slice may
	// be recycled by the algorithm and is only valid until the next
	// Poll; the Messages inside it remain immutable and may be
	// retained indefinitely.
	Poll() []Message
	// InPrimary reports whether this process currently belongs to the
	// live primary component.
	InPrimary() bool
}

// AmbiguousReporter is implemented by algorithms that retain ambiguous
// sessions, enabling the Figure 4-7/4-8 measurements.
type AmbiguousReporter interface {
	// AmbiguousSessionCount returns the number of pending ambiguous
	// sessions currently retained.
	AmbiguousSessionCount() int
}

// PrimaryReporter exposes the member set of the primary component the
// process believes it is in, for the safety checker. Only meaningful
// while InPrimary is true.
type PrimaryReporter interface {
	PrimaryMembers() proc.Set
}

// Resetter is implemented by algorithms that can restore themselves to
// their just-constructed state in place, without reallocating internal
// storage. Reset(self, initial) must leave the instance observably
// identical to Factory.New(self, initial): same durable state, same
// protocol phase, an empty send queue — while retained maps and slices
// (cleared, truncated) keep their capacity. Hosts that execute many
// independent runs (the fresh-start experiment sweeps) use it to
// amortize construction: one simulation stack per worker, reset
// between runs instead of rebuilt.
//
// Reset must be exact: a run executed on a reset instance must be
// bit-identical to the same run on a fresh one (see the reset-vs-fresh
// golden tests). Anything observable — durable state, pending
// sessions, snapshot-restorable state — must be cleared; only
// invisible capacity may be retained.
type Resetter interface {
	Reset(self proc.ID, initial view.View)
}

// Snapshotter is implemented by algorithms whose durable state can be
// saved to and restored from stable storage. Dynamic voting comes from
// replicated databases, where a process that crashes recovers with its
// state intact — the session bookkeeping is exactly what must survive,
// or the recovered process could vote itself into a primary it had
// already conceded.
//
// Restore rebuilds the durable state on a fresh instance; the next
// ViewChange resumes the protocol. A restored process reports
// InPrimary false until it forms or accepts a primary again.
type Snapshotter interface {
	// Snapshot encodes the algorithm's durable state.
	Snapshot() ([]byte, error)
	// Restore replaces this instance's durable state with a snapshot
	// produced by the same algorithm variant.
	Restore(data []byte) error
}

// Factory describes one algorithm variant: how to build instances and
// how to put their messages on the wire.
type Factory struct {
	// Name is the variant's identifier, e.g. "ykd", "mr1p".
	Name string
	// New builds an instance for process self starting in the initial
	// view, which contains all participating processes (thesis §2.1:
	// every later view contains only processes from the first).
	New func(self proc.ID, initial view.View) Algorithm
	// Codec encodes and decodes this variant's messages. Nil for
	// algorithms that send no messages (simple majority).
	Codec Codec
}

// Piggyback implements the exact application-facing contract of thesis
// Figure 2-1 on top of any Algorithm: applications pass every outgoing
// message through Outgoing and every incoming one through Incoming,
// and the algorithm's extra information rides along invisibly.
type Piggyback struct {
	alg   Algorithm
	codec Codec
	// w is the reused encode buffer: one bundle per Outgoing call, in
	// place. Outgoing runs on every send wake of a live node, so
	// re-allocating the writer (and growing it from empty) per call
	// would dominate the send side.
	w wire.Writer
}

// NewPiggyback wraps alg, whose messages are encoded with codec.
func NewPiggyback(alg Algorithm, codec Codec) *Piggyback {
	return &Piggyback{alg: alg, codec: codec}
}

// ViewChanged forwards a connectivity report to the algorithm. The
// application should call Outgoing() afterwards and broadcast the
// result, giving the algorithm a chance to speak.
func (pb *Piggyback) ViewChanged(v view.View) { pb.alg.ViewChange(v) }

// InPrimary reports whether this process is in the primary component.
func (pb *Piggyback) InPrimary() bool { return pb.alg.InPrimary() }

// Algorithm returns the wrapped algorithm.
func (pb *Piggyback) Algorithm() Algorithm { return pb.alg }

// Outgoing bundles the algorithm's pending broadcasts with any number
// of application payloads, which the receiver gets back in order. It
// returns (nil, false) when there is nothing to send at all — no
// algorithm traffic and no application payload. This is the thesis's
// outgoingMessagePoll, taking a batch of application messages rather
// than one.
//
// The payload section is Uvarint(len(apps)) followed by each payload
// length-prefixed, so a bundle with zero or one payload is the same
// bytes as the earlier Bool(hasApp) encoding; an empty payload is still
// a payload.
//
// The returned bundle aliases a buffer owned by the Piggyback and is
// only valid until the next Outgoing call; callers that need to keep
// it (or send it asynchronously) must copy.
func (pb *Piggyback) Outgoing(apps ...[]byte) ([]byte, bool, error) {
	msgs := pb.alg.Poll()
	if len(msgs) == 0 && len(apps) == 0 {
		return nil, false, nil
	}
	pb.w.Reset()
	pb.w.Uvarint(uint64(len(msgs)))
	for _, m := range msgs {
		b, err := pb.codec.Encode(m)
		if err != nil {
			return nil, false, fmt.Errorf("piggyback encode: %w", err)
		}
		pb.w.RawBytes(b)
	}
	pb.w.Uvarint(uint64(len(apps)))
	for _, app := range apps {
		pb.w.RawBytes(app)
	}
	return pb.w.Bytes(), true, nil
}

// Incoming unbundles a payload produced by Outgoing: algorithm
// messages are delivered to the wrapped algorithm, and each application
// payload is handed to deliver in order, as a copy the caller may keep
// — the application never sees the algorithm's extra information. The
// payloads are all-or-nothing: a bundle whose payload section does not
// parse delivers none of them. This is the thesis's incomingMessage.
func (pb *Piggyback) Incoming(from proc.ID, data []byte, deliver func(app []byte)) error {
	r := wire.NewReader(data)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("piggyback header: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		raw := r.RawBytes()
		if err := r.Err(); err != nil {
			return fmt.Errorf("piggyback message %d: %w", i, err)
		}
		m, err := pb.codec.Decode(raw)
		if err != nil {
			return fmt.Errorf("piggyback decode %d: %w", i, err)
		}
		pb.alg.Deliver(from, m)
	}
	apps := data[len(data)-r.Remaining():]
	k := r.Uvarint()
	for i := uint64(0); i < k && r.Err() == nil; i++ {
		r.RawBytesRef()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("piggyback payload: %w", err)
	}
	r = wire.NewReader(apps)
	for i := r.Uvarint(); i > 0; i-- {
		deliver(r.RawBytes())
	}
	return nil
}
