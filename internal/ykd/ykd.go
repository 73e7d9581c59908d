// Package ykd implements the dynamic voting algorithm of Yeger Lotem,
// Keidar and Dolev (thesis §3.1) together with three of its variants
// (§3.2): unoptimized YKD, DFLS, and 1-pending. All four share one
// state machine, differing only in how ambiguous sessions are pruned
// and how they constrain the decision to attempt a new primary.
//
// # Protocol
//
// Whenever a connectivity change delivers a new view V, members run
// two message rounds. Round one exchanges full state — session number,
// last primary, lastFormed table and ambiguous sessions — so that
// every member decides from identical information, deterministically.
// If the members DECIDE the view can become a primary, round two sends
// attempt messages; a process that receives attempts from everyone in
// V has formed the primary. An attempt interrupted by another view
// change leaves behind an ambiguous session: a primary that might or
// might not have been formed by some members.
//
// # Resolution rules
//
// Figure 3-3's LEARN / RESOLVE procedures reduce to three deterministic
// rules over the states exchanged in the current view (the reduction
// is worth recording, because it is what makes the unoptimized variant
// exactly as available as YKD, as the thesis observes):
//
//   - ACCEPT: a session S containing this process that some process
//     reports as formed (its lastPrimary or a lastFormed entry), with
//     S.Number above our lastPrimary's, becomes our lastPrimary, and
//     lastFormed(q) is raised to S for every q in S.
//   - DELETE-superseded: an ambiguous session older than the (possibly
//     just accepted) lastPrimary is redundant — a newer formed primary
//     already holds a subquorum of it.
//   - DELETE-unformed (LEARN): an ambiguous session A whose members
//     are all present in V, each reporting a lastFormed entry that
//     proves it never completed A, was formed by nobody and is
//     discarded. Note the deleted constraint was trivially satisfiable
//     anyway (A.Members ⊆ V makes V a subquorum of A), which is why
//     the optimization affects storage and message size but never
//     availability.
//
// # Variants
//
//   - YKD: both DELETE rules; ambiguous sessions cleared on formation.
//   - Unoptimized YKD: no DELETE rules; ambiguous sessions cleared
//     only when this process forms a primary. Same availability,
//     more retained sessions (§3.2.1).
//   - DFLS: like unoptimized, but formation does not clear ambiguous
//     sessions — a third, flush round in the newly formed primary
//     does. Retained sessions constrain DECIDE without the maxPrimary
//     filter, which is what costs DFLS ≈3% availability (§3.2.2).
//   - 1-pending: like YKD, but DECIDEs to attempt only when no
//     unresolved ambiguous session exists anywhere in the view — it
//     blocks rather than pipeline attempts. In the worst case an
//     unformed session resolves only when all its members reconnect
//     (§3.2.3).
//
// # The lastFormed table
//
// Figure 3-3 keeps lastFormed as one entry per process. Entries change
// only by whole sessions — ACCEPT and formation both assign one session
// to all of its members whose entry is older — so at any moment the
// table is a handful of (session, processes) groups that partition the
// initial membership. That partition, []FormedEntry, is the one form
// the table has here: it is what Algorithm stores, what StateMessage
// sends, what Snapshot writes and what Restore reads (and checks: the
// groups of a snapshot must be non-empty, disjoint and cover the
// initial membership). ACCEPT and formation are one operation on it,
// "move Who ∩ S.Members out of every older group into S's group", a few
// word-parallel set operations per group at any process count, and
// LEARN reads a peer's table the same way (one Disjoint per group). A
// process takes part in at most one session per number, so within one
// table the session number identifies the group.
package ykd

import (
	"fmt"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/quorum"
	"dynvote/internal/view"
)

// Variant selects which of the four YKD-family algorithms an instance
// runs.
type Variant int

const (
	// VariantYKD is the optimized algorithm of thesis §3.1.
	VariantYKD Variant = iota + 1
	// VariantUnoptimized is YKD without ambiguous-session pruning.
	VariantUnoptimized
	// VariantDFLS adds an extra deletion round (De Prisco et al.).
	VariantDFLS
	// VariantOnePending blocks while any ambiguous session is pending.
	VariantOnePending
)

// String returns the algorithm name used in experiment output.
func (v Variant) String() string {
	switch v {
	case VariantYKD:
		return "ykd"
	case VariantUnoptimized:
		return "ykd-unopt"
	case VariantDFLS:
		return "dfls"
	case VariantOnePending:
		return "1-pending"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// prunes reports whether the variant applies the DELETE rules.
func (v Variant) prunes() bool { return v == VariantYKD || v == VariantOnePending }

type phase int

const (
	phaseIdle phase = iota + 1
	phaseExchange
	phaseAttempt
	phaseFlush
)

// Algorithm is one process's instance of a YKD-family algorithm.
// It implements core.Algorithm; it is not safe for concurrent use.
type Algorithm struct {
	variant Variant
	self    proc.ID
	initial view.Session // the thesis's W, session number 0

	// Durable state (thesis §3.1). formed is the lastFormed table in the
	// form StateMessage.Formed and Snapshot carry it: a partition of the
	// initial membership, lastFormed(q) being the Session of the one
	// entry whose Who holds q. Every entry starts in the initial
	// session's group and only ever moves to a newer formed primary's,
	// so a handful of groups exist at any moment. Their order records
	// the history that produced them and carries no meaning.
	lastPrimary   view.Session
	formed        []FormedEntry
	ambiguous     []view.Session
	sessionNumber int64
	inPrimary     bool

	// Per-view protocol state.
	cur     view.View
	curSize int // cached v.Members.Count(); compared on every attempt and flush
	phase   phase
	// wanted holds the members of cur whose state has not arrived, so
	// one bit answers "member, and no state yet" and the exchange
	// resolves when it empties. arrived lists the states in arrival
	// order with their senders; resolveAndDecide reads them from there,
	// and its outcome does not depend on the order. Nothing here is
	// indexed by sender, so a delivery touches one word of wanted and
	// the tail of arrived: at kilo-process widths a per-instance table
	// indexed by ID misses cache on nearly every delivery. Entries past
	// len(arrived) keep the previous view's pointers until overwritten;
	// Reset and Restore clear them.
	wanted         proc.Bits
	arrived        []arrival
	attemptSession view.Session
	// attempts and flushes are tally accumulators: one Add per received
	// message. proc.Bits rather than proc.Set because past InlineProcs a
	// Set's Add is copy-on-write — a fresh multi-word slice per message
	// — while a Bits mutates its reused storage in place.
	attempts      proc.Bits
	flushes       proc.Bits
	earlyAttempts []early
	earlyFlushes  []early
	out           []core.Message
	// outSpare is the second half of Poll's double buffer: the slice
	// handed out by the previous Poll, reused as the next send queue
	// once the host is done with it (the core.Algorithm contract makes
	// a returned slice invalid at the following Poll).
	outSpare []core.Message

	// scratch accumulates the deduplicated constraining ambiguous
	// sessions during DECIDE. A handful of sessions at most survive the
	// COMPUTE filters, so a linear Equal scan over a reused slice beats
	// hashing SessionKeys into a map on every view change.
	scratch []view.Session

	// appliedFormed remembers the last few formed-session reports
	// fully applied by acceptFormed. During a state exchange every
	// member re-reports the same handful of sessions, and lastFormed
	// entries only ever rise, so re-applying a cached session is a
	// provable no-op — the cache turns the per-group ACCEPT scan into
	// a few word compares for the common repeat. Removing it loses ten
	// of ten pairs on all three sim workloads (DESIGN.md "Ablations").
	appliedFormed [4]view.Session
	appliedNext   int
}

type early struct {
	from proc.ID
	s    view.Session
}

// arrival is one state message of the current view and its sender.
type arrival struct {
	from proc.ID
	st   *StateMessage
}

var (
	_ core.Algorithm         = (*Algorithm)(nil)
	_ core.AmbiguousReporter = (*Algorithm)(nil)
	_ core.PrimaryReporter   = (*Algorithm)(nil)
	_ core.Resetter          = (*Algorithm)(nil)
)

// New returns a variant instance for process self. The initial view
// must contain all participating processes; it is the thesis's W, the
// primary everyone starts in, carrying session number zero.
func New(variant Variant, self proc.ID, initial view.View) *Algorithm {
	a := &Algorithm{variant: variant}
	a.Reset(self, initial)
	return a
}

// Factory returns the host-facing description of the given variant.
func Factory(variant Variant) core.Factory {
	return core.Factory{
		Name: variant.String(),
		New: func(self proc.ID, initial view.View) core.Algorithm {
			return New(variant, self, initial)
		},
		Codec: Codec{},
	}
}

// Name implements core.Algorithm.
func (a *Algorithm) Name() string { return a.variant.String() }

// InPrimary implements core.Algorithm.
func (a *Algorithm) InPrimary() bool { return a.inPrimary }

// PrimaryMembers returns the membership of the primary this process
// last formed; meaningful while InPrimary is true.
func (a *Algorithm) PrimaryMembers() proc.Set { return a.lastPrimary.Members }

// AmbiguousSessionCount reports the retained ambiguous sessions, the
// quantity measured in thesis Figures 4-7 and 4-8.
func (a *Algorithm) AmbiguousSessionCount() int { return len(a.ambiguous) }

// LastPrimary returns the last primary component this process formed
// or accepted.
func (a *Algorithm) LastPrimary() view.Session { return a.lastPrimary }

// Reset implements core.Resetter and is the one initialisation path:
// New is a zero value plus Reset. It puts the instance in the state of
// a process that starts in the initial view — the thesis's W, session
// number zero, a primary — reusing whatever storage a previous life
// left behind: the lastFormed groups, the wanted set and arrival list,
// the ambiguous and send-queue slices, the DECIDE scratch. The variant
// is preserved. Stale message pointers are cleared from the recycled
// buffers so a reset instance pins nothing from its previous life.
func (a *Algorithm) Reset(self proc.ID, initial view.View) {
	w := view.NewSession(0, initial)
	n := max(int(initial.Members.Max()), 0) + 1
	a.self = self
	a.initial = w
	a.lastPrimary = w
	clear(a.formed)
	a.formed = append(a.formed[:0], FormedEntry{Session: w, Who: initial.Members})
	a.ambiguous = a.ambiguous[:0]
	a.sessionNumber = 0
	a.inPrimary = true

	a.cur = initial
	a.curSize = initial.Size()
	// Sized here so a view's exchange never grows them: wanted to the
	// initial view's words, which cover every later view's, and arrived
	// to one state per process.
	a.wanted.Load(initial.Members)
	if cap(a.arrived) < n {
		a.arrived = make([]arrival, 0, n)
	}
	a.abandonExchange()
	a.out = truncate(a.out)
	a.outSpare = truncate(a.outSpare)
	a.scratch = a.scratch[:0]
}

// abandonExchange drops the per-view protocol state: the states
// collected so far, any attempt in progress and the early-message
// buffers, leaving the instance idle. The appliedFormed memo goes with
// it: it is only sound against the table it was filled from, and both
// callers (Reset, Restore) have just replaced that table.
func (a *Algorithm) abandonExchange() {
	a.phase = phaseIdle
	a.arrived = truncate(a.arrived)
	a.attemptSession = view.Session{}
	a.earlyAttempts = a.earlyAttempts[:0]
	a.earlyFlushes = a.earlyFlushes[:0]
	a.appliedFormed = [4]view.Session{}
	a.appliedNext = 0
}

// truncate empties a reused buffer, dropping the message pointers
// parked in its full backing array so they can be collected.
func truncate[T any](buf []T) []T {
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:0]
}

// ViewChange starts the two-round protocol in the new view: any
// attempt in progress is abandoned (leaving its session ambiguous) and
// the process broadcasts its state.
func (a *Algorithm) ViewChange(v view.View) {
	a.cur = v
	a.curSize = v.Size()
	a.inPrimary = false
	a.phase = phaseExchange
	// attempts and flushes are reset when their rounds begin: decide
	// and checkFormed.
	a.wanted.Load(v.Members)
	a.arrived = a.arrived[:0]
	a.earlyAttempts = a.earlyAttempts[:0]
	a.earlyFlushes = a.earlyFlushes[:0]

	st := a.snapshotState(v.ID)
	a.out = append(a.out, st)
	a.acceptState(a.self, st)
}

// Deliver implements core.Algorithm. The host guarantees
// view-synchronous delivery; the ViewID checks are defensive.
func (a *Algorithm) Deliver(from proc.ID, m core.Message) {
	switch msg := m.(type) {
	case *StateMessage:
		if a.phase == phaseExchange && msg.ViewID == a.cur.ID {
			a.acceptState(from, msg)
		}
	case *AttemptMessage:
		if msg.ViewID != a.cur.ID {
			return
		}
		switch a.phase {
		case phaseExchange:
			// FIFO order guarantees the sender's state arrived first,
			// but we may still be waiting on other members' states.
			a.earlyAttempts = append(a.earlyAttempts, early{from: from, s: msg.Session})
		case phaseAttempt:
			a.recordAttempt(from, msg.Session)
		}
	case *FlushMessage:
		if a.variant != VariantDFLS || msg.ViewID != a.cur.ID {
			return
		}
		switch a.phase {
		case phaseExchange, phaseAttempt:
			a.earlyFlushes = append(a.earlyFlushes, early{from: from, s: msg.Session})
		case phaseFlush:
			a.recordFlush(from, msg.Session)
		}
	}
}

// Poll implements core.Algorithm, draining the send queue. The two
// queue buffers alternate: the slice returned here becomes the next
// send queue at the following Poll, so the steady state allocates
// nothing (the host's contract is that a returned slice is invalid
// once Poll is called again).
func (a *Algorithm) Poll() []core.Message {
	if len(a.out) == 0 {
		return nil
	}
	out := a.out
	a.out, a.outSpare = a.outSpare[:0], out
	return out
}

// snapshotState captures this process's durable state for broadcast.
// The message gets its own copy of the group list (the table moves
// members between groups in place); the Who sets are immutable and
// shared.
func (a *Algorithm) snapshotState(viewID int64) *StateMessage {
	return &StateMessage{
		ViewID:        viewID,
		SessionNumber: a.sessionNumber,
		LastPrimary:   a.lastPrimary,
		Formed:        append([]FormedEntry(nil), a.formed...),
		Ambiguous:     append([]view.Session(nil), a.ambiguous...),
	}
}

// acceptState takes the first state of each member of the current view;
// non-members and repeats are not in wanted and are dropped.
func (a *Algorithm) acceptState(from proc.ID, st *StateMessage) {
	if !a.wanted.Contains(from) {
		return
	}
	a.wanted.Remove(from)
	a.arrived = append(a.arrived, arrival{from: from, st: st})
	if a.wanted.Empty() {
		a.resolveAndDecide()
	}
}

// resolveAndDecide runs once all states for the current view are in:
// LEARN/RESOLVE (the rules in the package comment), COMPUTE, DECIDE,
// and — on a positive decision — the attempt broadcast.
//
// Members see the states in different orders, and every rule here is
// order-free: maxSession is a maximum, ACCEPT raises each process's
// entry to the newest session naming it, DELETE and DECIDE quantify
// over all states, and a maxPrimary Number tie goes to the smaller
// sender.
func (a *Algorithm) resolveAndDecide() {
	v := a.cur

	// COMPUTE maxSession and maxPrimary while applying ACCEPT.
	maxSession := a.sessionNumber
	maxPrimary, maxFrom := a.lastPrimary, a.self
	for _, r := range a.arrived {
		st := r.st
		if st.SessionNumber > maxSession {
			maxSession = st.SessionNumber
		}
		if n := st.LastPrimary.Number; n > maxPrimary.Number || n == maxPrimary.Number && r.from < maxFrom {
			maxPrimary, maxFrom = st.LastPrimary, r.from
		}
		a.acceptFormed(&st.LastPrimary)
		for i := range st.Formed {
			a.acceptFormed(&st.Formed[i].Session)
		}
	}

	// DELETE rules on our own ambiguous sessions (YKD and 1-pending).
	if a.variant.prunes() {
		kept := a.ambiguous[:0]
		for _, s := range a.ambiguous {
			if s.Number <= a.lastPrimary.Number {
				continue // superseded by a formed primary containing us
			}
			if a.provablyUnformed(s) {
				continue // LEARN: every member reports it didn't form s
			}
			kept = append(kept, s)
		}
		a.ambiguous = kept
	}

	// COMPUTE maxAmbiguousSessions: the combined ambiguous sessions of
	// all members that still constrain the decision.
	a.scratch = a.scratch[:0]
	for _, r := range a.arrived {
	next:
		for _, s := range r.st.Ambiguous {
			if a.variant != VariantDFLS {
				// YKD-family COMPUTE keeps only sessions newer than
				// maxPrimary; resolved-as-unformed sessions are
				// excluded by the same rule every member can evaluate.
				if s.Number <= maxPrimary.Number {
					continue
				}
				if s.Members.SubsetOf(v.Members) {
					continue
				}
			}
			for i := range a.scratch {
				if a.scratch[i].Equal(s) {
					continue next
				}
			}
			a.scratch = append(a.scratch, s)
		}
	}

	// DECIDE.
	decide := quorum.SubQuorum(v.Members, maxPrimary.Members)
	if decide {
		for _, s := range a.scratch {
			if !quorum.SubQuorum(v.Members, s.Members) {
				decide = false
				break
			}
		}
	}
	if a.variant == VariantOnePending && len(a.scratch) > 0 {
		// 1-pending refuses to pipeline: it attempts only when no
		// unresolved ambiguous session remains anywhere in the view.
		decide = false
	}

	if !decide {
		a.phase = phaseIdle
		return
	}

	a.sessionNumber = maxSession + 1
	s := view.NewSession(a.sessionNumber, v)
	a.ambiguous = append(a.ambiguous, s)
	a.attemptSession = s
	a.attempts.Reset(int(v.Members.Max()) + 1)
	a.attempts.Add(a.self)
	a.phase = phaseAttempt
	a.out = append(a.out, &AttemptMessage{ViewID: v.ID, Session: s})

	pending := a.earlyAttempts
	a.earlyAttempts = nil
	for _, e := range pending {
		if a.phase == phaseAttempt {
			a.recordAttempt(e.from, e.s)
		}
	}
	// Nothing appends to earlyAttempts past the exchange phase, so the
	// drained buffer can be reclaimed for the next view.
	a.earlyAttempts = pending[:0]
	a.checkFormed()
}

// provablyUnformed implements the LEARN rule of Figure 3-3: session s
// was formed by nobody if every member of s — all of whom must be
// present in the current view — reports a lastFormed entry proving it
// never completed s. A process q that formed s would have raised
// lastFormed(o) to at least s.Number for every o in s, so a single
// entry below s.Number witnesses that q did not form it.
//
// The witness scan runs over q's Formed entries rather than the
// members of s: an entry whose Who intersects s.Members is exactly a
// lastFormed(o) report for some o in s (the entries partition q's
// universe by session), so "∃o∈s: FormedFor(o).Number < s.Number"
// becomes one word-parallel Disjoint per entry — O(entries × words)
// per member instead of the O(|s|² × entries) member-pair scan, which
// is what made LEARN the CPU hot spot at kilo-process widths. s is a
// subset of the view, so every member's state is among the arrivals.
func (a *Algorithm) provablyUnformed(s view.Session) bool {
	if !s.Members.SubsetOf(a.cur.Members) {
		return false
	}
	for _, r := range a.arrived {
		if !s.Members.Contains(r.from) {
			continue
		}
		witnessed := false
		for i := range r.st.Formed {
			f := &r.st.Formed[i]
			if f.Session.Number < s.Number && !f.Who.Disjoint(s.Members) {
				witnessed = true
				break
			}
		}
		if !witnessed {
			return false
		}
	}
	return true
}

// acceptFormed applies the ACCEPT rule for one formed-session report.
// The session is passed by pointer purely to avoid copying it on this,
// the hottest call in a state exchange; it is not retained or mutated.
func (a *Algorithm) acceptFormed(s *view.Session) {
	if !s.Contains(a.self) {
		return
	}
	for i := range a.appliedFormed {
		c := &a.appliedFormed[i]
		if c.Number == s.Number && c.Members.Equal(s.Members) {
			return // already applied; entries only rise, so this is a no-op
		}
	}
	if s.Number > a.lastPrimary.Number {
		a.lastPrimary = *s
	}
	a.raiseFormed(s)
	a.appliedFormed[a.appliedNext] = *s
	a.appliedNext = (a.appliedNext + 1) % len(a.appliedFormed)
}

// raiseFormed sets lastFormed(q) = s for every q in s.Members whose
// entry is older than s, by moving Who ∩ s.Members out of every older
// group into s's group: one word-parallel pass per group. ACCEPT and
// formation are both this one move (an attempt's number exceeds every
// session the process has taken part in, so on formation every group
// is older). Processes outside the initial membership are in no group
// and never enter the table. Past proc.InlineProcs each Set operation
// here allocates, so a group is only rewritten when it intersects.
func (a *Algorithm) raiseFormed(s *view.Session) {
	var moved proc.Set
	into, n := -1, 0
	for _, g := range a.formed {
		if g.Session.Number == s.Number {
			into = n
		} else if g.Session.Number < s.Number && !g.Who.Disjoint(s.Members) {
			moved = moved.Union(g.Who.Intersect(s.Members))
			g.Who = g.Who.Diff(s.Members)
			if g.Who.Empty() {
				continue
			}
		}
		a.formed[n] = g
		n++
	}
	clear(a.formed[n:])
	a.formed = a.formed[:n]
	if moved.Empty() {
		return
	}
	if into >= 0 {
		a.formed[into].Who = a.formed[into].Who.Union(moved)
	} else {
		a.formed = append(a.formed, FormedEntry{Session: *s, Who: moved})
	}
}

func (a *Algorithm) recordAttempt(from proc.ID, s view.Session) {
	// Deliver already matched the message's view; within one view every
	// decided member derives the identical attempt session (the view's
	// members, a number computed deterministically from the same state
	// set), so the number comparison is the whole session Equal without
	// the multi-word member compare the full Equal would pay per
	// message at kilo-process widths. Every instance in a view shares
	// that view's member words, so the membership probe stays in cache.
	if s.Number != a.attemptSession.Number || !a.cur.Members.Contains(from) {
		return
	}
	a.attempts.Add(from)
	a.checkFormed()
}

// checkFormed completes the formation once attempts arrived from every
// member of the view. Every path into attempts admits only view members
// (self on decide, the membership guard in recordAttempt), so the
// subset test "attempts ⊇ cur.Members" reduces to an O(1) count
// comparison instead of a word scan per arriving attempt.
func (a *Algorithm) checkFormed() {
	if a.phase != phaseAttempt || a.attempts.Count() != a.curSize {
		return
	}
	s := a.attemptSession
	a.lastPrimary = s
	a.inPrimary = true
	a.raiseFormed(&s)

	if a.variant == VariantDFLS {
		// DFLS defers deletion to a third, flush round in the newly
		// formed primary.
		a.phase = phaseFlush
		a.flushes.Reset(int(a.cur.Members.Max()) + 1)
		a.flushes.Add(a.self)
		a.out = append(a.out, &FlushMessage{ViewID: a.cur.ID, Session: s})
		pending := a.earlyFlushes
		a.earlyFlushes = nil
		for _, e := range pending {
			if a.phase == phaseFlush {
				a.recordFlush(e.from, e.s)
			}
		}
		a.earlyFlushes = pending[:0]
		a.checkFlushed()
		return
	}

	// YKD, unoptimized YKD and 1-pending delete all ambiguous sessions
	// the moment a primary is formed. Truncation (not nil) keeps the
	// slice's capacity for the next attempt.
	a.ambiguous = a.ambiguous[:0]
	a.phase = phaseIdle
}

func (a *Algorithm) recordFlush(from proc.ID, s view.Session) {
	if !s.Equal(a.lastPrimary) || !a.cur.Contains(from) {
		return
	}
	a.flushes.Add(from)
	a.checkFlushed()
}

func (a *Algorithm) checkFlushed() {
	// Like checkFormed: flushes admits only view members, so the subset
	// test is a count comparison.
	if a.phase != phaseFlush || a.flushes.Count() != a.curSize {
		return
	}
	a.ambiguous = a.ambiguous[:0]
	a.phase = phaseIdle
}
