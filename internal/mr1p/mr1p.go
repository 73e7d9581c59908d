// Package mr1p implements Majority-Resilient 1-pending (thesis
// §3.2.4), a dynamic voting algorithm in the style of Lamport's Paxos
// and Malloth & Schiper: it retains at most one ambiguous session, like
// 1-pending, but can resolve it after hearing from only a majority of
// the session's members — at the price of a five-round protocol when a
// pending session exists (two rounds when none does).
//
// # Protocol
//
// On a view change, a process holding a pending ambiguous session A
// broadcasts what it knows — ⟨A, num, status⟩ (round 1). Members that
// moved past A answer formed or aborted (round 2); members still
// holding A have broadcast their own round-1 message, which doubles as
// their answer. Once reports from a majority of A's members are in,
// each holder computes a resolution call — the highest-num status,
// downgrading a bare "sent" to try-fail — and broadcasts it (round 3).
// A majority of attempt calls resolves A as formed; a majority of
// try-fail calls abandons it. Either way the process then runs
// try-new: if the current view is a subquorum of its current primary
// it proposes the view (round 4, ⟨V,1⟩); proposals from all members
// trigger attempt broadcasts (round 5), and attempts from a majority
// of V form the primary.
//
// Two clarifications of the thesis pseudocode, which this
// implementation documents rather than hides:
//
//   - The literal "upon ⟨V, formed⟩ … is-primary = true" would mark a
//     process primary while it sits in a different view, breaking the
//     thesis's own invariant that all members of a view agree on its
//     primacy. We set is-primary only when the formed view is the
//     current view; resolving an old session as formed updates
//     cur-primary and formedViews, then proceeds to try-new.
//   - The response rules are an else-if chain: a process never answers
//     "aborted" about the session it itself still holds pending.
package mr1p

import (
	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/quorum"
	"dynvote/internal/view"
)

// Name is the algorithm identifier used in experiment output.
const Name = "mr1p"

// status is the progress flag a process attaches to its pending
// ambiguous session (thesis §3.2.4).
type status byte

const (
	statusNone status = iota
	// statusSent: the view was proposed (round 4 sent).
	statusSent
	// statusAttempt: all proposals arrived and an attempt was sent.
	statusAttempt
	// statusTryFail: a resolution round concluded the attempt failed.
	statusTryFail
)

func (s status) String() string {
	switch s {
	case statusNone:
		return "none"
	case statusSent:
		return "sent"
	case statusAttempt:
		return "attempt"
	case statusTryFail:
		return "try-fail"
	default:
		return "status(?)"
	}
}

// Algorithm is one process's MR1p instance. It implements
// core.Algorithm; it is not safe for concurrent use.
type Algorithm struct {
	self    proc.ID
	initial view.View

	curPrimary  view.View
	ambiguous   *view.View
	num         int64
	status      status
	inPrimary   bool
	formedViews map[int64]view.View

	// Per-view protocol state, reset on every view change. The tallies
	// live in small sorted-slice tables (see tables.go) that truncate
	// in place, never reallocate: a sweep run triggers thousands of
	// view changes, and first the per-change map churn and then the
	// per-delivery map probes dominated the algorithm's profile.
	cur            view.View
	queryStatuses  queryTable // round-1 reports about our ambiguous session
	resolveFired   bool
	proposals      proc.Set
	attemptSenders senderTable
	tryFailSenders senderTable

	out []core.Message
	// outSpare is Poll's double buffer; see ykd.Algorithm.Poll.
	outSpare []core.Message
}

var (
	_ core.Algorithm         = (*Algorithm)(nil)
	_ core.AmbiguousReporter = (*Algorithm)(nil)
	_ core.PrimaryReporter   = (*Algorithm)(nil)
	_ core.Resetter          = (*Algorithm)(nil)
)

// New returns an MR1p instance for process self. The initial view must
// contain all participating processes; it is the primary everyone
// starts in.
func New(self proc.ID, initial view.View) *Algorithm {
	a := new(Algorithm)
	a.Reset(self, initial)
	return a
}

// Factory returns the host-facing description of MR1p.
func Factory() core.Factory {
	return core.Factory{
		Name:  Name,
		New:   func(self proc.ID, initial view.View) core.Algorithm { return New(self, initial) },
		Codec: Codec{},
	}
}

// Name implements core.Algorithm.
func (a *Algorithm) Name() string { return Name }

// InPrimary implements core.Algorithm.
func (a *Algorithm) InPrimary() bool { return a.inPrimary }

// PrimaryMembers returns the membership of the primary this process
// believes current; meaningful while InPrimary is true.
func (a *Algorithm) PrimaryMembers() proc.Set { return a.curPrimary.Members }

// AmbiguousSessionCount reports 0 or 1: MR1p retains at most one
// pending session by construction.
func (a *Algorithm) AmbiguousSessionCount() int {
	if a.ambiguous != nil {
		return 1
	}
	return 0
}

// FormedViewCount reports the size of the formedViews log, for tests
// of the reset optimization.
func (a *Algorithm) FormedViewCount() int { return len(a.formedViews) }

// Poll implements core.Algorithm, draining the send queue. The two
// queue buffers alternate so the steady state allocates nothing; a
// returned slice is valid until the next Poll (the core contract).
func (a *Algorithm) Poll() []core.Message {
	if len(a.out) == 0 {
		return nil
	}
	out := a.out
	a.out, a.outSpare = a.outSpare[:0], out
	return out
}

// Reset implements core.Resetter and is the one initialisation path
// (New is a zero value plus Reset): the instance starts in the
// initial view as its primary, with the retained maps cleared and the
// send-queue buffers truncated instead of reallocated.
func (a *Algorithm) Reset(self proc.ID, initial view.View) {
	a.self = self
	a.initial = initial
	a.curPrimary = initial
	a.ambiguous = nil
	a.num = 0
	a.status = statusNone
	a.inPrimary = true
	if a.formedViews == nil {
		a.formedViews = make(map[int64]view.View, 1)
	}
	clear(a.formedViews)
	a.formedViews[initial.ID] = initial

	a.cur = initial
	a.queryStatuses.reset()
	a.resolveFired = false
	a.proposals = proc.Set{}
	a.attemptSenders.reset()
	a.tryFailSenders.reset()
	a.out = clearMessages(a.out)
	a.outSpare = clearMessages(a.outSpare)
}

// clearMessages truncates a send-queue buffer, dropping the message
// pointers parked in its full backing array so they can be collected.
func clearMessages(out []core.Message) []core.Message {
	out = out[:cap(out)]
	clear(out)
	return out[:0]
}

// ViewChange implements core.Algorithm: reset per-view state, then
// either start resolving the pending session or try the new view.
func (a *Algorithm) ViewChange(v view.View) {
	a.cur = v
	a.inPrimary = false
	a.queryStatuses.reset()
	a.resolveFired = false
	a.proposals = proc.Set{}
	a.attemptSenders.reset()
	a.tryFailSenders.reset()

	if a.ambiguous != nil {
		amb := *a.ambiguous
		a.out = append(a.out, &QueryMessage{
			ViewID: v.ID, Ambiguous: amb, Num: a.num, Status: byte(a.status),
		})
		a.queryStatuses.set(a.self, a.num, a.status)
		a.checkResolveTally()
		return
	}
	a.tryNew()
}

// Deliver implements core.Algorithm.
func (a *Algorithm) Deliver(from proc.ID, m core.Message) {
	switch msg := m.(type) {
	case *QueryMessage:
		if msg.ViewID != a.cur.ID {
			return
		}
		a.onQuery(from, msg)
	case *ReplyMessage:
		if msg.ViewID != a.cur.ID || a.ambiguous == nil || msg.About.ID != a.ambiguous.ID {
			return
		}
		switch msg.Info {
		case InfoFormed:
			a.resolveFormed(msg.About)
		case InfoAborted:
			a.tryNew()
		}
	case *ProposeMessage:
		if msg.ViewID != a.cur.ID || msg.Proposed.ID != a.cur.ID {
			return
		}
		a.proposals = a.proposals.With(from)
		a.checkProposals()
	case *AttemptMessage:
		if msg.ViewID != a.cur.ID {
			return
		}
		a.recordAttempt(from, msg.Target)
	case *TryFailMessage:
		if msg.ViewID != a.cur.ID {
			return
		}
		a.recordTryFail(from, msg.Target)
	}
}

// onQuery answers a round-1 report about session A (thesis: "upon
// receipt of ⟨V, n, s⟩ from some process").
func (a *Algorithm) onQuery(from proc.ID, msg *QueryMessage) {
	about := msg.Ambiguous
	switch {
	case a.ambiguous != nil && about.ID == a.ambiguous.ID:
		// A fellow holder's report; its query doubles as its answer.
		a.queryStatuses.set(from, msg.Num, status(msg.Status))
		a.checkResolveTally()
	case about.Contains(a.self):
		if _, ok := a.formedViews[about.ID]; ok {
			a.out = append(a.out, &ReplyMessage{ViewID: a.cur.ID, About: about, Info: InfoFormed})
		} else {
			// We were a member and moved past it without forming it:
			// it can never have formed.
			a.out = append(a.out, &ReplyMessage{ViewID: a.cur.ID, About: about, Info: InfoAborted})
		}
	}
}

// checkResolveTally fires round 3 once reports from a majority of the
// pending session's members are in: compute the highest-num status,
// downgrade "sent" to try-fail, and broadcast the call.
func (a *Algorithm) checkResolveTally() {
	if a.resolveFired || a.ambiguous == nil {
		return
	}
	amb := *a.ambiguous
	if !quorum.MajorityCount(a.queryStatuses.len(), amb.Size()) {
		return
	}
	a.resolveFired = true

	// Deterministically pick the status of a maximum-num report:
	// smallest process ID among the maxima (bestQuery's ascending scan
	// realizes the tie-break).
	best, _ := a.queryStatuses.bestQuery(amb)
	call := best.status
	if call == statusSent {
		call = statusTryFail
	}
	a.num = best.num + 1
	a.status = call

	switch call {
	case statusAttempt:
		a.out = append(a.out, &AttemptMessage{ViewID: a.cur.ID, Target: amb})
		a.recordAttempt(a.self, amb)
	default: // statusTryFail
		a.out = append(a.out, &TryFailMessage{ViewID: a.cur.ID, Target: amb})
		a.recordTryFail(a.self, amb)
	}
}

func (a *Algorithm) recordAttempt(from proc.ID, target view.View) {
	if !target.Contains(from) {
		return
	}
	s := a.attemptSenders.add(target.ID, from)
	if !quorum.MajorityCount(s.IntersectCount(target.Members), target.Size()) {
		return
	}
	switch {
	case target.ID == a.cur.ID:
		a.resolveFormed(target)
	case a.ambiguous != nil && target.ID == a.ambiguous.ID:
		a.resolveFormed(target)
	}
}

func (a *Algorithm) recordTryFail(from proc.ID, target view.View) {
	if !target.Contains(from) {
		return
	}
	s := a.tryFailSenders.add(target.ID, from)
	if a.ambiguous == nil || target.ID != a.ambiguous.ID {
		return
	}
	if quorum.MajorityCount(s.IntersectCount(target.Members), target.Size()) {
		a.tryNew()
	}
}

// resolveFormed records that view f was formed as a primary. If f is
// the current view this is a formation; otherwise it resolves the
// pending session and moves on to try-new.
func (a *Algorithm) resolveFormed(f view.View) {
	if _, done := a.formedViews[f.ID]; done {
		return
	}
	a.formedViews[f.ID] = f
	a.curPrimary = f
	a.ambiguous = nil
	a.num = 0
	a.status = statusNone

	// The reset optimization of §3.2.4: a formed primary equal to the
	// original view supersedes the entire log. Clear in place; the map
	// is long-lived.
	if f.Members.Equal(a.initial.Members) {
		clear(a.formedViews)
		a.formedViews[f.ID] = f
	}

	if f.ID == a.cur.ID {
		a.inPrimary = true
		return
	}
	a.tryNew()
}

// tryNew proposes the current view as a primary if it is a subquorum
// of the current primary (thesis subroutine try-new).
func (a *Algorithm) tryNew() {
	if !quorum.SubQuorum(a.cur.Members, a.curPrimary.Members) {
		a.ambiguous = nil
		a.num = 0
		a.status = statusNone
		return
	}
	amb := a.cur
	a.ambiguous = &amb
	a.num = 1
	a.status = statusSent
	a.out = append(a.out, &ProposeMessage{ViewID: a.cur.ID, Proposed: a.cur})
	a.proposals = a.proposals.With(a.self)
	a.checkProposals()
}

// checkProposals fires round 5 once proposals from every member of the
// current view are in.
func (a *Algorithm) checkProposals() {
	if a.status != statusSent || a.ambiguous == nil || a.ambiguous.ID != a.cur.ID {
		return
	}
	if !a.cur.Members.SubsetOf(a.proposals) {
		return
	}
	a.status = statusAttempt
	a.num = 2
	a.out = append(a.out, &AttemptMessage{ViewID: a.cur.ID, Target: a.cur})
	a.recordAttempt(a.self, a.cur)
}
