// Package naive implements dynamic voting WITHOUT agreement — the
// broken approach whose failure motivates the entire thesis (Figure
// 3-1). Each process exchanges one round of state and then unilaterally
// declares the view a primary if it holds a subquorum of the newest
// primary it knows. Without the second, attempt round, members can
// disagree about whether a primary was formed, and a later partition
// can yield two concurrent primaries.
//
// It exists so the simulator's safety checker has something real to
// catch (see the package tests and examples/partitiondemo); it must
// never be used for anything else.
package naive

import (
	"fmt"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/quorum"
	"dynvote/internal/view"
	"dynvote/internal/wire"
)

// Name is the algorithm identifier.
const Name = "naive-no-agreement"

// Algorithm is the naive dynamic voting rule of Figure 3-1.
type Algorithm struct {
	self proc.ID

	lastPrimary view.Session
	counter     int64
	inPrimary   bool

	cur       view.View
	states    map[proc.ID]view.Session
	statesGot int
	out       []core.Message
}

var (
	_ core.Algorithm       = (*Algorithm)(nil)
	_ core.PrimaryReporter = (*Algorithm)(nil)
	_ core.Resetter        = (*Algorithm)(nil)
)

// New returns an instance for process self.
func New(self proc.ID, initial view.View) *Algorithm {
	return &Algorithm{
		self:        self,
		lastPrimary: view.NewSession(0, initial),
		inPrimary:   true,
		cur:         initial,
		states:      make(map[proc.ID]view.Session),
	}
}

// Factory returns the host-facing description.
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

// PrimaryMembers implements core.PrimaryReporter.
func (a *Algorithm) PrimaryMembers() proc.Set { return a.lastPrimary.Members }

// Reset implements core.Resetter: back to the just-constructed state,
// reusing the retained states map.
func (a *Algorithm) Reset(self proc.ID, initial view.View) {
	a.self = self
	a.lastPrimary = view.NewSession(0, initial)
	a.counter = 0
	a.inPrimary = true
	a.cur = initial
	clear(a.states)
	a.statesGot = 0
	a.out = a.out[:0]
}

// ViewChange broadcasts the single state round. The states map is
// cleared in place rather than reallocated per view.
func (a *Algorithm) ViewChange(v view.View) {
	a.cur = v
	a.inPrimary = false
	clear(a.states)
	a.states[a.self] = a.lastPrimary
	a.statesGot = 1
	a.out = append(a.out, &StateMessage{ViewID: v.ID, LastPrimary: a.lastPrimary})
	a.maybeDeclare()
}

// Deliver implements core.Algorithm.
func (a *Algorithm) Deliver(from proc.ID, m core.Message) {
	msg, ok := m.(*StateMessage)
	if !ok || msg.ViewID != a.cur.ID || !a.cur.Contains(from) {
		return
	}
	if _, dup := a.states[from]; dup {
		return
	}
	a.states[from] = msg.LastPrimary
	a.statesGot++
	a.maybeDeclare()
}

// maybeDeclare is the fatal shortcut: once all states are in, the
// process declares the primary immediately, ASSUMING everyone else
// will too — precisely the assumption Figure 3-1 breaks. Split brain
// leaves equal-numbered sessions with different members; the smallest
// member's wins, so that a run is a function of its seed alone.
func (a *Algorithm) maybeDeclare() {
	if a.statesGot != a.cur.Size() {
		return
	}
	newest := a.lastPrimary
	a.cur.Members.ForEach(func(p proc.ID) {
		if s := a.states[p]; s.Number > newest.Number {
			newest = s
		}
	})
	if quorum.SubQuorum(a.cur.Members, newest.Members) {
		a.counter = newest.Number + 1
		a.lastPrimary = view.NewSession(a.counter, a.cur)
		a.inPrimary = true
	}
}

// Poll implements core.Algorithm.
func (a *Algorithm) Poll() []core.Message {
	if len(a.out) == 0 {
		return nil
	}
	out := a.out
	a.out = nil
	return out
}

// StateMessage is the naive algorithm's single-round exchange.
type StateMessage struct {
	ViewID      int64
	LastPrimary view.Session
}

// Kind implements core.Message.
func (m *StateMessage) Kind() string { return "naive/state" }

// Codec encodes and decodes naive messages.
type Codec struct{}

var _ core.Codec = Codec{}

// Encode implements core.Codec.
func (Codec) Encode(m core.Message) ([]byte, error) {
	msg, ok := m.(*StateMessage)
	if !ok {
		return nil, fmt.Errorf("naive: cannot encode %T", m)
	}
	var w wire.Writer
	w.Varint(msg.ViewID)
	w.Session(msg.LastPrimary)
	return w.Bytes(), nil
}

// Decode implements core.Codec.
func (Codec) Decode(b []byte) (core.Message, error) {
	r := wire.NewReader(b)
	m := &StateMessage{ViewID: r.Varint(), LastPrimary: r.Session()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("naive: decode: %w", err)
	}
	return m, nil
}
