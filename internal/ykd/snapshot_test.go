package ykd_test

import (
	"bytes"
	"encoding/hex"
	"testing"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/view"
	"dynvote/internal/wire"
	"dynvote/internal/ykd"
)

func initial(n int) view.View { return view.View{ID: 0, Members: proc.Universe(n)} }

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a := ykd.New(ykd.VariantYKD, 2, initial(5))
	// Give it durable state beyond the defaults.
	a.ViewChange(view.View{ID: 1, Members: proc.NewSet(0, 1, 2)})
	a.Poll()
	data, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b := ykd.New(ykd.VariantYKD, 2, initial(5))
	if err := b.Restore(data); err != nil {
		t.Fatal(err)
	}
	if b.InPrimary() {
		t.Error("restored instance must not be in primary")
	}
	if !b.LastPrimary().Equal(a.LastPrimary()) {
		t.Errorf("lastPrimary = %v, want %v", b.LastPrimary(), a.LastPrimary())
	}
	if b.AmbiguousSessionCount() != a.AmbiguousSessionCount() {
		t.Errorf("ambiguous = %d, want %d", b.AmbiguousSessionCount(), a.AmbiguousSessionCount())
	}
}

func TestRestoreRejectsMismatches(t *testing.T) {
	a := ykd.New(ykd.VariantYKD, 2, initial(5))
	data, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	wrongVariant := ykd.New(ykd.VariantDFLS, 2, initial(5))
	if err := wrongVariant.Restore(data); err == nil {
		t.Error("restore across variants accepted")
	}
	wrongSelf := ykd.New(ykd.VariantYKD, 3, initial(5))
	if err := wrongSelf.Restore(data); err == nil {
		t.Error("restore of another process's snapshot accepted")
	}
	wrongWorld := ykd.New(ykd.VariantYKD, 2, initial(7))
	if err := wrongWorld.Restore(data); err == nil {
		t.Error("restore with different initial view accepted")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	a := ykd.New(ykd.VariantYKD, 0, initial(3))
	good, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{},
		{99},                                    // bad version
		good[:len(good)/2],                      // truncated
		append(append([]byte{}, good...), 0xAB), // trailing bytes
	}
	for i, data := range cases {
		b := ykd.New(ykd.VariantYKD, 0, initial(3))
		if err := b.Restore(data); err == nil {
			t.Errorf("case %d: garbage snapshot accepted", i)
		}
	}
}

// All four variants implement the persistence contract.
func TestAllVariantsSnapshot(t *testing.T) {
	for _, v := range allVariants {
		a := ykd.New(v, 1, initial(4))
		var s core.Snapshotter = a
		data, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		b := ykd.New(v, 1, initial(4))
		if err := b.Restore(data); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

// pump delivers every queued message among the instances once: each
// Poll'ed broadcast reaches every other instance, filtered by keep.
func pump(algs map[proc.ID]*ykd.Algorithm, keep func(core.Message) bool) {
	for from, a := range algs {
		for _, m := range a.Poll() {
			if !keep(m) {
				continue
			}
			for to, b := range algs {
				if to != from {
					b.Deliver(from, m)
				}
			}
		}
	}
}

// TestRestoreOntoUsedInstance: Restore replaces the durable state, so
// nothing learned from the replaced state may survive it. p0 and p1
// form S1, exchange states once more (p0 now remembers having applied
// S1), then p0 is restored from a snapshot older than S1. When p1
// reports S1 again, p0 must accept it exactly as a fresh instance
// restored from the same bytes does.
func TestRestoreOntoUsedInstance(t *testing.T) {
	all := func(core.Message) bool { return true }
	statesOnly := func(m core.Message) bool { _, ok := m.(*ykd.StateMessage); return ok }
	pair := view.View{Members: proc.NewSet(0, 1)}

	p0 := ykd.New(ykd.VariantYKD, 0, initial(3))
	p1 := ykd.New(ykd.VariantYKD, 1, initial(3))
	algs := map[proc.ID]*ykd.Algorithm{0: p0, 1: p1}
	before, err := p0.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	enter := func(id int64, keep func(core.Message) bool, insts map[proc.ID]*ykd.Algorithm) {
		pair.ID = id
		for _, a := range insts {
			a.ViewChange(pair)
		}
		pump(insts, keep) // states
		pump(insts, keep) // attempts
	}
	enter(1, all, algs)
	s1 := p1.LastPrimary()
	if !p0.InPrimary() || s1.Number != 1 {
		t.Fatalf("setup: S1 not formed (p0 primary %v, p1 lastPrimary %v)", p0.InPrimary(), s1)
	}
	enter(2, statesOnly, algs)

	if err := p0.Restore(before); err != nil {
		t.Fatal(err)
	}
	fresh := ykd.New(ykd.VariantYKD, 0, initial(3))
	if err := fresh.Restore(before); err != nil {
		t.Fatal(err)
	}

	for i, inst := range []*ykd.Algorithm{fresh, p0} {
		name := [...]string{"fresh", "used"}[i]
		if got := inst.LastPrimary(); got.Number != 0 {
			t.Fatalf("%s instance: lastPrimary after Restore = %v, want the initial session", name, got)
		}
		enter(int64(3+i), statesOnly, map[proc.ID]*ykd.Algorithm{0: inst, 1: p1})
		if got := inst.LastPrimary(); !got.Equal(s1) {
			t.Errorf("%s instance: lastPrimary = %v after p1 re-reported %v", name, got, s1)
		}
	}
}

// TestRestoreRejectsNonPartition: the formed groups of a snapshot must
// partition the initial membership.
func TestRestoreRejectsNonPartition(t *testing.T) {
	w := view.Session{Members: proc.Universe(3)}
	s1 := view.Session{Number: 1, Members: proc.NewSet(0, 1)}
	cases := map[string][]ykd.FormedEntry{
		"overlap": {{Session: s1, Who: proc.NewSet(0, 1)}, {Session: w, Who: proc.NewSet(1, 2)}},
		"missing": {{Session: s1, Who: proc.NewSet(0, 1)}},
		"empty":   {{Session: s1, Who: proc.NewSet(0, 1)}, {Session: w, Who: proc.NewSet(2)}, {Session: w}},
		"extra":   {{Session: s1, Who: proc.NewSet(0, 1)}, {Session: w, Who: proc.NewSet(2, 3)}},
		"none":    nil,
	}
	for name, formed := range cases {
		var sw wire.Writer
		sw.Byte(1) // snapshotVersion
		sw.Byte(byte(ykd.VariantYKD))
		sw.Varint(0) // self
		sw.Session(w)
		sw.Session(s1)
		sw.Varint(1) // sessionNumber
		sw.Uvarint(uint64(len(formed)))
		for _, fe := range formed {
			sw.Session(fe.Session)
			sw.Set(fe.Who)
		}
		sw.Uvarint(0) // ambiguous
		a := ykd.New(ykd.VariantYKD, 0, initial(3))
		if err := a.Restore(sw.Bytes()); err == nil {
			t.Errorf("%s: snapshot whose groups do not partition the initial membership accepted", name)
		}
		if got := a.LastPrimary(); got.Number != 0 {
			t.Errorf("%s: rejected snapshot changed lastPrimary to %v", name, got)
		}
	}
}

// TestRestoreParentSnapshot pins snapshotVersion 1 against bytes
// written by the commit before the table was stored as its partition
// (p2 of 5: lastPrimary S2{p0,p1,p2}, groups S2→{p0,p1,p2}, S1→{p3},
// S0→{p4}, one ambiguous session, session number 3).
func TestRestoreParentSnapshot(t *testing.T) {
	data, err := hex.DecodeString("01010400011f000000000000000401070000000000000006" +
		"030401070000000000000001070000000000000002010f00000000000000010800000000000000" +
		"00011f000000000000000110000000000000000106010600000000000000")
	if err != nil {
		t.Fatal(err)
	}
	a := ykd.New(ykd.VariantYKD, 2, initial(5))
	if err := a.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got, want := a.LastPrimary(), (view.Session{Number: 2, Members: proc.NewSet(0, 1, 2)}); !got.Equal(want) {
		t.Errorf("lastPrimary = %v, want %v", got, want)
	}
	if a.AmbiguousSessionCount() != 1 {
		t.Errorf("ambiguous = %d, want 1", a.AmbiguousSessionCount())
	}
	again, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("re-encoded snapshot differs:\n got %x\nwant %x", again, data)
	}
}
