package ykd

import (
	"fmt"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/view"
	"dynvote/internal/wire"
)

// snapshotVersion guards the durable-state encoding.
const snapshotVersion byte = 1

var _ core.Snapshotter = (*Algorithm)(nil)

// Snapshot implements core.Snapshotter: it encodes the durable state
// of §3.1 — the initial view, last primary, lastFormed table,
// ambiguous sessions and session number. Per-view protocol state is
// deliberately not persisted: a crash aborts any exchange in progress,
// exactly like a view change.
func (a *Algorithm) Snapshot() ([]byte, error) {
	var w wire.Writer
	w.Byte(snapshotVersion)
	w.Byte(byte(a.variant))
	w.Varint(int64(a.self))
	w.Session(a.initial)
	w.Session(a.lastPrimary)
	w.Varint(a.sessionNumber)

	w.Uvarint(uint64(len(a.formed)))
	for _, fe := range a.formed {
		w.Session(fe.Session)
		w.Set(fe.Who)
	}
	w.Uvarint(uint64(len(a.ambiguous)))
	for _, s := range a.ambiguous {
		w.Session(s)
	}
	return w.Bytes(), nil
}

// Restore implements core.Snapshotter. The receiver must have been
// created with New for the same variant, process and initial view; the
// snapshot's identity fields are verified against it.
func (a *Algorithm) Restore(data []byte) error {
	r := wire.NewReader(data)
	if v := r.Byte(); v != snapshotVersion {
		return fmt.Errorf("ykd: snapshot version %d not supported", v)
	}
	if got := Variant(r.Byte()); got != a.variant {
		return fmt.Errorf("ykd: snapshot is for variant %v, this instance runs %v", got, a.variant)
	}
	if got := proc.ID(r.Varint()); got != a.self {
		return fmt.Errorf("ykd: snapshot belongs to %v, this instance is %v", got, a.self)
	}
	initial := r.Session()
	if !initial.Equal(a.initial) {
		return fmt.Errorf("ykd: snapshot initial view %v does not match %v", initial, a.initial)
	}

	lastPrimary := r.Session()
	sessionNumber := r.Varint()

	nf := r.Uvarint()
	if nf > maxListLen {
		return fmt.Errorf("ykd: snapshot formed-group count %d too large", nf)
	}
	// The table is a partition of the initial membership and the group
	// move in raiseFormed relies on it; a snapshot is outside input, so
	// overlapping, empty or missing groups are refused here.
	formed := make([]FormedEntry, 0, nf)
	var covered proc.Set
	for i := uint64(0); i < nf; i++ {
		fe := FormedEntry{Session: r.Session(), Who: r.Set()}
		if r.Err() != nil {
			break
		}
		if fe.Who.Empty() || !fe.Who.Disjoint(covered) {
			return fmt.Errorf("ykd: snapshot formed group %d (%v for %v) is empty or overlaps an earlier one", i, fe.Session, fe.Who)
		}
		covered = covered.Union(fe.Who)
		formed = append(formed, fe)
	}
	na := r.Uvarint()
	if na > maxListLen {
		return fmt.Errorf("ykd: snapshot ambiguous count %d too large", na)
	}
	ambiguous := make([]view.Session, 0, na)
	for i := uint64(0); i < na && r.Err() == nil; i++ {
		ambiguous = append(ambiguous, r.Session())
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("ykd: restore: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("ykd: restore: %d trailing bytes", r.Remaining())
	}
	if !covered.Equal(a.initial.Members) {
		return fmt.Errorf("ykd: snapshot formed groups cover %v, not the initial membership %v", covered, a.initial.Members)
	}

	a.lastPrimary = lastPrimary
	a.sessionNumber = sessionNumber
	a.formed = formed
	a.ambiguous = ambiguous
	// A recovered process is alone until the membership service says
	// otherwise, and certainly not in a primary. Whatever exchange the
	// instance was in before Restore is not part of the restored state.
	a.inPrimary = false
	a.abandonExchange()
	a.out = nil
	return nil
}
