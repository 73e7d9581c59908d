package sim

import (
	"fmt"
	"strings"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/trace"
)

// SafetyError reports a violated invariant, the thesis's trial-by-fire
// failure condition (§2.2: "at all times there was at most one primary
// component declared. Every process in a view agreed on whether or not
// that view was a primary").
type SafetyError struct {
	// Reason describes the violation.
	Reason string
}

// Error implements error.
func (e *SafetyError) Error() string { return "sim: safety violation: " + e.Reason }

// ViolationError is a checker failure with the trace recorder's
// retained history attached — what the driver returns when a run with
// Config.Trace set trips an invariant. The history is the ring
// buffer's contents at the moment of the violation, already captured;
// Error renders it so that any printer of the error chain dumps the
// run's last recorded moments.
type ViolationError struct {
	// Err is the underlying checker error (typically *SafetyError).
	Err error
	// History is the retained trace, oldest first.
	History []trace.Event
}

// Error renders the violation followed by the retained trace.
func (e *ViolationError) Error() string {
	var b strings.Builder
	b.WriteString(e.Err.Error())
	fmt.Fprintf(&b, "\n--- trace: last %d events before the violation ---\n", len(e.History))
	for _, ev := range e.History {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	b.WriteString("--- end trace ---")
	return b.String()
}

// Unwrap exposes the underlying checker error to errors.Is/As.
func (e *ViolationError) Unwrap() error { return e.Err }

// CheckOnePrimary verifies that at most one component is a declared
// primary. A component — identified by its members' shared current
// view — counts as a declared primary when every one of its members
// reports InPrimary.
func CheckOnePrimary(c *Cluster) error {
	views := c.CurrentViews()
	first := -1 // the first primary's index; formatted only if a second turns up
	for i := range views {
		if !allInPrimary(c, views[i].Members) {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		return &SafetyError{Reason: fmt.Sprintf(
			"two primary components declared: %s and %s", views[first], views[i])}
	}
	return nil
}

// CheckStableAgreement verifies the quiescent-state invariant: within
// each view, all members agree on whether the view is a primary, and
// members that claim primacy agree on its membership. Only valid when
// the cluster is quiescent.
func CheckStableAgreement(c *Cluster) error {
	if !c.Quiescent() {
		return fmt.Errorf("sim: agreement check requires a quiescent cluster")
	}
	for _, v := range c.CurrentViews() {
		inP, outP := 0, 0
		var primarySet proc.Set
		havePrimarySet := false
		var disagree bool
		v.Members.Diff(c.Crashed()).ForEach(func(p proc.ID) {
			alg := c.Algorithm(p)
			if !alg.InPrimary() {
				outP++
				return
			}
			inP++
			if pr, ok := alg.(core.PrimaryReporter); ok {
				if !havePrimarySet {
					primarySet = pr.PrimaryMembers()
					havePrimarySet = true
				} else if !primarySet.Equal(pr.PrimaryMembers()) {
					disagree = true
				}
			}
		})
		if inP > 0 && outP > 0 {
			return &SafetyError{Reason: fmt.Sprintf(
				"members of %s disagree on primacy (%d in, %d out)", v, inP, outP)}
		}
		if disagree {
			return &SafetyError{Reason: fmt.Sprintf(
				"members of %s disagree on the primary's membership", v)}
		}
	}
	return nil
}

// allInPrimary reports whether every live member is in the primary;
// crashed members' frozen state is ignored, and a view with no live
// members never counts.
func allInPrimary(c *Cluster, members proc.Set) bool {
	live := members.Diff(c.Crashed())
	if live.Empty() {
		return false
	}
	all := true
	live.ForEach(func(p proc.ID) {
		if !c.Algorithm(p).InPrimary() {
			all = false
		}
	})
	return all
}

// HasPrimary reports whether some component is a declared primary —
// the availability criterion of every figure in Chapter 4.
func HasPrimary(c *Cluster) bool {
	for _, v := range c.CurrentViews() {
		if allInPrimary(c, v.Members) {
			return true
		}
	}
	return false
}
