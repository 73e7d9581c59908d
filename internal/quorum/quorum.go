// Package quorum implements the voting rules of the thesis.
//
// Dynamic linear voting (Jajodia & Mutchler, thesis §3) admits a group
// X as the successor of a group Y if X holds more than half of Y's
// members, or exactly half including the lexically smallest member of
// Y. The same SUBQUORUM primitive is shared by YKD, its variants, and
// MR1p (thesis Fig 3-4); the simple-majority baseline uses the plain
// majority rule against the original process set.
//
// Both predicates sit on the simulator's hot path — every DECIDE, every
// resolution tally — and run as one fused word-parallel loop over the
// sets' word lists (proc.Set.Bitmap), computing |y|, |x ∩ y| and the
// tie-breaker membership in a single pass with no allocation. The same
// loop serves every universe width (DESIGN.md "Ablations" has the
// measurement against a straight-line ≤256-process case).
package quorum

import (
	"math/bits"

	"dynvote/internal/proc"
)

// SubQuorum reports whether x is a subquorum of y under dynamic linear
// voting:
//
//   - more than half the processes in y are also in x, or
//   - exactly half of y is in x and the lexically smallest process of
//     y is in x.
//
// An empty y has no subquorums: with no previous membership to anchor
// to, no group may claim succession.
func SubQuorum(x, y proc.Set) bool {
	xw, yw := x.Bitmap(), y.Bitmap()
	total, common := 0, 0
	tie, seen := false, false
	for i, w := range yw {
		if w == 0 {
			continue
		}
		var xv uint64
		if i < len(xw) {
			xv = xw[i]
		}
		total += bits.OnesCount64(w)
		common += bits.OnesCount64(xv & w)
		if !seen {
			// The first nonzero word of y holds its lexically smallest
			// member; w & -w isolates that lowest set bit — the dynamic
			// linear voting tie-breaker — which must also be in x.
			seen = true
			tie = xv&(w&-w) != 0
		}
	}
	if total == 0 {
		return false
	}
	if 2*common > total {
		return true
	}
	return 2*common == total && tie
}

// Majority reports whether x holds a strict majority of y.
func Majority(x, y proc.Set) bool {
	xw, yw := x.Bitmap(), y.Bitmap()
	total, common := 0, 0
	for i, w := range yw {
		if w == 0 {
			continue
		}
		total += bits.OnesCount64(w)
		if i < len(xw) {
			common += bits.OnesCount64(xw[i] & w)
		}
	}
	return total > 0 && 2*common > total
}

// MajorityCount reports whether have out of total constitutes a strict
// majority. Used when counting messages rather than comparing sets.
func MajorityCount(have, total int) bool {
	return total > 0 && 2*have > total
}
