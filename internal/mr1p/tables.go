package mr1p

import (
	"dynvote/internal/proc"
	"dynvote/internal/view"
)

// Per-view tally tables. The thesis's resolution protocol tallies
// round-1 reports by sender and attempt/try-fail calls by target view;
// both tallies previously lived in maps that were cleared on every view
// change. A soak triggers a view change per connectivity change, and
// the map probes (hash, bucket walk) on every delivery dominated MR1p's
// CPU profile once the allocation work was gone. The tables below are
// small sorted slices — a resolution round references one or two
// target views, and a view holds at most the system's process count of
// reporters — so a lookup is a binary search over a few cache lines,
// insertion keeps order with a memmove, and clearing is a length
// truncation that retains the backing array across view changes. The
// insertion points are found by binary search so the tables stay cheap
// at the scaling sweep's 128–256 reporters, not just the thesis's 64.
// Against maps the end-to-end difference is unresolved (DESIGN.md
// "Ablations"); the micro-benchmarks in tables_bench_test.go are what
// the tables rest on.

// queryEntry is one round-1 report: who sent it and what they knew.
type queryEntry struct {
	from   proc.ID
	num    int64
	status status
}

// queryTable records round-1 reports about the pending ambiguous
// session, sorted by sender ID.
type queryTable struct {
	entries []queryEntry
}

// reset empties the table, keeping capacity.
func (t *queryTable) reset() { t.entries = t.entries[:0] }

// len reports the number of distinct reporters.
func (t *queryTable) len() int { return len(t.entries) }

// set inserts or overwrites the report from the given sender,
// preserving ascending sender order.
func (t *queryTable) set(from proc.ID, num int64, s status) {
	// Binary search for the first entry with sender ≥ from.
	i, hi := 0, len(t.entries)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if t.entries[mid].from < from {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i < len(t.entries) && t.entries[i].from == from {
		t.entries[i].num, t.entries[i].status = num, s
		return
	}
	t.entries = append(t.entries, queryEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = queryEntry{from: from, num: num, status: s}
}

// senderEntry tallies the senders of attempt or try-fail calls that
// referenced one target view.
type senderEntry struct {
	id      int64
	senders proc.Set
}

// senderTable maps target-view IDs to the set of processes heard from,
// sorted by view ID.
type senderTable struct {
	entries []senderEntry
}

// reset empties the table, keeping capacity. Retained proc.Sets are
// plain values; truncation drops them without pinning anything.
func (t *senderTable) reset() { t.entries = t.entries[:0] }

// add records one sender for the target view and returns the updated
// sender set.
func (t *senderTable) add(id int64, p proc.ID) proc.Set {
	// Binary search for the first entry with view ID ≥ id.
	i, hi := 0, len(t.entries)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if t.entries[mid].id < id {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i < len(t.entries) && t.entries[i].id == id {
		t.entries[i].senders.Add(p)
		return t.entries[i].senders
	}
	t.entries = append(t.entries, senderEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = senderEntry{id: id, senders: proc.NewSet(p)}
	return t.entries[i].senders
}

// bestQuery picks the resolution call deterministically: among the
// members of amb that reported, the status of the maximum-num report,
// breaking num ties toward the smallest process ID. Entries iterate in
// ascending sender order and only a strictly larger num displaces the
// pick, which realizes the tie-break without a second pass.
func (t *queryTable) bestQuery(amb view.View) (queryEntry, bool) {
	best := queryEntry{from: proc.None, num: -1}
	for _, e := range t.entries {
		if !amb.Contains(e.from) {
			continue
		}
		if e.num > best.num {
			best = e
		}
	}
	return best, best.from != proc.None
}
