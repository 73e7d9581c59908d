// Package proc defines process identities and ordered process sets.
//
// Every quorum rule in the dynamic voting algorithms is expressed over
// sets of processes, and the "lexically smallest" tie-breaking rule of
// dynamic linear voting needs a deterministic total order on processes.
// IDs are small dense integers (the simulator numbers processes
// 0..n-1); Set is a bitset whose first InlineProcs bits live in a fixed
// inline word array, so every configuration up to 256 processes — the
// thesis's 64 and the scaling sweep's 128/256 — performs every set
// operation without touching the heap.
package proc

import (
	"math/bits"
	"strconv"
	"strings"
)

// ID identifies a single process. The total order on IDs defines the
// "lexically smallest" process used to break exact-half ties in
// dynamic linear voting (thesis §3.1): the thesis suggests sorting by
// numeric IP address and process id; here the integer value plays that
// role directly.
type ID int

// None is a sentinel returned when an operation over an empty set has
// no process to report.
const None ID = -1

// String returns a short printable form, e.g. "p7".
func (id ID) String() string { return "p" + strconv.Itoa(int(id)) }

const wordBits = 64

// inlineWords is the number of bitset words stored directly in the Set
// struct. Four words cover 256 processes, comfortably past the scaling
// sweep's largest configuration, before any operation allocates.
const inlineWords = 4

// InlineProcs is the largest process count whose sets live entirely in
// a Set's fixed inline storage: sets over IDs below InlineProcs never
// touch the heap.
const InlineProcs = inlineWords * wordBits

// Set is an immutable-by-convention set of process IDs backed by a
// bitset. The zero value is the empty set. Mutating methods are
// value-receiver and return new sets; the in-place Add/Remove/Clear
// variants mutate only the receiver's inline array and copy-on-write
// any overflow storage, so published overflow words are never written
// and sets may share them freely.
//
// Representation: w holds members 0..InlineProcs-1. While the set has
// no larger member, rest is nil. The moment a member ≥ InlineProcs
// appears, rest holds the ENTIRE word list — word i covers IDs
// [64i, 64i+63], rest[:inlineWords] mirrors w — trimmed of trailing
// zero words (so rest is either nil or longer than inlineWords with a
// nonzero last word, making Equal and Key structural). The mirror lets
// the iteration hot paths (ForEach above all, which must stay within
// the compiler's inlining budget) range over a single word slice with
// no per-word source switching.
type Set struct {
	w    [inlineWords]uint64
	rest []uint64
}

// NewSet returns a set containing exactly the given IDs. Negative IDs
// are rejected by panicking, since they indicate a programming error
// (IDs are assigned by the caller as dense non-negative integers).
func NewSet(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Universe returns the set {0, 1, ..., n-1}.
func Universe(n int) Set {
	if n <= 0 {
		return Set{}
	}
	var s Set
	nw := (n + wordBits - 1) / wordBits
	words := s.w[:]
	if nw > inlineWords {
		s.rest = make([]uint64, nw)
		words = s.rest
	}
	for i := 0; i < nw; i++ {
		words[i] = ^uint64(0)
	}
	if rem := n % wordBits; rem != 0 {
		words[nw-1] = (uint64(1) << rem) - 1
	}
	copy(s.w[:], s.rest)
	return s
}

// setFromFull builds a Set from a full absolute word list, taking
// ownership of the slice. Trailing zero words are trimmed; lists that
// fit the inline array shed their overflow storage.
func setFromFull(words []uint64) Set {
	words = trimmed(words)
	var s Set
	copy(s.w[:], words)
	if len(words) > inlineWords {
		s.rest = words
	}
	return s
}

// With returns s ∪ {id}.
func (s Set) With(id ID) Set {
	if uint(id) < InlineProcs && len(s.rest) == 0 {
		s.w[int(id)/wordBits] |= 1 << uint(int(id)%wordBits)
		return s
	}
	return s.withSlow(id)
}

// withSlow is With's overflow path: the set already has overflow words
// to mirror, or id itself lies beyond the inline bound. Kept out of
// With so the inline fast path stays within the inlining budget.
func (s Set) withSlow(id ID) Set {
	if id < 0 {
		panic("proc: negative ID")
	}
	wi := int(id) / wordBits
	rest := make([]uint64, max(len(s.rest), wi+1))
	if len(s.rest) == 0 {
		copy(rest, s.w[:])
	} else {
		copy(rest, s.rest)
	}
	rest[wi] |= 1 << uint(int(id)%wordBits)
	return setFromFull(rest)
}

// Without returns s \ {id}.
func (s Set) Without(id ID) Set {
	if uint(id) < InlineProcs && len(s.rest) == 0 {
		s.w[int(id)/wordBits] &^= 1 << uint(int(id)%wordBits)
		return s
	}
	return s.withoutSlow(id)
}

// withoutSlow is Without's overflow path; see withSlow.
func (s Set) withoutSlow(id ID) Set {
	if !s.Contains(id) {
		return s
	}
	rest := make([]uint64, len(s.rest))
	copy(rest, s.rest)
	rest[int(id)/wordBits] &^= 1 << uint(int(id)%wordBits)
	return setFromFull(rest)
}

// Add inserts id into s in place. On sets confined to the inline array
// — every configuration up to InlineProcs processes — this mutates the
// receiver's fixed storage with no allocation; sets with overflow
// words copy-on-write them, so storage shared with other sets (value
// copies, Union aliasing) is never written through.
func (s *Set) Add(id ID) {
	if uint(id) < InlineProcs && len(s.rest) == 0 {
		s.w[int(id)/wordBits] |= 1 << uint(int(id)%wordBits)
		return
	}
	*s = s.withSlow(id)
}

// Remove deletes id from s in place, under the same aliasing contract
// as Add: inline-only sets are allocation-free, overflow sets
// copy-on-write.
func (s *Set) Remove(id ID) {
	if uint(id) < InlineProcs && len(s.rest) == 0 {
		s.w[int(id)/wordBits] &^= 1 << uint(int(id)%wordBits)
		return
	}
	*s = s.withoutSlow(id)
}

// Clear empties s in place, dropping any overflow storage.
func (s *Set) Clear() { *s = Set{} }

// Contains reports whether id is a member of s.
func (s Set) Contains(id ID) bool {
	if id < 0 {
		return false
	}
	wi := int(id) / wordBits
	if len(s.rest) != 0 {
		return wi < len(s.rest) && s.rest[wi]&(1<<uint(int(id)%wordBits)) != 0
	}
	return wi < inlineWords && s.w[wi]&(1<<uint(int(id)%wordBits)) != 0
}

// Count returns |s|.
func (s Set) Count() int {
	if len(s.rest) != 0 {
		n := 0
		for _, w := range s.rest {
			n += bits.OnesCount64(w)
		}
		return n
	}
	return bits.OnesCount64(s.w[0]) + bits.OnesCount64(s.w[1]) +
		bits.OnesCount64(s.w[2]) + bits.OnesCount64(s.w[3])
}

// Empty reports whether s has no members.
func (s Set) Empty() bool {
	return s.w[0]|s.w[1]|s.w[2]|s.w[3] == 0 && len(s.rest) == 0
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if len(s.rest) == 0 && len(t.rest) == 0 {
		for i := range s.w {
			s.w[i] |= t.w[i]
		}
		return s
	}
	return s.unionSlow(t)
}

// unionSlow handles unions where at least one side has overflow words.
func (s Set) unionSlow(t Set) Set {
	if len(s.rest) == 0 {
		s, t = t, s
	}
	if len(t.rest) == 0 {
		// t fits inline; if it adds nothing to s's mirrored low words,
		// the union IS s (sharing s.rest is safe — published words are
		// never mutated).
		add := false
		for i := range t.w {
			if t.w[i]&^s.w[i] != 0 {
				add = true
				break
			}
		}
		if !add {
			return s
		}
		rest := make([]uint64, len(s.rest))
		copy(rest, s.rest)
		for i := range t.w {
			rest[i] |= t.w[i]
		}
		return setFromFull(rest)
	}
	a, b := s.rest, t.rest
	if len(b) > len(a) {
		a, b = b, a
	}
	share := true
	for i, w := range b {
		if w&^a[i] != 0 {
			share = false
			break
		}
	}
	if share {
		out := Set{rest: a}
		copy(out.w[:], a)
		return out
	}
	rest := make([]uint64, len(a))
	copy(rest, a)
	for i, w := range b {
		rest[i] |= w
	}
	return setFromFull(rest)
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	if len(s.rest) == 0 || len(t.rest) == 0 {
		// At least one side has no members ≥ InlineProcs, so neither
		// does the intersection; both inline arrays are authoritative
		// for everything below the bound.
		var out Set
		for i := range out.w {
			out.w[i] = s.w[i] & t.w[i]
		}
		return out
	}
	n := min(len(s.rest), len(t.rest))
	rest := make([]uint64, n)
	for i := 0; i < n; i++ {
		rest[i] = s.rest[i] & t.rest[i]
	}
	return setFromFull(rest)
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	if len(s.rest) == 0 {
		for i := range s.w {
			s.w[i] &^= t.w[i]
		}
		return s
	}
	b := t.rest
	if len(b) == 0 {
		b = t.w[:]
	}
	rest := make([]uint64, len(s.rest))
	copy(rest, s.rest)
	for i := 0; i < len(rest) && i < len(b); i++ {
		rest[i] &^= b[i]
	}
	return setFromFull(rest)
}

// IntersectCount returns |s ∩ t| without allocating.
func (s Set) IntersectCount(t Set) int {
	if len(s.rest) == 0 || len(t.rest) == 0 {
		return bits.OnesCount64(s.w[0]&t.w[0]) + bits.OnesCount64(s.w[1]&t.w[1]) +
			bits.OnesCount64(s.w[2]&t.w[2]) + bits.OnesCount64(s.w[3]&t.w[3])
	}
	c := 0
	n := min(len(s.rest), len(t.rest))
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.rest[i] & t.rest[i])
	}
	return c
}

// Bitmap returns the set's complete word list without copying: the
// overflow slice when one exists, otherwise the inline array. Word i
// covers IDs [64i, 64i+63]; inline sets always yield inlineWords words
// (trailing zeros included), overflow sets yield their trimmed list.
// The slice aliases the receiver's storage — callers must treat it as
// read-only and not hold it across a mutation of *s. This is the entry
// point for word-parallel consumers (quorum's fused popcount loops,
// Bits.AddSet/ContainsSet) that want one loop for every universe width
// instead of an inline/overflow case split.
func (s *Set) Bitmap() []uint64 {
	if len(s.rest) != 0 {
		return s.rest
	}
	return s.w[:]
}

// EachWhile calls fn for each member in ascending order until fn
// returns false. The early exit is what separates it from ForEach:
// witness scans ("does any member satisfy P?") over kilo-process sets
// stop at the first hit instead of walking the remaining words.
func (s Set) EachWhile(fn func(ID) bool) {
	words := s.w[:]
	if len(s.rest) != 0 {
		words = s.rest
	}
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			if !fn(ID(i*wordBits + bits.TrailingZeros64(w))) {
				return
			}
		}
	}
}

// Equal reports whether s and t have identical membership. Sets that
// share their overflow words are equal without a word compare: those
// words are never written once published, and w mirrors their first
// inlineWords.
func (s Set) Equal(t Set) bool {
	if len(s.rest) != len(t.rest) {
		return false
	}
	if len(s.rest) != 0 && &s.rest[0] == &t.rest[0] {
		return true
	}
	if s.w != t.w {
		return false
	}
	for i, w := range s.rest {
		if w != t.rest[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is in t.
func (s Set) SubsetOf(t Set) bool {
	if len(s.rest) == 0 {
		// s has no members ≥ InlineProcs; t's inline mirror covers
		// everything that matters.
		for i := range s.w {
			if s.w[i]&^t.w[i] != 0 {
				return false
			}
		}
		return true
	}
	b := t.rest
	if len(b) == 0 {
		b = t.w[:]
	}
	for i, w := range s.rest {
		var tw uint64
		if i < len(b) {
			tw = b[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Disjoint reports whether s ∩ t = ∅.
func (s Set) Disjoint(t Set) bool { return s.IntersectCount(t) == 0 }

// Smallest returns the lexically smallest member of s, or None if s is
// empty. This is the designated tie-breaker process of dynamic linear
// voting.
func (s Set) Smallest() ID {
	words := s.w[:]
	if len(s.rest) != 0 {
		words = s.rest
	}
	for i, w := range words {
		if w != 0 {
			return ID(i*wordBits + bits.TrailingZeros64(w))
		}
	}
	return None
}

// Max returns the largest member of s, or None if s is empty. The
// simulator sizes its per-process tables from the universe's Max.
func (s Set) Max() ID {
	words := s.w[:]
	if len(s.rest) != 0 {
		words = s.rest
	}
	for i := len(words) - 1; i >= 0; i-- {
		if w := words[i]; w != 0 {
			return ID(i*wordBits + wordBits - 1 - bits.LeadingZeros64(w))
		}
	}
	return None
}

// Members returns the IDs in ascending order.
func (s Set) Members() []ID {
	return s.AppendMembers(make([]ID, 0, s.Count()))
}

// AppendMembers appends the IDs in ascending order to dst and returns
// the extended slice, letting hot paths reuse a caller-owned buffer.
func (s Set) AppendMembers(dst []ID) []ID {
	words := s.w[:]
	if len(s.rest) != 0 {
		words = s.rest
	}
	for i, rw := range words {
		for w := rw; w != 0; w &= w - 1 {
			dst = append(dst, ID(i*wordBits+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// ForEach calls fn for each member in ascending order. The body is
// deliberately kept within the compiler's inlining budget: the
// simulator calls ForEach with closures on its hottest paths, and
// inlining both the loop and the closure is worth ~20% of a run. The
// full-list mirror invariant exists for exactly this function — one
// range loop over one slice, no per-word source switching (w &= w-1
// clears the lowest set bit with fewer IR nodes than shift-and-clear).
func (s Set) ForEach(fn func(ID)) {
	words := s.w[:]
	if len(s.rest) != 0 {
		words = s.rest
	}
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			fn(ID(i*wordBits + bits.TrailingZeros64(w)))
		}
	}
}

// Nth returns the n-th smallest member (0-based), or None if n is out
// of range. Used by the simulator to pick uniform random members.
func (s Set) Nth(n int) ID {
	if n < 0 {
		return None
	}
	words := s.w[:]
	if len(s.rest) != 0 {
		words = s.rest
	}
	for i, w := range words {
		c := bits.OnesCount64(w)
		if n < c {
			return nthInWord(w, n, i*wordBits)
		}
		n -= c
	}
	return None
}

// nthInWord returns base + the position of the n-th set bit of w; the
// caller guarantees w has more than n bits set.
func nthInWord(w uint64, n, base int) ID {
	for ; ; n-- {
		b := bits.TrailingZeros64(w)
		if n == 0 {
			return ID(base + b)
		}
		w &^= 1 << uint(b)
	}
}

// Key returns a comparable representation of s, usable as a map key.
// Sets over at most InlineProcs processes fit in the fixed array with
// no string building; larger sets encode every overflow word — zeros
// included, so word position is unambiguous — into the overflow
// string.
func (s Set) Key() Key {
	k := Key{w: s.w}
	if len(s.rest) > inlineWords {
		for _, w := range s.rest[inlineWords:] {
			k.overflow += "," + strconv.FormatUint(w, 16)
		}
	}
	return k
}

// Key is a comparable digest of a Set; see Set.Key.
type Key struct {
	w        [inlineWords]uint64
	overflow string
}

// Words exposes the raw bitset words (a copy) for wire encoding. The
// result is trimmed of trailing zero words; the empty set yields an
// empty slice. The layout — word i covers IDs [64i, 64i+63] — is
// independent of the inline/overflow split, so encodings are stable
// across representation changes.
func (s Set) Words() []uint64 {
	if len(s.rest) != 0 {
		out := make([]uint64, len(s.rest))
		copy(out, s.rest)
		return out
	}
	nw := inlineWords
	for nw > 0 && s.w[nw-1] == 0 {
		nw--
	}
	if nw == 0 {
		return nil
	}
	out := make([]uint64, nw)
	copy(out, s.w[:nw])
	return out
}

// SetFromWords builds a Set from raw bitset words, copying them.
func SetFromWords(words []uint64) Set {
	words = trimmed(words)
	var s Set
	if len(words) <= inlineWords {
		copy(s.w[:], words)
		return s
	}
	rest := make([]uint64, len(words))
	copy(rest, words)
	copy(s.w[:], rest)
	s.rest = rest
	return s
}

// String renders the set as "{p0,p3,p5}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id ID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(id.String())
	})
	b.WriteByte('}')
	return b.String()
}

// trimmed drops trailing zero words so Equal/Key behave uniformly;
// a fully zero slice becomes nil.
func trimmed(rest []uint64) []uint64 {
	n := len(rest)
	for n > 0 && rest[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return rest[:n]
}
