package quorum_test

import (
	"testing"

	"dynvote/internal/proc"
	"dynvote/internal/quorum"
)

// SubQuorum and Majority sit on every algorithm's view-change path. One
// word loop serves every width: the single- and multi-word variants
// walk the four inline words of a proc.Set, the overflow variants
// (>256 procs) its overflow word list.

var sink bool

func BenchmarkSubQuorumSingleWord(b *testing.B) {
	old := proc.Universe(48)
	new_ := proc.NewSet(0, 1, 2, 3, 5, 8, 13, 21, 34, 40, 41, 42, 43, 44, 45, 46, 47, 30, 31, 32, 33, 20, 21, 22, 23, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.SubQuorum(new_, old)
	}
}

func BenchmarkMajoritySingleWord(b *testing.B) {
	old := proc.Universe(48)
	new_ := proc.Universe(25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.Majority(new_, old)
	}
}

func BenchmarkSubQuorumMultiWord(b *testing.B) {
	old := proc.Universe(130)
	new_ := proc.Universe(66)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.SubQuorum(new_, old)
	}
}

func BenchmarkMajorityMultiWord(b *testing.B) {
	old := proc.Universe(130)
	new_ := proc.Universe(70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.Majority(new_, old)
	}
}

func BenchmarkSubQuorumOverflow(b *testing.B) {
	old := proc.Universe(300)
	new_ := proc.Universe(160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.SubQuorum(new_, old)
	}
}

func BenchmarkMajorityOverflow(b *testing.B) {
	old := proc.Universe(300)
	new_ := proc.Universe(160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.Majority(new_, old)
	}
}

// The kilo-process variants pin the loop at 16 words: one pass, zero
// allocations.

func BenchmarkSubQuorumKilo(b *testing.B) {
	old := proc.Universe(1024)
	new_ := proc.Universe(520)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.SubQuorum(new_, old)
	}
}

func BenchmarkMajorityKilo(b *testing.B) {
	old := proc.Universe(1024)
	new_ := proc.Universe(520)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = quorum.Majority(new_, old)
	}
}
