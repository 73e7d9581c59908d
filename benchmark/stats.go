package main

import (
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// quartiles is Python's statistics.quantiles(values, n=4) — the
// estimator the driver applies to a metric's ten runs — so the spreads
// this program prints are the spreads the driver will compute.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// iqrShare is the interquartile distance as a share of the median, the
// spread the driver holds against a metric's bound.
func iqrShare(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// raw samples, 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// fingerprint folds integers into an FNV-1a hash; the sim workloads
// compare it lap against lap, against the shadow driver and against
// golden.json.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.h.Write(b[:])
	}
}

func (f fingerprint) str(s string) {
	f.ints(int64(len(s)))
	f.h.Write([]byte(s))
}

func (f fingerprint) flag(b bool) {
	if b {
		f.ints(1)
	} else {
		f.ints(0)
	}
}

func (f fingerprint) sum() uint64 { return f.h.Sum64() }
