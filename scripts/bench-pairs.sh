#!/bin/sh
# bench-pairs.sh BASE WORKLOAD [N] compares the working tree against the
# commit BASE on one benchmark workload: N alternating pairs of
# `benchmark -workload WORKLOAD`, one run of each side per pair, the
# side that goes first alternating from pair to pair. It prints every
# run's four end-to-end metrics and its attempted and failed operation
# counts from the result line, then per metric each side's quartiles
# and median, in how many pairs each side was better, and whether the
# gain-claim rule holds for the tree: it won at least nine tenths of the
# pairs and its median is further from the base's than the base's
# interquartile distance. Under the table it prints each side's failed
# share of attempted operations over all its runs. A run whose result
# line says "correct":false stops the script with an error.
#
#   make bench-pairs BASE=HEAD~ W=soak_farm_64 N=10
#
# BASE is extracted with git archive and both binaries are built into a
# temporary directory under $TMPDIR, which is removed on exit.
set -eu

usage="usage: bench-pairs.sh BASE WORKLOAD [N]"
base=${1:?$usage}
workload=${2:?$usage}
n=${3:-10}
go=${GO:-go}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/src"
git archive "$base" | tar -x -C "$tmp/src"
(cd "$tmp/src" && "$go" build -o "$tmp/base" ./benchmark)
"$go" build -o "$tmp/tree" ./benchmark
rm -rf "$tmp/src"

metrics="setup_s ops_per_s wait_p50_us accepted_pct"

# run SIDE PAIR appends "PAIR SIDE v1 v2 v3 v4 ATTEMPTED FAILED" to the
# results and echoes it.
run() {
	"$tmp/$1" -workload "$workload" >"$tmp/out" 2>&1 || {
		cat "$tmp/out" >&2
		echo "bench-pairs: $1 run of pair $2 failed" >&2
		exit 1
	}
	result=$(tail -n 1 "$tmp/out")
	if [ "$(echo "$result" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p')" != true ]; then
		cat "$tmp/out" >&2
		echo "bench-pairs: $1 run of pair $2 is not correct" >&2
		exit 1
	fi
	line="$2 $1"
	for m in $metrics; do
		v=$(echo "$result" | sed -n 's/.*"'"$m"'":{"value":\([^,}]*\).*/\1/p')
		line="$line ${v:-NaN}"
	done
	for c in attempted failed; do
		v=$(echo "$result" | sed -n 's/.*"'"$c"'":\([0-9]*\).*/\1/p')
		line="$line ${v:-NaN}"
	done
	echo "$line" | tee -a "$tmp/results"
}

echo "# $workload: base=$(git rev-parse --short "$base") against the working tree, $n pairs"
echo "pair side $metrics attempted failed"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run tree "$i"
	else
		run tree "$i"
		run base "$i"
	fi
	i=$((i + 1))
done

awk -v names="$metrics" '
# quart returns quartile i (1..3) of the k sorted values a[1..k] by
# Python statistics.quantiles(n=4), the estimator the benchmark prints
# its spreads with; quartile 2 is the median.
function quart(a, k, i,    m, j, d) {
	if (k == 1)
		return a[1]
	m = k + 1
	j = int(i * m / 4)
	if (j < 1) j = 1
	if (j > k - 1) j = k - 1
	d = i * m - j * 4
	return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
function isort(a, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
}
function abs(x) { return x < 0 ? -x : x }
{
	for (m = 1; m <= 4; m++) v[$1, $2, m] = $(m + 2) + 0
	attempted[$2] += $7; failed[$2] += $8
	if ($1 + 0 > pairs) pairs = $1 + 0
}
END {
	split(names, name, " ")
	# setup_s and wait_p50_us are better lower, the other two higher.
	lower[1] = 1; lower[3] = 1
	printf "\n%-14s %-34s %-34s %11s %11s  %s\n", "metric", "base q1 / median / q3", "tree q1 / median / q3", "tree better", "base better", "claim"
	for (m = 1; m <= 4; m++) {
		tw = bw = 0
		for (p = 1; p <= pairs; p++) {
			b[p] = v[p, "base", m]; t[p] = v[p, "tree", m]
			if (lower[m] ? t[p] < b[p] : t[p] > b[p]) tw++
			if (lower[m] ? b[p] < t[p] : b[p] > t[p]) bw++
		}
		isort(b, pairs); isort(t, pairs)
		bq1 = quart(b, pairs, 1); bmed = quart(b, pairs, 2); bq3 = quart(b, pairs, 3)
		tq1 = quart(t, pairs, 1); tmed = quart(t, pairs, 2); tq3 = quart(t, pairs, 3)
		claim = (10 * tw >= 9 * pairs && abs(tmed - bmed) > bq3 - bq1) ? "holds" : "no"
		printf "%-14s %-34s %-34s %8d/%-2d %8d/%-2d  %s\n", name[m],
			sprintf("%.4g / %.4g / %.4g", bq1, bmed, bq3),
			sprintf("%.4g / %.4g / %.4g", tq1, tmed, tq3), tw, pairs, bw, pairs, claim
	}
	print "claim holds: the tree won >= 9/10 of the pairs and |tree median - base median| > base q3 - q1"
	for (i = 1; i <= 2; i++) {
		side = i == 1 ? "base" : "tree"
		printf "%s failed/attempted: %d/%d (%.4g %%)\n", side, failed[side], attempted[side],
			attempted[side] ? 100 * failed[side] / attempted[side] : 0
	}
}' "$tmp/results"
