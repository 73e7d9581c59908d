#!/bin/sh
# bench-pairs.sh BASE WORKLOAD [N] compares the working tree against the
# commit BASE on one benchmark workload: N alternating pairs of
# `benchmark -workload WORKLOAD`, one run of each side per pair, the
# side that goes first alternating from pair to pair. It prints every
# run's four end-to-end metrics from the result line, then per metric
# the two medians and in how many pairs each side was better.
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

# run SIDE PAIR appends "PAIR SIDE v1 v2 v3 v4" to the results and
# echoes it.
run() {
	"$tmp/$1" -workload "$workload" >"$tmp/out" 2>&1 || {
		cat "$tmp/out" >&2
		echo "bench-pairs: $1 run of pair $2 failed" >&2
		exit 1
	}
	line="$2 $1"
	for m in $metrics; do
		v=$(tail -n 1 "$tmp/out" | sed -n 's/.*"'"$m"'":{"value":\([^,}]*\).*/\1/p')
		line="$line ${v:-NaN}"
	done
	echo "$line" | tee -a "$tmp/results"
}

echo "# $workload: base=$(git rev-parse --short "$base") against the working tree, $n pairs"
echo "pair side $metrics"
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
function median(a, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
			t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
		}
	return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
{ for (m = 1; m <= 4; m++) v[$1, $2, m] = $(m + 2) + 0; if ($1 + 0 > pairs) pairs = $1 + 0 }
END {
	split(names, name, " ")
	# setup_s and wait_p50_us are better lower, the other two higher.
	lower[1] = 1; lower[3] = 1
	printf "\n%-14s %14s %14s %12s %12s\n", "metric", "base median", "tree median", "tree better", "base better"
	for (m = 1; m <= 4; m++) {
		tw = bw = 0
		for (p = 1; p <= pairs; p++) {
			b[p] = v[p, "base", m]; t[p] = v[p, "tree", m]
			if (lower[m] ? t[p] < b[p] : t[p] > b[p]) tw++
			if (lower[m] ? b[p] < t[p] : b[p] > t[p]) bw++
		}
		printf "%-14s %14.6g %14.6g %9d/%-2d %9d/%-2d\n", name[m], median(b, pairs), median(t, pairs), tw, pairs, bw, pairs
	}
}' "$tmp/results"
