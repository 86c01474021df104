#!/usr/bin/env bash
# bench-pairs: the paired parent/change procedure a performance claim
# rests on (bench/README.md, "Baseline and noise" and "compare").
#
#   scripts/bench_pairs.sh BASE_REF WORKLOAD [PAIRS=10] [SECONDS=20]
#
# Checks BASE_REF out into a git worktree under .bench_build/, then runs
# bench/run.sh PAIRS times on that tree and on the working tree,
# alternating which side goes first, pair i of both sides with seed
# SEED0+i (default 201: pass a SEED0 not used while developing). Each
# side writes to its own --out directory; at the end `bench/run.sh
# compare base/ change/` applies BENCHMARK.json's bounds, and a
# pairs-won table per end-to-end metric says how often the change read
# better than the base on the same seed (ties count for neither).
# Nothing under bench/ is edited; the worktree is removed on exit and
# the result files stay in .bench_build/pairs/{base,change}.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,16p' "$0" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-10} seconds=${4:-20}
seed0=${SEED0:-201}

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/pairs"
tree="$work/base_tree"
git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$work"
mkdir -p "$work/base" "$work/change"
git -C "$root" worktree add --quiet --detach "$tree" "$base_ref"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

# run SIDE SEED: one bench/run.sh of the workload in that side's tree.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$tree
	bash "$dir/bench/run.sh" --workload "$workload" --seed "$2" \
		--seconds "$seconds" --out "$work/$1" >/dev/null
}

for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i))
	order="base change"
	[ $((i % 2)) -eq 0 ] && order="change base"
	echo "# pair $i/$pairs  seed $seed  order: $order" >&2
	for side in $order; do
		run "$side" "$seed"
	done
done

status=0
bash "$root/bench/run.sh" compare "$work/base" "$work/change" || status=$?

# value FILE METRIC: result.metrics.METRIC.value, the first occurrence
# of the metric's name in a result file.
value() {
	awk -v m="\"$2\": {" 'index($0, m) { getline; sub(/.*: /, ""); sub(/,.*/, ""); print; exit }' "$1"
}

echo
echo "pairs won by the change, $workload, $pairs pairs of ${seconds}s (base $base_ref)"
# The end-to-end metrics are BENCHMARK.json's entries that carry a bound.
awk -F'"' '/"name"/ { n = $4 } /"better"/ { b = $4 } /"bound"/ { print n, b }' "$root/BENCHMARK.json" |
	while read -r metric better; do
		won=0 lost=0
		for f in "$work"/change/result_"$workload"_*.json; do
			b=$(value "$work/base/$(basename "$f")" "$metric")
			c=$(value "$f" "$metric")
			[ -n "$b" ] && [ -n "$c" ] || continue
			case $(awk -v b="$b" -v c="$c" -v hi="$better" 'BEGIN {
				if (b == c) print "tie"
				else if ((c > b) == (hi == "higher")) print "won"
				else print "lost" }') in
			won) won=$((won + 1)) ;;
			lost) lost=$((lost + 1)) ;;
			esac
		done
		printf '  %-16s %2d won  %2d lost  (%s is better)\n' "$metric" "$won" "$lost" "$better"
	done
exit "$status"
