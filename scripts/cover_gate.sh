#!/bin/sh
# cover-gate: enforce the repo-total and per-package statement
# coverage floors.
#
# Reads a go coverage profile (default cover.out, override as $1),
# extracts the total from `go tool cover -func` and each package's
# statement coverage from the profile's blocks, surfaces every figure —
# in the GitHub job summary when $GITHUB_STEP_SUMMARY is set — and
# exits non-zero when the total is below $COVER_FLOOR percent (default
# 70) or a package listed in pkg_floors is below its floor.
#
# Run via `make cover` (which writes the profile first).
set -eu

floor=${COVER_FLOOR:-70}
profile=${1:-cover.out}

# Per-package floors, about three points under each package's figure
# when the floor was set: the data-plane packages, the capability
# hashes and secret ring, the keyed index with its two users, the
# metrics layer and its one histogram, the cross-plane gate, and tvasim
# (its golden test).
pkg_floors='tva/internal/core 88
tva/internal/mac 90
tva/internal/capability 90
tva/internal/sched 84
tva/internal/overlay 77
tva/internal/packet 84
tva/internal/flowcache 93
tva/internal/flowstats 82
tva/internal/keyhash 97
tva/internal/metrics 89
tva/internal/xcheck 82
tva/cmd/tvasim 48'

[ -f "$profile" ] || {
	echo "cover-gate: no coverage profile at $profile (run 'make cover')" >&2
	exit 1
}

total=$(go tool cover -func="$profile" | awk 'END { sub(/%$/, "", $NF); print $NF }')
echo "cover-gate: total statement coverage ${total}% (floor ${floor}%)"

# Each profile line after the mode line is "file:range statements
# count"; a block counts as covered when any line for it has a count.
pkgs=$(awk 'NR > 1 {
	if (!($1 in stmts)) {
		stmts[$1] = $2
		p = $1; sub(/:.*/, "", p); sub(/\/[^\/]*$/, "", p)
		pkg[$1] = p
	}
	if ($3 > 0) hit[$1] = 1
}
END {
	for (b in stmts) {
		all[pkg[b]] += stmts[b]
		if (b in hit) cov[pkg[b]] += stmts[b]
	}
	for (p in all) printf "%s %.1f\n", p, 100 * cov[p] / all[p]
}' "$profile" | sort)

# report prints one line per package: figure, floor if any, verdict.
report=$(printf '%s\n' "$pkgs" | awk -v floors="$pkg_floors" '
BEGIN {
	n = split(floors, l, "\n")
	for (i = 1; i <= n; i++) { split(l[i], f, " "); want[f[1]] = f[2] }
}
{
	if ($1 in want) {
		verdict = ($2 + 0 >= want[$1] + 0) ? "ok" : "BELOW"
		printf "%s %s%% floor %s%% %s\n", $1, $2, want[$1], verdict
		seen[$1] = 1
	} else {
		printf "%s %s%%\n", $1, $2
	}
}
END {
	for (p in want) if (!(p in seen)) printf "%s missing floor %s%% BELOW\n", p, want[p]
}')
printf '%s\n' "$report" | sed 's/^/cover-gate: /'

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
	{
		echo "### Coverage"
		echo ""
		echo "Total statement coverage: **${total}%** (floor: ${floor}%)"
		echo ""
		echo "| package | coverage | floor |"
		echo "|---|---|---|"
		printf '%s\n' "$report" | awk '{ printf "| %s | %s | %s |\n", $1, $2, ($3 == "floor") ? $4 " " $5 : "" }'
	} >>"$GITHUB_STEP_SUMMARY"
fi

status=0
ok=$(awk -v t="$total" -v f="$floor" 'BEGIN { print (t + 0 >= f + 0) ? "yes" : "no" }')
if [ "$ok" != yes ]; then
	echo "cover-gate: coverage ${total}% is below the ${floor}% floor" >&2
	status=1
fi
if printf '%s\n' "$report" | grep -q 'BELOW$'; then
	printf '%s\n' "$report" | grep 'BELOW$' | sed 's/^/cover-gate: below floor: /' >&2
	status=1
fi
exit $status
