#!/bin/sh
# metrics-smoke: end-to-end check of the streaming observability layer.
#
#  1. Boot a real tvarouter with /metrics enabled, scrape it with
#     tvatop -once, and require the shared-name series contract —
#     tvatop's parser is strict, so this also validates the exposition
#     format itself.
#  2. Run the same seeded tvasim flood twice and require (a) the
#     attack-onset health engine to walk ... -> under-attack, and
#     (b) the health transition log and final exposition snapshot to
#     be byte-identical across the two runs — the determinism the
#     registry promises.
#
# Exits non-zero on any failure. Run via `make metrics-smoke`.
set -eu

dir=$(mktemp -d)
router_pid=""
cleanup() {
	[ -n "$router_pid" ] && kill "$router_pid" 2>/dev/null || true
	rm -rf "$dir"
}
trap cleanup EXIT INT TERM

echo "# metrics-smoke: building tvarouter, tvatop, tvasim"
go build -o "$dir/tvarouter" ./cmd/tvarouter
go build -o "$dir/tvatop" ./cmd/tvatop
go build -o "$dir/tvasim" ./cmd/tvasim

echo "# metrics-smoke: booting tvarouter with /metrics"
# One route so a neighbour port (and its labelled queue/token series)
# exists; the next hop never has to answer.
"$dir/tvarouter" -listen 127.0.0.1:0 -metrics 127.0.0.1:0 \
	-route 10.0.0.1=127.0.0.1:9 -metrics-interval 200ms -stats 0 \
	>"$dir/router.log" 2>&1 &
router_pid=$!

url=""
for _ in $(seq 1 50); do
	url=$(sed -n 's/^metrics on \(http:[^ ]*\/metrics\).*$/\1/p' "$dir/router.log")
	[ -n "$url" ] && break
	kill -0 "$router_pid" 2>/dev/null || {
		echo "metrics-smoke: tvarouter died:" >&2
		cat "$dir/router.log" >&2
		exit 1
	}
	sleep 0.1
done
[ -n "$url" ] || { echo "metrics-smoke: no metrics URL in router log" >&2; exit 1; }

# Poll the endpoint until the full required series set (including the
# :rate series that only exist once the sampler has ticked twice)
# scrapes cleanly, bounded at ~5s — no fixed sleep, so the script is
# as fast as the router and never flakes on a slow runner.
echo "# metrics-smoke: polling $url until the overlay series set scrapes"
ready=""
for _ in $(seq 1 50); do
	if "$dir/tvatop" -once -require-set overlay "$url" >/dev/null 2>&1; then
		ready=1
		break
	fi
	kill -0 "$router_pid" 2>/dev/null || {
		echo "metrics-smoke: tvarouter died while polling:" >&2
		cat "$dir/router.log" >&2
		exit 1
	}
	sleep 0.1
done
[ -n "$ready" ] || {
	echo "metrics-smoke: /metrics never satisfied the overlay series set; last scrape:" >&2
	"$dir/tvatop" -once -require-set overlay "$url" >&2 || true
	exit 1
}

echo "# metrics-smoke: scraping $url with tvatop -once"
# -require-set resolves to internal/metrics.OverlaySeries (plus the
# :rate proof that the sampler ticked), so the required series set and
# the router's registrations come from the same constants, and
# internal/xcheck's TestPlaneSeries checks that the list names exactly
# what the router registers.
"$dir/tvatop" -once -require-set overlay "$url"

echo "# metrics-smoke: requiring the per-sender flow series explicitly"
# The flow series ride in OverlaySeries and so are already covered
# above; requiring them by name keeps this check meaningful even if
# the plane sets are ever reshuffled.
"$dir/tvatop" -once \
	-require tva_flow_tracked_senders,tva_flow_bytes_total,tva_flow_top_share,tva_flow_fairness_jain,tva_flow_goodput_maxmin_ratio \
	"$url" >/dev/null

echo "# metrics-smoke: checking the fairness gauge in the raw exposition"
curl -sf "$url" >"$dir/exposition.prom"
grep -q '^tva_flow_fairness_jain ' "$dir/exposition.prom" || {
	echo "metrics-smoke: exposition is missing the fairness gauge:" >&2
	grep '^tva_flow' "$dir/exposition.prom" >&2 || true
	exit 1
}

echo "# metrics-smoke: checking the /flows JSON endpoint"
flows_url="${url%/metrics}/flows"
curl -sf "$flows_url" >"$dir/flows.json"
grep -q '"tracked"' "$dir/flows.json" && grep -q '"jain"' "$dir/flows.json" || {
	echo "metrics-smoke: $flows_url did not serve a flows document:" >&2
	cat "$dir/flows.json" >&2
	exit 1
}

kill "$router_pid" 2>/dev/null || true
wait "$router_pid" 2>/dev/null || true
router_pid=""

echo "# metrics-smoke: seeded flood determinism (two identical runs)"
run_flood() {
	"$dir/tvasim" -fig 8 -schemes tva -attackers 20 -duration 8 -seed 7 \
		-metrics "$dir/run$1.csv" -prom "$dir/run$1.prom" \
		>"$dir/run$1.out" 2>&1
	grep '^health: ' "$dir/run$1.out" >"$dir/run$1.health"
}
run_flood 1
run_flood 2

grep -q -- '-> under-attack' "$dir/run1.health" || {
	echo "metrics-smoke: flood never reached under-attack:" >&2
	cat "$dir/run1.health" >&2
	exit 1
}
cmp "$dir/run1.health" "$dir/run2.health" || {
	echo "metrics-smoke: health transitions differ across same-seed runs" >&2
	diff "$dir/run1.health" "$dir/run2.health" >&2 || true
	exit 1
}
cmp "$dir/run1.csv" "$dir/run2.csv" || {
	echo "metrics-smoke: metrics time series differ across same-seed runs" >&2
	exit 1
}
cmp "$dir/run1.prom" "$dir/run2.prom" || {
	echo "metrics-smoke: exposition snapshots differ across same-seed runs" >&2
	exit 1
}
grep -q '^tva_flow_fairness_jain ' "$dir/run1.prom" || {
	echo "metrics-smoke: sim exposition is missing the fairness gauge" >&2
	exit 1
}
echo "# metrics-smoke: attack onset detected deterministically:"
cat "$dir/run1.health"
echo "metrics-smoke: ok"
