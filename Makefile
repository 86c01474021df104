GIT_SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo local)

# Per-target native fuzzing budget for fuzz-smoke; CI's scheduled fuzz
# job raises it (make fuzz-smoke FUZZTIME=30s).
FUZZTIME ?= 10s

# Repo-total statement coverage floor enforced by `make cover`.
COVER_FLOOR ?= 70

.PHONY: all build cross vet lint test race bench bench-guard bench-batch bench-pairs fuzz-smoke cover trace-smoke metrics-smoke xcheck check

all: check

build:
	go build ./...

# cross compiles the tree for a platform without recvmmsg/sendmmsg and
# vets the overlay's real mmsg path for linux/arm64: mmsg_fallback.go
# is the only datagram I/O everywhere but linux/{amd64,arm64}, nothing
# else builds it, and nothing else builds mmsg_linux_arm64.go either.
cross:
	GOOS=darwin GOARCH=arm64 go build ./...
	GOOS=linux GOARCH=arm64 go vet ./internal/overlay

# vet is kept for manual use; `make check` gets full vet coverage from
# the test target instead, so the tool runs exactly once per check.
vet:
	go vet ./...

# lint runs the repo's own eight-analyzer suite (internal/lint):
# hot-path allocation freedom, simulation determinism, drop-reason
# attribution, packet-pool ownership, lock discipline, atomic-field
# hygiene, goroutine shutdown edges, and cross-plane metric-name
# consistency. Non-zero exit on any finding.
lint:
	go run ./cmd/tvalint ./...

# -vet=all widens go test's implicit vet subset to every analyzer, so
# this is the one place vet runs during `make check` (the old layout
# ran `go vet` standalone and then again implicitly here).
test:
	go test -vet=all ./...

# The extra -count=2 pass re-runs the overlay shard/batch tests, the
# (Batch, Shards) width tables, the segmented-egress tests (mixed
# runs, caps, kernel refusal, head-of-line) and the paced-port tables
# (the fallback timer against arrivals and Close) so the race detector
# sees worker startup and teardown — the one-worker inline engine
# included — twice in one process: the window the goleak analyzer
# reasons about statically.
race:
	go test -race -vet=off ./...
	go test -race -vet=off -count=2 -run 'Batch|Shard|Handshake|Refused|Segment|Pace' ./internal/overlay

# bench writes a machine-readable snapshot (Table 1 ns/op + allocs/op,
# Fig. 12 peak kpps, scenario completion fractions) keyed by revision.
bench:
	go run ./cmd/tvabench -label $(GIT_SHA)

# bench-guard fails if any Table 1 row allocates more per packet than
# the committed baseline — the zero-allocation forwarding path must
# survive telemetry and whatever comes after it. The PR 10 baseline
# pins every row at 0 allocs/op with per-sender flow accounting
# (heavy-hitter table + count-min sketch) attached to the bench router.
bench-guard:
	go run ./cmd/tvabench -guard BENCH_pr10.json

# bench-batch measures the overlay data path end to end over loopback
# sockets and fails unless batch=32 still forwards at >=2x the batch=1
# rate (the amortization burst width exists for).
bench-batch:
	go run ./cmd/tvabench -guard-batch

# bench-pairs is the paired procedure a performance claim rests on:
# BASE_REF is checked out beside the working tree, bench/run.sh runs
# PAIRS times on each, alternating which goes first, and the two result
# sets go through `bench/run.sh compare` plus a pairs-won count, e.g.
# `make bench-pairs BASE_REF=HEAD~1 WORKLOAD=sock_fastpath`.
BASE_REF ?= HEAD
WORKLOAD ?= sock_fastpath
PAIRS ?= 10
RUN_SECONDS ?= 20
bench-pairs:
	bash scripts/bench_pairs.sh $(BASE_REF) $(WORKLOAD) $(PAIRS) $(RUN_SECONDS)

# fuzz-smoke gives each native fuzz target $(FUZZTIME) of mutation on
# top of the seed corpus (go permits one -fuzz pattern per invocation).
fuzz-smoke:
	go test ./internal/packet -run '^$$' -fuzz FuzzWireUnmarshal -fuzztime $(FUZZTIME)
	go test ./internal/packet -run '^$$' -fuzz FuzzWireRoundTrip -fuzztime $(FUZZTIME)
	go test ./internal/netsim -run '^$$' -fuzz FuzzEventQueue -fuzztime $(FUZZTIME)
	go test ./internal/flowcache -run '^$$' -fuzz FuzzCacheOps -fuzztime $(FUZZTIME)

# cover writes a coverage profile, then the gate script extracts the
# repo-total statement coverage, surfaces it (in the GitHub job summary
# when running in CI), and fails below $(COVER_FLOOR) percent.
cover:
	go test -vet=off -coverprofile=cover.out ./...
	COVER_FLOOR=$(COVER_FLOOR) sh scripts/cover_gate.sh cover.out

# trace-smoke round-trips a real flight-recorder dump through every
# tvatrace subcommand: a short traced Fig. 9 run writes smoke.trace,
# then each query must parse it and exit zero (chrome output is
# discarded; CI uploads smoke.trace itself as an artifact).
trace-smoke:
	go run ./cmd/tvasim -fig 9 -schemes tva -attackers 10 -duration 5 -tracefile smoke.trace
	go run ./cmd/tvatrace summary smoke.trace
	go run ./cmd/tvatrace slowest -n 3 smoke.trace
	go run ./cmd/tvatrace hops smoke.trace
	go run ./cmd/tvatrace drops smoke.trace
	go run ./cmd/tvatrace chrome -o /dev/null smoke.trace

# metrics-smoke boots a real tvarouter, scrapes /metrics with tvatop
# (strict parse + required shared-name series), then runs the same
# seeded tvasim flood twice and requires the attack-onset health
# transitions and the emitted time series to be byte-identical.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# xcheck cross-validates the two data planes: both canonical scenarios
# (baseline, flood) run on the simulator and on a loopback overlay
# deployment, and the gate fails on any out-of-tolerance divergence.
# The JSON divergence report lands at xcheck_report.json (override with
# XCHECK_REPORT=path).
xcheck:
	sh scripts/xcheck_smoke.sh

check: build cross lint test race bench-guard bench-batch
