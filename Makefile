
# Tier-1 gate: everything CI runs, in order. The race detector is part of
# the gate — the engine promises safe concurrent use, so every test also
# runs under -race. The fuzz smoke gives each front-end fuzz target a short
# budget so regressions in the never-panic contract surface in CI, and the
# coverage step enforces a floor on the packages the fault/degradation
# contract lives in.
.PHONY: ci vet build test race bench bench-cache bench-fuse bench-auto bench-shard perf perf-compare fuzz cover serve

ci: vet build race fuzz cover

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

fuzz:
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sql
	go test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime 10s ./internal/sql
	go test -run '^$$' -fuzz '^FuzzReadCatalog$$' -fuzztime 10s ./internal/cost

cover:
	./scripts/cover.sh

bench:
	go test -bench=. -benchmem .

# Buffer-pool cold/warm tables (EXPERIMENTS.md "Hot vs. cold"); regenerates
# BENCH_PR6.json at the full profile.
bench-cache:
	go run ./cmd/adamant-bench -exp cache -json BENCH_PR6.json

# Fused-vs-unfused Q6 tables (EXPERIMENTS.md "Operator fusion");
# regenerates BENCH_PR7.json at the full profile.
bench-fuse:
	go run ./cmd/adamant-bench -exp fuse -json BENCH_PR7.json

# Auto-planner cold/warm vs the manual (driver, model) matrix
# (EXPERIMENTS.md "Auto planning"); regenerates BENCH_PR8.json at the full
# profile.
bench-auto:
	go run ./cmd/adamant-bench -exp auto -json BENCH_PR8.json

# Sharded scale-out and straggler-hedging tables (EXPERIMENTS.md
# "Scale-out"); regenerates BENCH_PR9.json at the full profile.
bench-shard:
	go run ./cmd/adamant-bench -exp shard -json BENCH_PR9.json

# The benchmark (perf/README.md): four workloads, end-to-end and per-layer
# metrics on both clocks, three seeds each, written to PERF_OUT.
PERF_OUT ?= perf-out.json
perf:
	go run ./perf -runs 3 -json $(PERF_OUT)

# Verdict per metric between two `make perf` outputs:
# make perf-compare BEFORE=a.json AFTER=b.json
perf-compare:
	go run ./perf -compare $(BEFORE) $(AFTER)

# Telemetry service: Q6 over a telemetry-armed engine, with /metrics,
# /events, /flight, /util and /run?n=K on port 9464.
serve:
	go run ./cmd/adamant-run -serve 127.0.0.1:9464 -ratio 0.002
