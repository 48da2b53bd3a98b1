
# Tier-1 gate: scripts/ci.sh is everything CI runs, in order (vet, build,
# the kernel-pricing guard, `go test -race`, the race soaks, the fuzz
# smoke, the trace and reproduction goldens, the CLI and perf smokes, and
# the coverage floor). The other targets run single steps of it, the
# benchmarks, or the telemetry service.
.PHONY: ci vet build test race bench perf perf-compare fuzz cover serve

ci:
	./scripts/ci.sh

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
