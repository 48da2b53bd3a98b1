#!/bin/sh
# Tier-1 gate: everything CI runs, in order (`make ci` runs this script).
set -e
cd "$(dirname "$0")/.."
go vet ./...
go build ./...
# Pricing lives in internal/simhw: kernels declare their memory traffic and
# never read an SDK penalty or carry a cost function of their own.
if grep -rnE --include='*.go' --exclude='*_test.go' \
	'ScalePenalty|MaterializePenalty|ProbePenalty|CostModel|CostFunc' internal/kernels; then
	echo "ci: internal/kernels prices launches itself; declare simhw.Traffic and let SDKProfile.Price apply the SDK" >&2
	exit 1
fi
# The auto planner prices plans by rehearsing them on the simulator, never
# by a cost model of its own: no ns-per-byte, ns-per-row or per-chunk cost
# constant in internal/cost, and the analytic placer stays deleted.
if grep -rnEi --include='*.go' --exclude='*_test.go' \
	'ns_?per_?(byte|row)|per_?chunk|[0-9] *\* *vclock\.(nano|micro|milli)second' internal/cost; then
	echo "ci: internal/cost carries a hand-set cost constant; rehearse the plan on the simulator instead" >&2
	exit 1
fi
if grep -rn --include='*.go' '"github.com/adamant-db/adamant/internal/place"' .; then
	echo "ci: internal/place was deleted; the auto planner in internal/cost places queries" >&2
	exit 1
fi
go test -race ./...
# The concurrency/resilience chaos soak must always run race-enabled, even
# if the line above is ever narrowed or switched to -short.
go test -race -run '^TestChaosSoak$' .
# Likewise the telemetry balance test: concurrent queries + scrapes over
# one engine is the data-race surface of the observability layer.
go test -race -run '^TestTelemetryRaceBalance$' .
# The shard chaos soak likewise: concurrent queries scattering, hedging,
# failing over and losing partitions on one coordinator is the data-race
# surface of scatter/gather, so it runs race-enabled even if the blanket
# line is narrowed.
go test -race -run '^TestShardChaosSoak$' .
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/sql
go test -run '^$' -fuzz '^FuzzLex$' -fuzztime 10s ./internal/sql
go test -run '^$' -fuzz '^FuzzReadCatalog$' -fuzztime 10s ./internal/cost

# Golden-trace determinism: the same Q6 run must serialise to a
# byte-identical Chrome trace across two fresh processes. (The golden
# files under testdata/traces/ assert the same within one process; this
# catches map-iteration or address-dependent ordering leaking into the
# export path.)
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/adamant-run -q Q6 -ratio 0.000244140625 -model 4p-pipelined \
	-trace "$tracedir/a.json" >/dev/null
go run ./cmd/adamant-run -q Q6 -ratio 0.000244140625 -model 4p-pipelined \
	-trace "$tracedir/b.json" >/dev/null
cmp "$tracedir/a.json" "$tracedir/b.json" || {
	echo "ci: Q6 trace not byte-identical across two runs" >&2
	exit 1
}
echo "ci: golden-trace determinism OK ($(wc -c <"$tracedir/a.json") bytes)"

# The reproduction: every -quick table, shard hedging included, is virtual
# time over seeded data, so a fresh process must print exactly the pinned
# per-generator goldens, concatenated in name order. This covers
# cross-process determinism and every phase table of every experiment.
go run ./cmd/adamant-bench -quick -seed 7 >"$tracedir/bench.txt"
LC_ALL=C cat internal/experiments/testdata/quick/*.txt | cmp - "$tracedir/bench.txt" || {
	echo "ci: adamant-bench -quick differs from internal/experiments/testdata/quick/*.txt" >&2
	exit 1
}
echo "ci: adamant-bench -quick matches the pinned report ($(grep -c '^== ' "$tracedir/bench.txt") tables)"

# Telemetry service smoke: boot `adamant-run -serve` on an ephemeral port,
# scrape /metrics, and validate the Prometheus text exposition line by
# line. Built as a binary (not `go run`) so the PID we kill is the server.
go build -o "$tracedir/adamant-run" ./cmd/adamant-run
"$tracedir/adamant-run" -serve 127.0.0.1:0 -ratio 0.000244140625 -serve-warm 2 \
	-slo 100ms:0.99 >"$tracedir/serve.log" 2>&1 &
servepid=$!
addr=
i=0
while [ $i -lt 50 ]; do
	addr=$(awk '/^serving on /{print $3; exit}' "$tracedir/serve.log")
	[ -n "$addr" ] && break
	kill -0 "$servepid" 2>/dev/null || break
	sleep 0.2
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "ci: adamant-run -serve did not come up" >&2
	cat "$tracedir/serve.log" >&2
	exit 1
fi
curl -fsS "http://$addr/metrics" >"$tracedir/metrics.txt"
curl -fsS "http://$addr/events" >/dev/null
curl -fsS "http://$addr/flight" >/dev/null
curl -fsS "http://$addr/profile" >"$tracedir/profile.txt"
curl -fsS "http://$addr/slo" >"$tracedir/slo.json"
kill "$servepid" 2>/dev/null || true
wait "$servepid" 2>/dev/null || true
grep -q '^profile: [0-9]* queries' "$tracedir/profile.txt" || {
	echo "ci: /profile missing the ledger header" >&2
	exit 1
}
grep -q '"enabled": true' "$tracedir/slo.json" || {
	echo "ci: /slo not enabled despite -slo" >&2
	exit 1
}
echo "ci: /profile and /slo endpoints OK"
grep -q 'adamant_queries_total{' "$tracedir/metrics.txt" || {
	echo "ci: /metrics missing adamant_queries_total" >&2
	exit 1
}
awk '
/^#[ ]HELP /	{ next }
/^#[ ]TYPE /	{ next }
/^$/		{ next }
!/^[a-zA-Z_:][a-zA-Z0-9_:]*([{][^}]*[}])? -?[0-9][0-9eE.+-]*$/ {
	print "ci: bad exposition line: " $0; bad = 1
}
END { exit bad }
' "$tracedir/metrics.txt"
echo "ci: /metrics exposition OK ($(grep -vc '^#' "$tracedir/metrics.txt") series)"

# Warm-cache golden trace: a pooled repeat of Q6 must serialise with zero
# base-column h2d spans (the refactored transfer path), pinned against
# testdata/traces/Q6-warm-cache.txt.
go test -run '^TestGoldenTraceWarmCacheQ6$' .
echo "ci: warm-cache golden trace OK"

# Fused golden traces: fused Q6/Q3 traces must stay pinned against
# testdata/traces/*-fuse-*.txt, and the fused Q6 chain must show zero
# intermediate alloc/free spans.
go test -run '^TestGoldenTraceFused' .
echo "ci: fused golden traces OK"

# Auto-mode golden traces: rehearsal, planning and the decision spans
# must stay pinned against testdata/traces/*-auto-*.txt.
go test -run '^TestGoldenTraceAuto' .
echo "ci: auto golden traces OK"

# Auto-mode smoke: -auto must rehearse the query on fresh device
# instances, print its plan, and answer correctly end to end.
"$tracedir/adamant-run" -q Q6 -ratio 0.000244140625 -auto >"$tracedir/auto.txt"
grep -q '^auto plan: model=' "$tracedir/auto.txt" || {
	echo "ci: adamant-run -auto printed no plan" >&2
	exit 1
}
grep -q '^  plan  *rehearse [0-9]* cells' "$tracedir/auto.txt" || {
	echo "ci: adamant-run -auto printed no rehearsal note" >&2
	exit 1
}
echo "ci: adamant-run -auto smoke OK"

# Sharded CLI smoke: scattered Q6 must reproduce the unsharded revenue.
"$tracedir/adamant-run" -q Q6 -ratio 0.000244140625 -shards 4 >"$tracedir/sharded.txt"
"$tracedir/adamant-run" -q Q6 -ratio 0.000244140625 >"$tracedir/unsharded.txt"
rev_sharded=$(awk -F= '/revenue=/{print $2; exit}' "$tracedir/sharded.txt")
rev_unsharded=$(awk -F= '/revenue=/{print $2; exit}' "$tracedir/unsharded.txt")
if [ -z "$rev_sharded" ] || [ "$rev_sharded" != "$rev_unsharded" ]; then
	echo "ci: sharded Q6 revenue $rev_sharded != unsharded $rev_unsharded" >&2
	exit 1
fi
echo "ci: sharded CLI Q6 matches unsharded ($rev_sharded)"

# Profiler CLI smoke: a repeated profiled Q6 must print the ledger with
# every repetition folded in and the SLO line tracking all of them.
"$tracedir/adamant-run" -q Q6 -ratio 0.000244140625 -profile -repeat 3 \
	-slo 1s:0.99 >"$tracedir/profile-cli.txt"
grep -q '^profile: 3 queries' "$tracedir/profile-cli.txt" || {
	echo "ci: adamant-run -profile did not fold 3 queries" >&2
	exit 1
}
grep -q '^slo: target 1s' "$tracedir/profile-cli.txt" || {
	echo "ci: adamant-run -slo printed no SLO line" >&2
	exit 1
}
echo "ci: adamant-run -profile smoke OK"

# Benchmark smoke: every perf workload, untraced and traced, on shrunken
# data with each answer checked against the oracle — so a facade or seam
# change that breaks the benchmark fails here, not in the next perf PR.
go run ./perf -quick >/dev/null
echo "ci: perf -quick smoke OK"

./scripts/cover.sh
