#!/usr/bin/env sh
# Tier-1 verification recipe (see ROADMAP.md). Run from the repo root.
#
# The -race pass covers the packages the parallel sweep engine and the
# serving layer touch: the worker pool and memoized caches in experiments,
# the trained classifier every /v1/classify handler shares in naturalness,
# the shared linking memos in llm, the per-cell pipeline in workflow, the
# clock-hand cache in memo, the pooled HTTP server, the cluster
# router plus its fault-injection harness (kill/restart/drain under load),
# and the model backends (retrying HTTP client against the mock server).
# It runs with -short so the determinism test uses a database subset
# (goroutine interleaving is what the race detector needs, not the full
# grid).
#
# perfbench/ is a nested Go module (the benchmark, built against this
# module's internal packages through a replace directive), so the root
# `go test ./...` does not reach it; it is vetted and tested on its own so an
# API change here cannot break the benchmark unnoticed.
#
# The cluster smoke exercises the real binary topology: a router spawning
# two shard processes, load through the router while one shard takes
# SIGKILL (zero client-visible errors required), then a SIGTERM drain.
#
# The fuzz smoke replays each target's committed corpus and mutates for ten
# seconds — long enough to catch shallow regressions in the SQL front end,
# CSV ingestion, and the planner/naive differential without stalling the
# tier-1 loop.
set -eu

cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== go test"
go test ./...

echo "== perfbench module (go vet + go test)"
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race (concurrency-touched packages)"
go test -race -short ./internal/experiments/ ./internal/naturalness/ ./internal/llm/ ./internal/token/ ./internal/workflow/ ./internal/memo/ ./internal/obs/ ./internal/server/ ./internal/trace/ ./internal/sqlexec/ ./internal/sqldb/ ./internal/cluster/ ./internal/cluster/clustertest/ ./internal/backend/ ./internal/config/

echo "== go fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/sqlparse/
go test -run '^$' -fuzz '^FuzzLex$' -fuzztime 10s ./internal/sqlparse/
go test -run '^$' -fuzz '^FuzzLoadCSV$' -fuzztime 10s ./internal/etl/
go test -run '^$' -fuzz '^FuzzPlanExec$' -fuzztime 10s ./internal/sqlexec/
go test -run '^$' -fuzz '^FuzzTraceHeader$' -fuzztime 10s ./internal/trace/

echo "== decode allocation gate (zero-alloc scoring loops + Infer allocs/op budget)"
# TestScoringLoopAllocs pins the warm columnar scoring loops at exactly zero
# allocations; the benchmark bounds the end-to-end Infer allocation budget
# (Prediction assembly only — ~9 allocs/op at the time the gate was set).
go test -run 'TestScoringLoopAllocs' -count=1 ./internal/llm/ > /dev/null
ALLOCS="$(go test -run '^$' -bench 'BenchmarkInferDecode/fast' -benchtime 2000x -benchmem ./internal/llm/ | awk '$NF == "allocs/op" {print $(NF-1)}')"
awk -v a="$ALLOCS" 'BEGIN { if (a == "" || a+0 > 16) { print "decode Infer allocs/op budget exceeded: \"" a "\" > 16"; exit 1 } }'

echo "== serving allocation gates (hot-path + relay allocs/op budgets)"
# BenchmarkServeHotPath bounds the warm-cache request path (decode, cache
# key, lookup, pooled response write) — ~30 allocs/op when the gate was set.
# BenchmarkRelay bounds the router's proxied path (pooled body read, ring
# lookup, forward, pooled streaming relay) — ~108 allocs/op at gate time.
SERVE_ALLOCS="$(go test -run '^$' -bench 'BenchmarkServeHotPath' -benchtime 2000x -benchmem ./internal/server/ | awk '$NF == "allocs/op" {print $(NF-1)}')"
awk -v a="$SERVE_ALLOCS" 'BEGIN { if (a == "" || a+0 > 40) { print "serve hot-path allocs/op budget exceeded: \"" a "\" > 40"; exit 1 } }'
RELAY_ALLOCS="$(go test -run '^$' -bench 'BenchmarkRelay' -benchtime 2000x -benchmem ./internal/cluster/ | awk '$NF == "allocs/op" {print $(NF-1)}')"
awk -v a="$RELAY_ALLOCS" 'BEGIN { if (a == "" || a+0 > 130) { print "cluster relay allocs/op budget exceeded: \"" a "\" > 130"; exit 1 } }'

echo "== tracing smoke (snailsd -pprof: /debug/pprof/ + /debugz/traces, clean shutdown)"
SNAILSD_BIN="$(mktemp -d)/snailsd"
go build -o "$SNAILSD_BIN" ./cmd/snailsd
"$SNAILSD_BIN" -addr 127.0.0.1:18931 -pprof -preload=false &
SNAILSD_PID=$!
tries=0
until curl -fsS -o /dev/null http://127.0.0.1:18931/healthz; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "snailsd did not become healthy" >&2
        kill "$SNAILSD_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.2
done
curl -fsS -o /dev/null http://127.0.0.1:18931/debug/pprof/
curl -fsS http://127.0.0.1:18931/debugz/traces | grep -q '"traces"'

echo "== /metrics scrape smoke (Prometheus format, monotone self-count, /metricsz agreement)"
SCRATCH="$(mktemp -d)"
curl -fsS http://127.0.0.1:18931/metrics > "$SCRATCH/scrape1.txt"
grep -q '^# TYPE snails_http_requests_total counter' "$SCRATCH/scrape1.txt"
grep -q '^# TYPE snails_http_request_duration_seconds histogram' "$SCRATCH/scrape1.txt"
grep -q '^# TYPE snails_go_goroutines gauge' "$SCRATCH/scrape1.txt"
curl -fsS -o /dev/null -X POST -d '{"identifiers":["VgHt"]}' http://127.0.0.1:18931/v1/classify
curl -fsS http://127.0.0.1:18931/metrics > "$SCRATCH/scrape2.txt"
M1="$(grep 'snails_http_requests_total{path="/metrics"}' "$SCRATCH/scrape1.txt" | awk '{print $2}')"
M2="$(grep 'snails_http_requests_total{path="/metrics"}' "$SCRATCH/scrape2.txt" | awk '{print $2}')"
C2="$(grep 'snails_http_requests_total{path="/v1/classify"}' "$SCRATCH/scrape2.txt" | awk '{print $2}')"
awk -v a="$M1" -v b="$M2" -v c="$C2" 'BEGIN { if (!(b > a && c >= 1)) { print "scrape counters not monotone: /metrics " a " -> " b ", /v1/classify " c; exit 1 } }'
# /metricsz is a JSON view over the same sources as /metrics, so its
# per-path count must equal the scraped series.
Z2="$(curl -fsS http://127.0.0.1:18931/metricsz | grep -o '"/v1/classify":[0-9]*' | cut -d: -f2)"
awk -v z="$Z2" -v c="$C2" 'BEGIN { if (z == "" || z+0 != c+0) { print "/metricsz requests_by_path[/v1/classify] = \"" z "\", /metrics says " c; exit 1 } }'

kill -TERM "$SNAILSD_PID"
wait "$SNAILSD_PID"
rm -rf "$(dirname "$SNAILSD_BIN")"

echo "== cluster smoke (router + 2 shards, SIGKILL one mid-load, clean drain)"
CSCRATCH="$(mktemp -d)"
go build -o "$CSCRATCH/snailsd" ./cmd/snailsd
go build -o "$CSCRATCH/snailsbench" ./cmd/snailsbench
"$CSCRATCH/snailsd" -cluster -cluster-shards 2 -addr 127.0.0.1:18941 -preload=false &
ROUTER_PID=$!
tries=0
until curl -fsS http://127.0.0.1:18941/healthz 2>/dev/null | grep -q '"status":"ok"'; do
    tries=$((tries + 1))
    if [ "$tries" -ge 150 ]; then
        echo "cluster router never reported all shards alive" >&2
        kill "$ROUTER_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.2
done
# Background load through the router; every request must succeed even though
# a shard dies mid-run (the router retries onto the survivor and the
# supervisor respawns the victim).
"$CSCRATCH/snailsbench" -loadgen -target http://127.0.0.1:18941 -requests 200 -concurrency 4 -serve-bench "" > "$CSCRATCH/loadgen.out" 2>&1 &
LOADGEN_PID=$!
sleep 0.3
SHARD_PID="$(curl -fsS http://127.0.0.1:18941/metricsz | tr ',' '\n' | grep -m1 '"pid"' | grep -o '[0-9][0-9]*' | head -1)"
if [ -z "$SHARD_PID" ]; then
    echo "could not extract a shard pid from /metricsz" >&2
    kill "$ROUTER_PID" 2>/dev/null || true
    exit 1
fi
kill -9 "$SHARD_PID"
if ! wait "$LOADGEN_PID"; then
    echo "cluster loadgen failed after shard kill:" >&2
    cat "$CSCRATCH/loadgen.out" >&2
    kill "$ROUTER_PID" 2>/dev/null || true
    exit 1
fi
# Stitched-trace assertion: pick any shard-recorded wire trace ID from the
# router's merged trace stream, fetch that single trace by ?id=, and require
# spans from at least two distinct processes — the router's root view and a
# shard's pipeline view — under the one trace ID.
TID="$(curl -fsS http://127.0.0.1:18941/debugz/traces \
    | grep -o '"trace_id":"[0-9a-f]\{16\}","proc":"shard-[^"]*"' | head -1 \
    | sed 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/')"
if [ -z "$TID" ]; then
    echo "no shard-side wire trace id in the router's /debugz/traces stream" >&2
    kill "$ROUTER_PID" 2>/dev/null || true
    exit 1
fi
STITCHED="$(curl -fsS "http://127.0.0.1:18941/debugz/traces?id=$TID")"
for want in '"proc":"router"' '"proc":"shard-' '"stage":"route"' '"stage":"relay_attempt"'; do
    if ! printf '%s' "$STITCHED" | grep -q "$want"; then
        echo "stitched trace $TID missing $want: $STITCHED" >&2
        kill "$ROUTER_PID" 2>/dev/null || true
        exit 1
    fi
done
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID"
rm -rf "$CSCRATCH"

echo "== config-driven sweep smoke (configs/ vs flag path, mock HTTP end-to-end)"
go build -o "$SCRATCH/snailsbench" ./cmd/snailsbench
# configs/synthetic.json mirrors the default grid exactly (same profile
# order, all databases and variants), so the config path must produce a
# byte-identical per-cell dump to the flag path.
"$SCRATCH/snailsbench" -out "$SCRATCH/flags_report.txt" -bench "" -cells "$SCRATCH/cells_flags.txt"
"$SCRATCH/snailsbench" -config configs/synthetic.json -cells "$SCRATCH/cells_config.txt" > /dev/null
cmp "$SCRATCH/cells_flags.txt" "$SCRATCH/cells_config.txt"
# The mock-HTTP config runs end to end through a real loopback
# /v1/chat/completions server: 20 cells (2 DBs x 2 variants x 5 questions),
# every row attributed to the "mock" backend.
"$SCRATCH/snailsbench" -config configs/mock-http.json -cells "$SCRATCH/cells_mock.txt" > /dev/null
MOCK_ROWS="$(grep -c '^mock' "$SCRATCH/cells_mock.txt")"
TOTAL_ROWS="$(wc -l < "$SCRATCH/cells_mock.txt")"
awk -v m="$MOCK_ROWS" -v t="$TOTAL_ROWS" 'BEGIN { if (m != 20 || t+0 != 20) { print "mock-http sweep produced " m "/" t " mock rows, want 20/20"; exit 1 } }'

echo "== benchmark regression gate (snailsbench -compare)"
# The committed baselines must pass the gate against themselves (plumbing +
# schema check; -against defaults to the committed artifact of the same kind).
"$SCRATCH/snailsbench" -compare BENCH_sweep.json > /dev/null
"$SCRATCH/snailsbench" -compare BENCH_serve.json > /dev/null
# The current committed baselines must not regress against the pre-planner
# snapshots (BENCH_*.prev.json): the query-planner speedups are load-bearing.
"$SCRATCH/snailsbench" -compare BENCH_sweep.prev.json -against BENCH_sweep.json > /dev/null
"$SCRATCH/snailsbench" -compare BENCH_serve.prev.json -against BENCH_serve.json > /dev/null
# A fresh loadgen run self-compares clean even at zero tolerance...
"$SCRATCH/snailsbench" -loadgen -requests 120 -concurrency 8 -serve-bench "$SCRATCH/serve.json" > /dev/null 2>&1
"$SCRATCH/snailsbench" -compare "$SCRATCH/serve.json" -against "$SCRATCH/serve.json" -tolerance 0 > /dev/null
# ...and an inflated baseline (digit prepended to requests_per_sec, so the
# fresh run looks ~10x slower) must trip the gate with a non-zero exit.
sed 's/"requests_per_sec": /"requests_per_sec": 9/' "$SCRATCH/serve.json" > "$SCRATCH/inflated.json"
if "$SCRATCH/snailsbench" -compare "$SCRATCH/inflated.json" -against "$SCRATCH/serve.json" > /dev/null; then
    echo "compare gate failed to flag an injected regression" >&2
    exit 1
fi
rm -rf "$SCRATCH"

echo "OK"
