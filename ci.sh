#!/usr/bin/env bash
# CI gate for the poisongame workspace. Mirrors what a hosted pipeline
# would run; keep it green before merging.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The scenario-spec API is the front door for every new workload; run
# its example end-to-end (quick 4×3×2 grid) so the surface can't rot
# while unit tests stay green.
echo "==> cargo run --release --example scenario_matrix"
cargo run --release --example scenario_matrix

# Server smoke: boot the serve daemon on an ephemeral port, drive a
# small mixed workload (solve + cell + estimate + stats) through the
# client, request shutdown, and assert a clean drain-and-exit.
echo "==> serve smoke (ephemeral port, solve+cell+estimate+stats+shutdown)"
PORT_FILE=$(mktemp)
rm -f "$PORT_FILE"
./target/release/examples/serve --addr 127.0.0.1:0 --port-file "$PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$PORT_FILE" ]; then
  echo "serve never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
JSON_FILE=$(mktemp)
if ! ./target/release/examples/load_test --addr "$(cat "$PORT_FILE")" --connections 1 --requests 4 --shutdown --json "$JSON_FILE"; then
  # Don't orphan the daemon when the client side fails.
  kill "$SERVE_PID" 2>/dev/null || true
  wait "$SERVE_PID" 2>/dev/null || true
  rm -f "$PORT_FILE" "$JSON_FILE"
  echo "serve smoke failed" >&2
  exit 1
fi
wait "$SERVE_PID"   # clean exit after drain, or this fails the gate
rm -f "$PORT_FILE"
# The --json summary is the seed of the BENCH_*.json perf trajectory;
# an empty or key-less file means the reporting path silently broke.
if [ ! -s "$JSON_FILE" ]; then
  echo "load_test --json wrote an empty summary" >&2
  rm -f "$JSON_FILE"
  exit 1
fi
for key in throughput_rps latency_ms prep_cache training telemetry; do
  if ! grep -q "\"$key\"" "$JSON_FILE"; then
    echo "load_test --json summary is missing \"$key\"" >&2
    rm -f "$JSON_FILE"
    exit 1
  fi
done
rm -f "$JSON_FILE"

# Sharded load smoke: in-process server with >=2 shards under a
# concurrent closed-loop workload. load_test itself asserts zero
# dropped and zero mismatched responses — a routing or affinity bug
# fails the gate here.
echo "==> sharded load_test (2 shards, 8 connections)"
./target/release/examples/load_test --connections 8 --requests 8 --shards 2

# Gateway smoke: boot serve + gateway on ephemeral ports, drive an
# HTTP solve and stats through the gateway, then shut the whole stack
# down over HTTP and assert both daemons exit cleanly.
echo "==> gateway smoke (ephemeral ports, HTTP solve+stats+shutdown)"
SERVE_PORT_FILE=$(mktemp) && rm -f "$SERVE_PORT_FILE"
GW_PORT_FILE=$(mktemp) && rm -f "$GW_PORT_FILE"
./target/release/examples/serve --addr 127.0.0.1:0 --shards 2 --port-file "$SERVE_PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SERVE_PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$SERVE_PORT_FILE" ]; then
  echo "serve never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
./target/release/examples/gateway --addr 127.0.0.1:0 --backend "$(cat "$SERVE_PORT_FILE")" --port-file "$GW_PORT_FILE" &
GW_PID=$!
for _ in $(seq 1 100); do
  [ -s "$GW_PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$GW_PORT_FILE" ]; then
  echo "gateway never published its port" >&2
  kill "$GW_PID" "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
gateway_smoke_fail() {
  echo "gateway smoke failed: $1" >&2
  kill "$GW_PID" "$SERVE_PID" 2>/dev/null || true
  wait "$GW_PID" "$SERVE_PID" 2>/dev/null || true
  rm -f "$SERVE_PORT_FILE" "$GW_PORT_FILE" "${GW_JSON:-}"
  rm -rf "${GW_OBS:-}"
  exit 1
}
# The load generator in --gateway mode: HTTP solve/cell/estimate via
# POST /v1/* and GET /v1/stats. Mismatched or dropped responses fail
# inside load_test. Shutdown happens below, over HTTP, after the
# observability scrape.
GW_JSON=$(mktemp)
./target/release/examples/load_test --addr "$(cat "$GW_PORT_FILE")" --gateway \
  --connections 2 --requests 4 --json "$GW_JSON" \
  || gateway_smoke_fail "HTTP workload through the gateway"
grep -q '"transport":"http"' "$GW_JSON" || gateway_smoke_fail "summary missing http transport marker"
grep -q '"shards"' "$GW_JSON" || gateway_smoke_fail "summary missing per-shard stats"
# Observability smoke: scrape the Prometheus exposition and the event
# replay with plain curl — the point of the HTTP surface is that
# standard tooling works. Runs after the workload above so the
# request-duration histogram is provably populated. Responses land in
# files and the greps read those: piping into `grep -q` under
# pipefail races SIGPIPE against the writer when grep exits early.
GW_ADDR=$(cat "$GW_PORT_FILE")
GW_OBS=$(mktemp -d)
curl -sf -D "$GW_OBS/headers" -o "$GW_OBS/metrics" "http://$GW_ADDR/v1/metrics" \
  || gateway_smoke_fail "GET /v1/metrics"
grep -qi 'content-type: text/plain; version=0.0.4' "$GW_OBS/headers" \
  || gateway_smoke_fail "/v1/metrics content type is not Prometheus text 0.0.4"
grep -q '# TYPE poisongame_request_duration_nanos histogram' "$GW_OBS/metrics" \
  || gateway_smoke_fail "metrics missing the request-duration histogram family"
grep -Eq 'poisongame_request_duration_nanos_count\{[^}]*\} [1-9]' "$GW_OBS/metrics" \
  || gateway_smoke_fail "request-duration histogram recorded nothing under load"
curl -sf -o "$GW_OBS/events" "http://$GW_ADDR/v1/events" \
  || gateway_smoke_fail "GET /v1/events"
grep -q '"events"' "$GW_OBS/events" || gateway_smoke_fail "GET /v1/events body"
rm -rf "$GW_OBS"
# -d '' so curl sends content-length: 0 (the gateway 411s unframed
# POSTs).
curl -sf -X POST -d '' "http://$GW_ADDR/v1/shutdown" >/dev/null \
  || gateway_smoke_fail "POST /v1/shutdown"
# Clean exits, or the gate fails: shutdown drains serve through the
# gateway and stops both processes.
wait "$GW_PID" || gateway_smoke_fail "gateway did not exit cleanly"
wait "$SERVE_PID" || gateway_smoke_fail "serve did not exit cleanly"
rm -f "$SERVE_PORT_FILE" "$GW_PORT_FILE" "$GW_JSON"

# Ingestion smoke, part 1: the ingest example generates on-disk CSVs,
# preps them whole-file and out-of-core, and asserts the two paths
# produce bit-identical PreparedData (content_digest) — a divergence
# aborts the example and fails the gate here.
echo "==> cargo run --release --example ingest (whole vs chunked digest identity)"
INGEST_DIR=$(mktemp -d)
./target/release/examples/ingest --scales 1,4 --rows 600 --chunk-rows 64 \
  --json "$INGEST_DIR/ingest.json" --emit "$INGEST_DIR/spam.csv"
for key in digest_match io_counters rows_per_sec; do
  if ! grep -q "\"$key\"" "$INGEST_DIR/ingest.json"; then
    echo "ingest --json summary is missing \"$key\"" >&2
    rm -rf "$INGEST_DIR"
    exit 1
  fi
done

# Ingestion smoke, part 2: a file-source scenario served end to end —
# serve boots with --data-dir, the gateway fronts it, and load_test
# drives the {"type":"file"} workload over HTTP (zero mismatched
# responses asserted inside load_test). The /v1/metrics scrape then
# proves the io_* telemetry counted the served ingestion.
echo "==> file-source serve smoke (--data-dir through the gateway)"
SERVE_PORT_FILE=$(mktemp) && rm -f "$SERVE_PORT_FILE"
GW_PORT_FILE=$(mktemp) && rm -f "$GW_PORT_FILE"
./target/release/examples/serve --addr 127.0.0.1:0 --data-dir "$INGEST_DIR" --port-file "$SERVE_PORT_FILE" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SERVE_PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$SERVE_PORT_FILE" ]; then
  echo "serve never published its port" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
./target/release/examples/gateway --addr 127.0.0.1:0 --backend "$(cat "$SERVE_PORT_FILE")" --port-file "$GW_PORT_FILE" &
GW_PID=$!
for _ in $(seq 1 100); do
  [ -s "$GW_PORT_FILE" ] && break
  sleep 0.1
done
if [ ! -s "$GW_PORT_FILE" ]; then
  echo "gateway never published its port" >&2
  kill "$GW_PID" "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
ingest_smoke_fail() {
  echo "file-source smoke failed: $1" >&2
  kill "$GW_PID" "$SERVE_PID" 2>/dev/null || true
  wait "$GW_PID" "$SERVE_PID" 2>/dev/null || true
  rm -rf "$INGEST_DIR"
  rm -f "$SERVE_PORT_FILE" "$GW_PORT_FILE"
  exit 1
}
GW_ADDR=$(cat "$GW_PORT_FILE")
./target/release/examples/load_test --addr "$GW_ADDR" --gateway --dataset spam.csv \
  --connections 2 --requests 4 \
  || ingest_smoke_fail "file-source workload through the gateway"
curl -sf -o "$INGEST_DIR/metrics" "http://$GW_ADDR/v1/metrics" \
  || ingest_smoke_fail "GET /v1/metrics"
grep -Eq 'poisongame_io_rows_total [1-9]' "$INGEST_DIR/metrics" \
  || ingest_smoke_fail "io_* telemetry counted no served ingestion"
curl -sf -X POST -d '' "http://$GW_ADDR/v1/shutdown" >/dev/null \
  || ingest_smoke_fail "POST /v1/shutdown"
wait "$GW_PID" || ingest_smoke_fail "gateway did not exit cleanly"
wait "$SERVE_PID" || ingest_smoke_fail "serve did not exit cleanly"
rm -rf "$INGEST_DIR"
rm -f "$SERVE_PORT_FILE" "$GW_PORT_FILE"

# Online-play smoke: short-horizon repeated game on the discretized
# paper game plus the empirical mode on real data. The example
# asserts regret shrinks, the averaged value lands within 1e-2 of the
# static NE, the empirical run stays within an order of magnitude of
# the static solve, and the trace is byte-identical on the sequential
# and the default policy — a regression in any of those fails the
# gate.
echo "==> cargo run --release --example online_play"
cargo run --release --example online_play

# Telemetry-overhead bench in the obs-noop build: asserts the
# pipeline-phase calls compiled to nothing, and each iteration asserts
# the 24-cell grid checksum is unchanged. The default (instrumented)
# build of the same bench runs in the step below.
echo "==> cargo bench -p poisongame-bench --bench obs_overhead --features obs-noop -- --test (smoke)"
cargo bench -p poisongame-bench --bench obs_overhead --features obs-noop -- --test

# Bench binaries in --test smoke mode (one sample per bench): keeps
# every bench compiling AND running without paying for statistics.
# Scoped to the bench package so the arg reaches only the harness=false
# bench binaries, not every crate's libtest harness. Among them:
# - train_kernel: SVM and logistic regression fits at three sizes,
#   plus the 24-cell grid;
# - exec_pool: per-call scoped spawning vs the shared worker pool at
#   1/8/64-cell grids, and serial vs pool-parallel gemm_nt (each
#   iteration asserts bit-exact checksums, so this also guards the
#   parallel kernel's identity);
# - obs_overhead (default, instrumented build): asserts the
#   pipeline-phase counters recorded time and the 24-cell grid
#   checksum is unchanged, so instrumentation provably never touches
#   a result;
# - ingest: chunked scan / strict parse throughput, plus whole-file vs
#   out-of-core preparation of on-disk file sources.
echo "==> cargo bench -p poisongame-bench -- --test (smoke)"
cargo bench -p poisongame-bench -- --test

# Benchmark smoke: every BENCHMARK.json workload for 3 s, plus a traced
# paper_table1 run, whose replay of the traced cells must match the
# untraced outputs bit for bit. perfbench exits non-zero when any
# correctness check fails (served vs in-process results, traced replay,
# declared metric names); the gate also requires its final line to say
# "correct":true with no failed operations.
echo "==> perfbench smoke (each workload 3 s, traced paper_table1)"
for run in "serve_warm_http 0" "serve_cold_ndjson 0" "paper_table1 0" "paper_table1 1"; do
  read -r workload trace <<< "$run"
  if ! BENCH_OUT=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace "$trace"); then
    echo "$BENCH_OUT" >&2
    echo "perfbench $workload --trace $trace failed" >&2
    exit 1
  fi
  BENCH_LAST=$(echo "$BENCH_OUT" | tail -n 1)
  case "$BENCH_LAST" in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
      echo "$BENCH_OUT" >&2
      echo "perfbench $workload --trace $trace reported a failure: $BENCH_LAST" >&2
      exit 1
      ;;
  esac
done

echo "CI green."
