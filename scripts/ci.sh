#!/usr/bin/env bash
# Tier-1 CI gate: format, lint, docs, build, test, examples smoke.
#
# The workspace has no external dependencies, so everything also works on a
# machine with no registry access — if `cargo fetch` cannot reach a
# registry, every later step runs with `--offline`.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if ! cargo fetch --quiet 2>/dev/null; then
    echo "== registry unreachable, continuing with --offline"
    OFFLINE="--offline"
fi

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy $OFFLINE --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc $OFFLINE --workspace --no-deps --quiet

# Doc examples are the API's contract — including the README code blocks,
# which doc-test through fetchvp-experiments.
echo "== cargo test --doc"
cargo test $OFFLINE -q --doc --workspace

echo "== tier-1: cargo build --release"
cargo build $OFFLINE --release

echo "== tier-1: cargo test -q"
cargo test $OFFLINE -q

# The batch kernel's correctness contract: batched configs produce counters
# byte-identical to serial runs, on every workload, at --jobs 1 and 8.
echo "== batch-vs-serial differential"
cargo test $OFFLINE -q -p fetchvp-experiments --test batch_vs_serial

# HTTP regressions: the request parser (trailing keep-alive bytes, exact
# body reads, duplicate Content-Length handling) and the blocking client
# (`http::client`: reply parsing and the MAX_RESPONSE_BYTES cap).
echo "== http parser and client regressions"
cargo test $OFFLINE -q -p fetchvp-server --lib http::

# Out-of-core tracestore: chunked round-trip, corruption-hardening and
# cache-semantics tests (also covered by the workspace test run above;
# named here so a format change fails loudly), then a 20M-instruction
# smoke through the content-addressed trace cache — generation streams to
# disk, the machine sweep replays chunk-by-chunk, and the pre-generated
# trace is reused (the `trace-gen` line prints `already cached` when the
# sweep finds it warm).
echo "== tracestore tests"
cargo test $OFFLINE -q -p fetchvp-tracestore

echo "== out-of-core smoke (20M instructions)"
TRACE_DIR=$(mktemp -d)
cargo run $OFFLINE --release -p fetchvp-cli -- trace-gen m88ksim \
    --trace-len 20000000 --trace-dir "$TRACE_DIR"
cargo run $OFFLINE --release -p fetchvp-cli -- trace-info "$TRACE_DIR"/m88ksim-*.fvps
cargo run $OFFLINE --release -p fetchvp-cli -- usefulness \
    --trace-len 20000000 --trace-dir "$TRACE_DIR" --csv >/dev/null

# The flagship streaming e2e: the same 20M out-of-core sweep served over
# HTTP with a live `GET /jobs/<id>/events` follower — monotone progress,
# on-disk chunk indices in the events, and a result byte-identical to
# the in-process run. Reuses the traces the smoke above just generated.
echo "== out-of-core streaming e2e (20M instructions)"
FETCHVP_E2E_TRACE_DIR="$TRACE_DIR" cargo test $OFFLINE --release -q -p fetchvp-server \
    --test stream_e2e -- --ignored
rm -rf "$TRACE_DIR"

# The standing invariant gate: differentially fuzz sampled workload-family
# points across the spanning machine set (fixed seed — deterministic, and
# any failure prints a replayable repro tuple; see EXPERIMENTS.md).
echo "== fuzz-smoke"
cargo run $OFFLINE --release -p fetchvp-cli -- fuzz --cases 64 --seed 7

# The bench counters report is a pure function of (trace_len, seed): its
# bytes must not depend on the worker count or on where the traces come
# from (in memory or a content-addressed trace directory).
echo "== bench report determinism"
BENCH_DIR=$(mktemp -d)
BENCH="cargo run $OFFLINE --release -q -p fetchvp-cli -- bench --trace-len 60000"
$BENCH --jobs 1 >"$BENCH_DIR/jobs1.json"
$BENCH --jobs 2 >"$BENCH_DIR/jobs2.json"
$BENCH --jobs 2 --trace-dir "$BENCH_DIR/traces" >"$BENCH_DIR/tracedir.json"
cmp "$BENCH_DIR/jobs1.json" "$BENCH_DIR/jobs2.json"
cmp "$BENCH_DIR/jobs1.json" "$BENCH_DIR/tracedir.json"
rm -rf "$BENCH_DIR"

for example in quickstart did_analysis trace_cache_vp custom_workload event_vs_analytic serve_client out_of_core; do
    echo "== example: $example"
    cargo run $OFFLINE --release --example "$example" >/dev/null
done

echo "== server smoke"
./scripts/server_smoke.sh

# Fleet serving under load: a two-member --peers fleet, warmed result
# cache, open-loop loadgen, floor-RPS gate (warn-only — wall-clock on
# shared hosts is noisy; see EXPERIMENTS.md "Load testing").
echo "== loadgen smoke"
BENCH_WARN_ONLY=1 ./scripts/loadgen_smoke.sh

echo "== CI green"
