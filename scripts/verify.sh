#!/usr/bin/env sh
# Repo verification gate: release build, full test suite, and rustdoc with
# warnings promoted to errors. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> forbid(unsafe_code) present in every crate root"
for root in src/lib.rs crates/*/src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]$' "$root"; then
        echo "missing #![forbid(unsafe_code)] in $root" >&2
        exit 1
    fi
done

echo "==> scripts/ab.sh and scripts/cpu_per_reply.sh parse (syntax only; each runs the benchmark)"
sh -n scripts/ab.sh
sh -n scripts/cpu_per_reply.sh

echo "==> cargo build --release"
cargo build --release --offline

echo "==> examples (cargo test builds them but never runs them)"
# `report` is left out: it runs for minutes.
for example in quickstart highway backbone auto_dispatch; do
    cargo run -q --release --offline --example "$example" > /dev/null
done

echo "==> cargo test -q (workspace)"
cargo test -q --workspace --offline

echo "==> cargo test --release -p ssg-engine"
cargo test -q --release -p ssg-engine --offline

echo "==> cargo test --release -p ssg-intervals -p ssg-labeling -p ssg-net (release arithmetic wraps where debug panics)"
cargo test -q --release -p ssg-intervals -p ssg-labeling -p ssg-net --offline

echo "==> loopback suite 5 more times (release): the pipelined connection loop has timing-dependent paths"
# Early engine replies waiting their turn, the drain, and the write
# timeout that abandons a peer which stopped reading all depend on thread
# timing; one lucky run proves little.
for run in 1 2 3 4 5; do
    echo "    loopback run $run/5"
    cargo test -q --release -p ssg-net --offline --test loopback
done

echo "==> benchmark harness tests (builds against ../crates, must leave benchmark/ untouched)"
# The harness is its own package with its own Cargo.lock: an API break in
# the crates, or a dependency change that rewrites that lockfile, must
# fail here rather than when the benchmark is next run.
bench_state() {
    git status --porcelain -- benchmark BENCHMARK.json
    git diff -- benchmark BENCHMARK.json
}
BENCH_BEFORE=$(bench_state)
cargo test --manifest-path benchmark/Cargo.toml --offline -q
if [ "$(bench_state)" != "$BENCH_BEFORE" ]; then
    echo "the harness tests changed benchmark/ or BENCHMARK.json:" >&2
    git status --porcelain -- benchmark BENCHMARK.json >&2
    exit 1
fi

echo "==> scripts/bench_diff.sh (span drift vs BENCH_labeling.json)"
sh scripts/bench_diff.sh

echo "==> lab smoke (run -> resume no-op -> report, demo matrix vs baseline)"
LAB_DIR=$(mktemp -d)
cat > "$LAB_DIR/smoke.lab" <<'EOF'
name = smoke

[grid]
class   = corridor backbone
n       = 24
backend = sequential engine:2
EOF
./target/release/ssg lab run "$LAB_DIR/smoke.lab" --dir "$LAB_DIR/run" > /dev/null
RESUME=$(./target/release/ssg lab resume "$LAB_DIR/run")
case "$RESUME" in
    *"ran 0 cell"*) ;;
    *) echo "lab resume was not a no-op:" >&2; echo "$RESUME" >&2; exit 1 ;;
esac
./target/release/ssg lab report "$LAB_DIR/run" --format json > /dev/null
rm -rf "$LAB_DIR"
sh scripts/bench_diff.sh --lab labs/demo.lab labs/demo.table.json

echo "==> serve/loadgen smoke (ephemeral port, 50 rps x 2s, drain)"
SMOKE_DIR=$(mktemp -d)
./target/release/ssg serve --addr 127.0.0.1:0 --workers 2 \
    > "$SMOKE_DIR/serve.out" &
SERVE_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^ssg-serve: listening on //p' "$SMOKE_DIR/serve.out")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve never announced its address" >&2; exit 1; }
HEALTH=$(./target/release/ssg fetch "$ADDR" /healthz)
[ "$HEALTH" = "ok" ] || { echo "unexpected /healthz body: $HEALTH" >&2; exit 1; }
./target/release/ssg loadgen --addr "$ADDR" --rps 50 --duration 2 --n 64
METRICS=$(./target/release/ssg fetch "$ADDR" /metrics)
case "$METRICS" in
    *ssg_net_requests_total*) ;;
    *) echo "/metrics missing ssg_net_requests_total" >&2; exit 1 ;;
esac
echo "==> trace round trip (traced fetch -> chrome export -> check, profile)"
TRACE_ID=c0ffee
./target/release/ssg fetch "$ADDR" /label --post 'LABEL corridor 24 5 2,1' \
    --trace-id "$TRACE_ID" --trace-dump "$SMOKE_DIR/fetch.json" \
    --trace-export "$SMOKE_DIR/fetch.trace.json" > "$SMOKE_DIR/reply.json"
case "$(cat "$SMOKE_DIR/reply.json")" in
    *'"trace": "0000000000c0ffee"'*) ;;
    *) echo "traced reply missing trace echo:" >&2
       cat "$SMOKE_DIR/reply.json" >&2; exit 1 ;;
esac
./target/release/ssg trace check "$SMOKE_DIR/fetch.trace.json" \
    --expect-trace "$TRACE_ID"
./target/release/ssg trace export "$SMOKE_DIR/fetch.json" \
    -o "$SMOKE_DIR/fetch2.trace.json"
./target/release/ssg trace check "$SMOKE_DIR/fetch2.trace.json" \
    --expect-trace "$TRACE_ID"
PROFILE=$(./target/release/ssg profile "$SMOKE_DIR/fetch.json")
case "$PROFILE" in
    *client.request*) ;;
    *) echo "profile missing client.request:" >&2; echo "$PROFILE" >&2; exit 1 ;;
esac
./target/release/ssg loadgen --addr "$ADDR" --rps 10 --duration 1 --n 16 --drain \
    > /dev/null
wait "$SERVE_PID" || { echo "serve exited non-zero" >&2; exit 1; }
rm -rf "$SMOKE_DIR"

echo "==> incremental churn smoke (delta patching vs from-scratch optimum)"
CHURN_OUT=$(./target/release/ssg churn 15 11 --incremental)
case "$CHURN_OUT" in
    *"spans match from-scratch optimum: yes"*) ;;
    *) echo "incremental churn smoke failed:" >&2; echo "$CHURN_OUT" >&2; exit 1 ;;
esac
./target/release/ssg churn 8 11 --incremental --format json > /dev/null

echo "==> cargo clippy --all-targets (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> non-test Rust lines (informational, no threshold)"
sh scripts/loc.sh

echo "==> OK"
