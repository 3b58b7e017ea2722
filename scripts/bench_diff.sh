#!/usr/bin/env sh
# Regression gate for the labeling benchmark: rerun `ssg bench` with the
# exact config the committed baseline was recorded with, and fail on any
# span drift (see `diff_against_baseline` in src/bench.rs — wall times and
# counters are deliberately not compared).
#
# With `--lab` the same gate is applied to a lab scenario matrix instead:
# the spec is re-run into a scratch directory and its table's deterministic
# columns (spans, ok, spans_match, cell membership) are diffed against the
# committed baseline table via `ssg lab run --baseline`.
#
# Usage: scripts/bench_diff.sh [baseline.json]   (default: BENCH_labeling.json)
#        scripts/bench_diff.sh --lab <spec.lab> <table.json>
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "--lab" ]; then
    SPEC="${2:?bench_diff: --lab needs <spec.lab> <table.json>}"
    TABLE="${3:?bench_diff: --lab needs <spec.lab> <table.json>}"
    for f in "$SPEC" "$TABLE"; do
        if [ ! -f "$f" ]; then
            echo "bench_diff: '$f' not found" >&2
            exit 2
        fi
    done
    echo "==> cargo build --release (ssg)"
    cargo build --release --offline --bin ssg
    LAB_DIR=$(mktemp -d)
    trap 'rm -rf "$LAB_DIR"' EXIT
    echo "==> ssg lab run $SPEC --baseline $TABLE"
    ./target/release/ssg lab run "$SPEC" --dir "$LAB_DIR/run" --baseline "$TABLE"
    exit 0
fi

BASELINE="${1:-BENCH_labeling.json}"
if [ ! -f "$BASELINE" ]; then
    echo "bench_diff: baseline '$BASELINE' not found" >&2
    exit 2
fi

# Pull n/reps/seed out of the baseline so the rerun is comparable. The
# grep/sed pair keys on the first occurrence of each field, which in an
# ssg-bench/v1 or /v2 document is the config block.
field() {
    grep -o "\"$1\": [0-9]*" "$BASELINE" | head -n 1 | sed 's/[^0-9]*//'
}
N="$(field n)"
REPS="$(field reps)"
SEED="$(field seed)"
if [ -z "$N" ] || [ -z "$REPS" ] || [ -z "$SEED" ]; then
    echo "bench_diff: could not read config from '$BASELINE'" >&2
    exit 2
fi

echo "==> cargo build --release (ssg)"
cargo build --release --offline --bin ssg

echo "==> ssg bench --n $N --reps $REPS --seed $SEED --compare $BASELINE"
exec ./target/release/ssg bench --n "$N" --reps "$REPS" --seed "$SEED" --compare "$BASELINE"
