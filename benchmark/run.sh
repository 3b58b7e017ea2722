#!/usr/bin/env bash
# The repository benchmark. Builds `ssg` and the harness from source
# (offline), then:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measurement; prints every metric by name with its unit, then a
#       JSON result line. Exit 0: all checks passed; 1: a correctness
#       check failed; 3: the run could not be measured.
#   benchmark/run.sh repeat N DIR [DIR2]
#       every workload with seeds 1..N, result lines appended to
#       DIR/<workload>.jsonl, then medians and quartiles per (metric,
#       workload). With DIR2, a second set on the same seeds is taken in
#       alternating order (A B, B A, ...) and compared with the first.
#   benchmark/run.sh compare BASE_DIR NEW_DIR
#       medians of NEW against BASE under the BENCHMARK.json bounds; exit 1
#       on a regression.
#
# Builds land in $CARGO_TARGET_DIR (default: target/ at the repository
# root); run outputs and trace dumps in benchmark/out/.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
harness="$target/release/ssg-benchmark"
spec="$root/BENCHMARK.json"

build() {
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin ssg >&2
    cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
}

run_one() {
    "$harness" run --ssg "$target/release/ssg" --out "$bench_dir/out" "$@"
}

# Appends the result line of one run to $1/<workload>.jsonl.
record() {
    local dir="$1" w="$2" s="$3" seconds="$4" line
    line="$(run_one --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1)" || true
    if [[ "$line" == "{"* ]]; then
        echo "$line" >>"$dir/$w.jsonl"
    else
        echo "run.sh: $w seed $s produced no result" >&2
    fi
}

case "${1:-}" in
repeat)
    n="${2:?usage: run.sh repeat N DIR [DIR2]}"
    dirs=("${3:?usage: run.sh repeat N DIR [DIR2]}")
    [[ -n "${4:-}" ]] && dirs+=("$4")
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")"
    build
    workloads="$("$harness" workloads)"
    for d in "${dirs[@]}"; do
        mkdir -p "$d"
        for w in $workloads; do : >"$d/$w.jsonl"; done
    done
    for ((s = 1; s <= n; s++)); do
        order=("${dirs[@]}")
        if ((s % 2 == 0 && ${#dirs[@]} == 2)); then order=("${dirs[1]}" "${dirs[0]}"); fi
        for w in $workloads; do
            for d in "${order[@]}"; do record "$d" "$w" "$s" "$seconds"; done
        done
    done
    for d in "${dirs[@]}"; do
        echo "== $d"
        "$harness" summarize "$d" --spec "$spec"
    done
    if ((${#dirs[@]} == 2)); then
        echo "== ${dirs[1]} against ${dirs[0]}"
        "$harness" compare "${dirs[0]}" "${dirs[1]}" --spec "$spec"
    fi
    ;;
compare)
    build
    "$harness" compare "${2:?usage: run.sh compare BASE NEW}" "${3:?usage: run.sh compare BASE NEW}" --spec "$spec"
    ;;
*)
    build
    run_one "$@"
    ;;
esac
