#!/usr/bin/env sh
# A/B benchmark of the working tree against a parent revision.
#
#   scripts/ab.sh <parent-rev> [pairs] [first-seed] [out]
#
# Builds `ssg` and the benchmark harness twice: from `git archive
# <parent-rev>` in a temporary directory (with its own target dir), and from
# the working tree (into $CARGO_TARGET_DIR, default target/). Then, for the
# seeds first-seed .. first-seed + pairs - 1 (defaults: 10 pairs from seed
# 1) and every workload, it takes one run per side at BENCHMARK.json's
# run_seconds, alternating which side runs first from seed to seed.
#
# Serving workloads run the parent-built harness against each side's `ssg`,
# so every sampled reply of the change is certified against the parent's
# regenerated instance. `churn` runs in process, so each side runs its own
# harness.
#
# Result lines go to OUT/parent/<workload>.jsonl and
# OUT/change/<workload>.jsonl (OUT defaults to a new directory under
# $TMPDIR). At the end it prints the harness's `summarize` of each side, its
# `compare` of change against parent, and for each (workload, end-to-end
# metric) the number of pairs the change won, with each metric's direction
# taken from BENCHMARK.json. Exits with `compare`'s status (1 = a metric got
# worse than its bound). Writes nothing under benchmark/.
set -eu

usage="usage: scripts/ab.sh <parent-rev> [pairs] [first-seed] [out]"
root="$(cd "$(dirname "$0")/.." && pwd)"
rev="${1:?$usage}"
pairs="${2:-10}"
first="${3:-1}"
tmp="${TMPDIR:-/tmp}"
out="${4:-$(mktemp -d "$tmp/ssg-ab.XXXXXX")}"
spec="$root/BENCHMARK.json"

work="$(mktemp -d "$tmp/ssg-ab-work.XXXXXX")"
trap 'rm -rf "$work"' EXIT INT TERM

git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
    { echo "ab.sh: unknown revision \`$rev\`" >&2; exit 2; }
mkdir -p "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
build() {
    echo "ab.sh: building $1 into $2" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" --bin ssg
    # --locked: the harness's Cargo.lock is part of the benchmark and must
    # not be rewritten.
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet --locked \
        --manifest-path "$1/benchmark/Cargo.toml"
}
build "$work/parent" "$work/target"
parent_ssg="$work/target/release/ssg"
parent_harness="$work/target/release/ssg-benchmark"

change_target="${CARGO_TARGET_DIR:-$root/target}"
case "$change_target" in
/*) ;;
*) change_target="$PWD/$change_target" ;;
esac
build "$root" "$change_target"
change_ssg="$change_target/release/ssg"
change_harness="$change_target/release/ssg-benchmark"

seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")"
workloads="$("$parent_harness" workloads)"
mkdir -p "$out/parent" "$out/change"
for w in $workloads; do
    : >"$out/parent/$w.jsonl"
    : >"$out/change/$w.jsonl"
done

# Runs one measurement of side $1 on workload $2, seed $3; appends its
# result line to OUT/<side>/<workload>.jsonl and prints it (nothing if the
# run produced no result).
record() {
    if [ "$1" = parent ]; then
        ssg="$parent_ssg" own_harness="$parent_harness"
    else
        ssg="$change_ssg" own_harness="$change_harness"
    fi
    if [ "$2" = churn ]; then harness="$own_harness"; else harness="$parent_harness"; fi
    line="$("$harness" run --ssg "$ssg" --out "$work/run-$1" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 | tail -n 1)" || true
    case "$line" in
    "{"*)
        echo "$line" >>"$out/$1/$2.jsonl"
        echo "$line"
        ;;
    *) echo "ab.sh: $1 $2 seed $3 produced no result" >&2 ;;
    esac
}

# One tab-separated line per complete pair: workload, parent line, change line.
pair_log="$work/pairs.tsv"
: >"$pair_log"
i=0
while [ "$i" -lt "$pairs" ]; do
    s=$((first + i))
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for w in $workloads; do
        parent_line="" change_line=""
        for side in $order; do
            echo "ab.sh: seed $s $w $side" >&2
            line="$(record "$side" "$w" "$s")"
            if [ "$side" = parent ]; then parent_line="$line"; else change_line="$line"; fi
        done
        if [ -n "$parent_line" ] && [ -n "$change_line" ]; then
            printf '%s\t%s\t%s\n' "$w" "$parent_line" "$change_line" >>"$pair_log"
        fi
    done
    i=$((i + 1))
done

for side in parent change; do
    echo "== $side ($out/$side)"
    "$parent_harness" summarize "$out/$side" --spec "$spec"
done
echo "== change against parent"
status=0
"$parent_harness" compare "$out/parent" "$out/change" --spec "$spec" || status=$?

echo "== pairs the change won (direction from BENCHMARK.json)"
awk -F '\t' '
    # The string value of "key": "..." on a line, or "".
    function field(line, key,   p, rest) {
        p = index(line, "\"" key "\": \"")
        if (!p) return ""
        rest = substr(line, p + length(key) + 5)
        return substr(rest, 1, index(rest, "\"") - 1)
    }
    # The value of metric m in a harness result line.
    function metric(line, m,   p, rest) {
        p = index(line, "\"" m "\":{\"value\":")
        if (!p) return ""
        rest = substr(line, p + length(m) + 12)
        match(rest, /^[-+0-9.eE]+/)
        return substr(rest, 1, RLENGTH) + 0
    }
    # End-to-end metrics are the BENCHMARK.json entries with a bound.
    FNR == NR {
        if (index($0, "\"better\"") && index($0, "\"bound\"")) {
            names[++k] = field($0, "name")
            better[names[k]] = field($0, "better")
        }
        next
    }
    {
        if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
        for (j = 1; j <= k; j++) {
            m = names[j]; a = metric($2, m); b = metric($3, m)
            if (a == "" || b == "") continue
            total[$1, m]++
            if (a == b) tie[$1, m]++
            else if ((better[m] == "lower") == (b < a)) won[$1, m]++
        }
    }
    END {
        printf "%-10s %-14s %-7s %5s %5s %5s\n", "workload", "metric", "better", "won", "ties", "pairs"
        for (i = 1; i <= nw; i++)
            for (j = 1; j <= k; j++) {
                w = order[i]; m = names[j]
                if (!((w, m) in total)) continue
                printf "%-10s %-14s %-7s %5d %5d %5d\n", w, m, better[m], won[w, m], tie[w, m], total[w, m]
            }
    }
' "$spec" "$pair_log"
echo "result lines: $out"
exit "$status"
