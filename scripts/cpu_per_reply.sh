#!/usr/bin/env sh
# Server CPU per saturated reply, sampled from /proc during one benchmark run.
#
#   scripts/cpu_per_reply.sh <ssg> <workload> <seed>
#
# Builds the benchmark harness (--locked, into $CARGO_TARGET_DIR, default
# target/), then runs one `ssg-benchmark run --trace 0` of <workload> on
# <seed> against the `ssg` binary <ssg>, for BENCHMARK.json's run_seconds.
# Every 0.2 s it reads /proc/<pid>/stat of the harness's `ssg` children:
# minor faults, utime and stime (fields 10, 14 and 15). The child sampled
# most often is the serving one. Its CPU rate between two samples is the
# tick difference over the time between them; a sample is saturated when
# its rate is at least 0.6 of the run's 95th-percentile rate. Prints one
# line of three numbers:
#
#   cpus=      the server's mean CPU rate over its saturated samples
#   us_per_reply=  µs of server CPU per saturated reply: cpus / sat_rps
#   faults_per_reply=  the server's minor faults from its first sample to
#              its last, over the run's attempted replies
#
# and the harness's result line after it. Exits 1 when the run produced no
# result or too few samples. Writes nothing under benchmark/: the harness's
# run directory is a temporary directory under $TMPDIR.
set -eu

usage="usage: scripts/cpu_per_reply.sh <ssg> <workload> <seed>"
root="$(cd "$(dirname "$0")/.." && pwd)"
ssg="${1:?$usage}"
workload="${2:?$usage}"
seed="${3:?$usage}"
spec="$root/BENCHMARK.json"

target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
# --locked: the harness's Cargo.lock is part of the benchmark and must not
# be rewritten.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --locked \
    --manifest-path "$root/benchmark/Cargo.toml"
harness="$target/release/ssg-benchmark"

work="$(mktemp -d "${TMPDIR:-/tmp}/ssg-cpu.XXXXXX")"
trap 'rm -rf "$work"' EXIT INT TERM
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")"
tck="$(getconf CLK_TCK)"

"$harness" run --ssg "$ssg" --out "$work/run" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 >"$work/out" 2>&1 &
hpid=$!
: >"$work/samples"
while kill -0 "$hpid" 2>/dev/null; do
    now="$(date +%s.%N)"
    # A child may exit between the glob and the read; cat skips it.
    cat /proc/[0-9]*/stat 2>/dev/null |
        awk -v pp="$hpid" -v now="$now" '$4 == pp && $2 == "(ssg)" { print now, $1, $10, $14 + $15 }' \
            >>"$work/samples" || true
    sleep 0.2
done
wait "$hpid" || true

result="$(grep '^{' "$work/out" | tail -n 1)" || true
[ -n "$result" ] || { echo "cpu_per_reply.sh: the run produced no result" >&2; cat "$work/out" >&2; exit 1; }
sat_rps="$(echo "$result" | sed -n 's/.*"sat_rps":{"value":\([-+0-9.eE]*\).*/\1/p')"
attempted="$(echo "$result" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p')"

awk -v tck="$tck" -v sat="$sat_rps" -v replies="$attempted" '
    { count[$2]++; line[$2, count[$2]] = $0 }
    END {
        for (p in count) if (count[p] > best) { best = count[p]; pid = p }
        if (best < 3) { print "cpu_per_reply.sh: too few samples" > "/dev/stderr"; exit 1 }
        for (i = 1; i <= best; i++) {
            split(line[pid, i], f, " ")
            t[i] = f[1]; faults[i] = f[3]; ticks[i] = f[4]
        }
        n = 0
        for (i = 2; i <= best; i++)
            if (t[i] > t[i - 1]) rate[++n] = (ticks[i] - ticks[i - 1]) / tck / (t[i] - t[i - 1])
        # Insertion sort of a copy: a few hundred samples.
        for (i = 1; i <= n; i++) {
            v = rate[i]
            for (j = i - 1; j >= 1 && sorted[j] > v; j--) sorted[j + 1] = sorted[j]
            sorted[j + 1] = v
        }
        k = int(0.95 * n + 0.999999); if (k < 1) k = 1
        cut = 0.6 * sorted[k]
        sum = 0; m = 0
        for (i = 1; i <= n; i++) if (rate[i] >= cut) { sum += rate[i]; m++ }
        cpus = sum / m
        printf "cpus=%.3f us_per_reply=%.1f faults_per_reply=%.3f\n", cpus, cpus * 1e6 / sat, (faults[best] - faults[1]) / replies
    }
' "$work/samples"
echo "$result"
