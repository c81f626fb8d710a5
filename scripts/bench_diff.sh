#!/bin/sh
# bench_diff.sh — gate on benchmark regressions between recorded baselines.
#
# Usage: scripts/bench_diff.sh [time_threshold_pct] [mem_threshold_pct]
#
# Checks the most recent BENCH_<n>.json archive at the repo root (highest
# <n>) on the headline benchmarks — BenchmarkAnnounce (the routing core),
# BenchmarkIncrementalReconvergence/incremental-prov (a provenance-recording
# scoped reconverge) and BenchmarkTrafficSteering (the whole-pipeline
# number), plus the memory columns of BenchmarkCapture and BenchmarkRTT
# (the probe read plane).
#
# Two gates with different teeth, because the columns have different
# noise floors:
#
#   - allocs_per_op and bytes_per_op are deterministic outputs of the
#     code (the allocator doesn't care who else is on the machine), so
#     they carry the tight gate, against the best value on record: the
#     lowest across every older archive. Growth beyond mem_threshold_pct
#     (default 10) over that floor fails, so a series of small steps that
#     each pass against their predecessor still shows as creep. Archives
#     recorded before a column existed do not count toward its floor.
#   - ns_per_op is compared with the previous archive only. It is wall
#     time on whatever hardware recorded the archive.
#     On shared/virtualized machines the same binary has been measured
#     2x apart within one session, so a tight time gate blocks no-op
#     changes. Time gets a coarse gate: time_threshold_pct (default 25)
#     catches order-of-magnitude regressions; anything subtler must show
#     up in the deterministic columns or in a same-session A/B run.
#
# Run scripts/bench.sh <n> on a quiet machine to record a new archive
# before invoking this.
#
# With fewer than two archives there is nothing to compare; that is a
# success, so fresh checkouts and CI on new branches pass.
set -eu

time_threshold="${1:-25}"
mem_threshold="${2:-10}"
cd "$(dirname "$0")/.."

archives=$(ls BENCH_*.json 2>/dev/null | grep -E '^BENCH_[0-9]+\.json$' | sort -t_ -k2 -n || true)
count=$(printf '%s\n' "$archives" | grep -c . || true)
if [ "$count" -lt 2 ]; then
    echo "bench_diff: $count archive(s) found, need 2; nothing to compare"
    exit 0
fi
old=$(printf '%s\n' "$archives" | tail -2 | head -1)
new=$(printf '%s\n' "$archives" | tail -1)
history=$(printf '%s\n' "$archives" | sed '$d')
echo "bench_diff: $new against $old (time ${time_threshold}%) and the best of all older archives (memory ${mem_threshold}%)"

# One numeric column of one benchmark in one archive (bench.sh writes one
# entry per line, so a line-oriented extraction is reliable). Empty when
# the archive predates the column or recorded null.
col_of() {
    sed -n 's|.*"name": "'"$2"'".*"'"$3"'": \([0-9][0-9.e+-]*\)[,}].*|\1|p' "$1" | head -1
}

fail=0

# best_of <bench> <column>: the lowest value of one column across the older
# archives, as "<value> <archive>"; empty when none recorded it.
best_of() {
    for a in $history; do
        v=$(col_of "$a" "$1" "$2")
        [ -n "$v" ] && echo "$v $a"
    done | sort -g | head -1
}

# gate <bench> <column> <unit> <threshold> <ref>: compare one column of the
# newest archive with a reference ("prev" = the previous archive, "best" =
# the best on record); report, and fail when growth exceeds the threshold.
gate() {
    bench="$1"; column="$2"; unit="$3"; thr="$4"
    if [ "$5" = best ]; then
        set -- $(best_of "$bench" "$column")
        o="${1:-}"; from="${2:-}"
    else
        o=$(col_of "$old" "$bench" "$column"); from="$old"
    fi
    n=$(col_of "$new" "$bench" "$column")
    if [ -z "$o" ] || [ -z "$n" ]; then
        echo "  $bench: $column has no reference or no new value; skipping"
        return 0
    fi
    awk -v o="$o" -v n="$n" -v t="$thr" -v b="$bench" -v u="$unit" -v f="$from" '
        BEGIN {
            pct = (o == 0) ? (n > 0 ? 100 : 0) : 100 * (n - o) / o
            printf "  %-24s %14.0f -> %14.0f %-9s (%+.1f%% vs %s, gate %s%%)\n", b, o, n, u, pct, f, t
            exit (pct > t) ? 1 : 0
        }' || fail=1
}

for bench in BenchmarkAnnounce BenchmarkIncrementalReconvergence/incremental-prov BenchmarkTrafficSteering; do
    if [ -z "$(col_of "$old" "$bench" ns_per_op)" ] && [ -z "$(col_of "$new" "$bench" ns_per_op)" ]; then
        echo "  $bench: missing from both archives; skipping"
        continue
    fi
    gate "$bench" ns_per_op     "ns/op"     "$time_threshold" prev
    gate "$bench" bytes_per_op  "B/op"      "$mem_threshold"  best
    gate "$bench" allocs_per_op "allocs/op" "$mem_threshold"  best
done

# The probe read plane benchmarks carry only the deterministic gates: their
# ns/op is microseconds to milliseconds and swings with machine load. Until
# two archives record them, best_of finds no reference and gate skips.
for bench in BenchmarkCapture BenchmarkRTT; do
    gate "$bench" bytes_per_op  "B/op"      "$mem_threshold"  best
    gate "$bench" allocs_per_op "allocs/op" "$mem_threshold"  best
done

if [ "$fail" -ne 0 ]; then
    echo "bench_diff: regression beyond threshold — investigate before landing"
    exit 1
fi
echo "bench_diff: ok"
