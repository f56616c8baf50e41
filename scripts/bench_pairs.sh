#!/usr/bin/env bash
# Alternating parent/change pairs of rkr-bench workloads — the procedure
# every perf PR reports (ROADMAP "Open items"; choosing-metrics §8) as one
# command.
#
#   scripts/bench_pairs.sh PARENT_REF WORKLOAD[,WORKLOAD...] [PAIRS=10] [SEED=1]
#
# PARENT_REF is any commit-ish; the change is the working tree as it
# stands. The parent is exported with `git archive` (no worktree or branch
# is left behind, and a dirty checkout is no obstacle) and each side is
# built once into its own target directory, whatever the number of
# workloads. The workloads (comma-separated) then run one after another,
# each printing its own block below. Each pair runs the acceptance
# driver's form (`--workload W --seed S --seconds 12 --trace 0`) once per
# side, alternating which side goes first. Every run is printed, then each
# side's quartiles and the number of pairs the change wins per end-to-end
# metric (a tie counts for neither side). A gain holds when the change
# wins at least 9 of 10 pairs and the medians differ by more than the
# parent's own q1..q3 spread.
#
# Under the quartiles comes each side's exact-counter line — the harness's
# own `script_hash … refine_calls … refinement_settles …` (or `cache_hits …
# commits …`) — once per side: a work claim (choosing-metrics §8: a count
# that repeats exactly) is read off the same report as the timing. A side
# whose line differs between its own runs is flagged; such a count is not
# exact and proves nothing.
#
# Last comes the check the acceptance driver makes before any of that: a
# cell whose runs spread wider than its regression bound (`bound` in
# BENCHMARK.json, times the parent's median) is "spread too widely to
# tell" and the PR is refused whatever the medians say. Per metric each
# side's q3 - q1 and max - min are printed beside that bound, and a cell
# over it is flagged. The metric names, directions and bounds are read from
# BENCHMARK.json, which is never written.
#
# Everything is written under a fresh directory below $TMPDIR (default
# /tmp), removed on exit.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 PARENT_REF WORKLOAD[,WORKLOAD...] [PAIRS=10] [SEED=1]" >&2
    exit 2
fi
PARENT_REF="$1"
IFS=, read -r -a WORKLOADS <<< "$2"
PAIRS="${3:-10}"
SEED="${4:-1}"

cd "$(dirname "$0")/.."
PARENT_SHA="$(git rev-parse --verify "$PARENT_REF^{commit}")"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/rkr-bench-pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/parent-src"
git archive "$PARENT_SHA" | tar -x -C "$WORK/parent-src"

# build SIDE SOURCE_DIR: the benchmark binary, built the way BENCHMARK.json
# builds it, into the side's own target directory.
build() {
    CARGO_TARGET_DIR="$WORK/$1-target" cargo build --release --offline --quiet \
        --manifest-path "$2/crates/rkr-bench/Cargo.toml"
}
echo "building parent $PARENT_SHA" >&2
build parent "$WORK/parent-src"
echo "building change (working tree on $(git rev-parse --short HEAD))" >&2
build change .

# "name better bound" per end-to-end metric, as BENCHMARK.json declares them.
END_TO_END="$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/  { on = 0 }
    on && $1 == "\"name\":"   { name = $2 }
    on && $1 == "\"better\":" { better = $2 }
    on && $1 == "\"bound\":"  { print name, better, $2 }' BENCHMARK.json | tr -d '",')"
METRICS="$(printf '%s\n' "$END_TO_END" | cut -d' ' -f1 | tr '\n' ' ')"
if [ -z "$METRICS" ]; then
    echo "no end_to_end metrics found in BENCHMARK.json" >&2
    exit 1
fi

# run SIDE PAIR: one acceptance-form run of $WORKLOAD; appends "pair
# value..." to the side's table in $OUT, the run's exact-counter line to
# the side's counter file there, and prints the run.
run() {
    local side="$1" pair="$2" out line row="" value
    # The harness writes its results files under $CARGO_TARGET_DIR/bench.
    out="$(CARGO_TARGET_DIR="$WORK/$side-target" "$WORK/$side-target/release/rkr-bench" \
        --workload "$WORKLOAD" --seed "$SEED" --seconds 12 --trace 0)"
    line="$(printf '%s\n' "$out" | tail -n 1)"
    printf '%s\n' "$out" | sed -n 's/^ *\(script_hash .*\)$/\1/p' | head -n 1 >> "$OUT/$side.counters"
    for m in $METRICS; do
        value="$(printf '%s\n' "$line" | sed -n "s/.*\"$m\":{\"value\":\([-0-9.eE+]*\).*/\1/p")"
        if [ -z "$value" ]; then
            echo "no $m in the $side run's last line: $line" >&2
            exit 1
        fi
        row="$row $value"
    done
    local failed
    failed="$(printf '%s\n' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
    echo "$pair$row" >> "$OUT/$side.runs"
    printf '  %-6s' "$side"
    local i=2
    for m in $METRICS; do
        printf ' %s=%s' "$m" "$(echo "$pair$row" | cut -d' ' -f"$i")"
        i=$((i + 1))
    done
    printf ' failed=%s\n' "$failed"
}

# stats SIDE COL: "q1 median q3 min max" of one column of a side's table.
stats() {
    cut -d' ' -f"$2" "$OUT/$1.runs" | sort -g | awk '
        { v[NR] = $1 }
        # linear interpolation between order statistics (R type 7)
        function q(p,    h, lo) {
            h = (NR - 1) * p + 1; lo = int(h)
            return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.6g %.6g %.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75), v[1], v[NR] }'
}

# block: PAIRS alternating pairs of $WORKLOAD and their report, kept in
# the workload's own directory $OUT.
block() {
    echo "workload $WORKLOAD, seed $SEED, $PAIRS pairs, parent $PARENT_SHA"
    for pair in $(seq 1 "$PAIRS"); do
        if [ $((pair % 2)) -eq 1 ]; then
            echo "pair $pair (parent first)"
            run parent "$pair"
            run change "$pair"
        else
            echo "pair $pair (change first)"
            run change "$pair"
            run parent "$pair"
        fi
    done

    echo
    printf '%-14s %-7s %12s %12s %12s   %s\n' metric side q1 median q3 "change wins"
    columns=$(($(printf '%s\n' "$END_TO_END" | wc -l) + 1))
    col=2
    while read -r m better _; do
        for side in parent change; do
            read -r q1 median q3 _ _ <<< "$(stats "$side" "$col")"
            printf '%-14s %-7s %12s %12s %12s' "$m" "$side" "$q1" "$median" "$q3"
            if [ "$side" = change ]; then
                # both tables are in pair order: line i of each is pair i
                paste -d' ' "$OUT/parent.runs" "$OUT/change.runs" | awk -v c="$col" -v n="$columns" -v better="$better" '
                    {
                        p = $(c); ch = $(c + n)
                        if (ch == p) ties++
                        else if ((better == "lower") == (ch < p)) wins++
                    }
                    END { printf "   %d of %d (%d ties, %s is better)\n", wins, NR, ties, better }'
            else
                echo
            fi
        done
        col=$((col + 1))
    done <<< "$END_TO_END"

    echo
    echo "exact counters (the harness's line; it must repeat within a side)"
    for side in parent change; do
        printf '%-7s %s\n' "$side" "$(head -n 1 "$OUT/$side.counters")"
        if [ "$(sort -u "$OUT/$side.counters" | wc -l)" -ne 1 ]; then
            echo "        differs between this side's own runs: not an exact counter"
            sort "$OUT/$side.counters" | uniq -c | sed 's/^/        /'
        fi
    done

    echo
    echo "spread of each side's runs against the regression bound (bound x parent median)"
    printf '%-14s %-7s %12s %12s %12s\n' metric side "q3-q1" "max-min" bound
    col=2
    while read -r m _ bound; do
        limit="$(stats parent "$col" | awk -v bound="$bound" '{ print bound * $2 }')"
        for side in parent change; do
            stats "$side" "$col" | awk -v m="$m" -v side="$side" -v limit="$limit" '{
                flag = ($3 - $1 > limit) ? "   q3-q1 exceeds the bound: unresolvable" \
                     : ($5 - $4 > limit) ? "   max-min exceeds the bound" : ""
                printf "%-14s %-7s %12.6g %12.6g %12.6g%s\n", m, side, $3 - $1, $5 - $4, limit, flag
            }'
        done
        col=$((col + 1))
    done <<< "$END_TO_END"
}

for WORKLOAD in "${WORKLOADS[@]}"; do
    OUT="$WORK/$WORKLOAD"
    mkdir "$OUT"
    block
    echo
done
