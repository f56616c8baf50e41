#!/usr/bin/env bash
# Sharded serving smoke: plan a 2-shard fleet, start both shards (full
# replicas) and the coordinator on ephemeral ports, assert a Zipf-skewed
# query mix through the coordinator is rank-identical to the in-process
# dynamic query, route a live update through the coordinator, kill shard
# 0 (the replica every read goes to first) and assert the survivor still
# answers completely (ranks equal to the in-process answer), and shut
# everything down cleanly. Mirrors
# tests/shard_smoke.rs for CI logs that show the real binaries doing the
# real fan-out.
set -euo pipefail

RKR="${RKR:-target/release/rkr}"
WORK="$(mktemp -d)"
trap 'kill "${SHARD0_PID:-}" "${SHARD1_PID:-}" "${COORD_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# scrape the first bound 127.0.0.1:port a daemon prints into its log
scrape_addr() {
    local log="$1" what="$2" addr=""
    for _ in $(seq 1 100); do
        addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$log" | head -1 || true)"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "$what never printed its address" >&2; cat "$log" >&2; exit 1; }
    echo "$addr"
}

"$RKR" gen dblp --scale tiny --seed 7 --out "$WORK/g.edges"

# the plan is deterministic and names every shard
"$RKR" shard-plan "$WORK/g.edges" --shards 2 --seed 7 > "$WORK/plan.txt"
grep -q 'shard plan for' "$WORK/plan.txt"
grep -q 'shard   0:' "$WORK/plan.txt"
grep -q 'shard   1:' "$WORK/plan.txt"
grep -q 'rkr coord --shards' "$WORK/plan.txt"
echo "shard plan rendered"

# ---- fleet up: 2 shards + the coordinator ----------------------------
"$RKR" serve "$WORK/g.edges" --addr 127.0.0.1:0 --workers 2 --cache 64 \
    --shard-id 0 --shard-count 2 --shard-seed 7 > "$WORK/shard0.log" &
SHARD0_PID=$!
"$RKR" serve "$WORK/g.edges" --addr 127.0.0.1:0 --workers 2 --cache 64 \
    --shard-id 1 --shard-count 2 --shard-seed 7 > "$WORK/shard1.log" &
SHARD1_PID=$!
SHARD0="$(scrape_addr "$WORK/shard0.log" "shard 0")"
SHARD1="$(scrape_addr "$WORK/shard1.log" "shard 1")"
grep -q 'serving as shard 0/2' "$WORK/shard0.log"
grep -q 'serving as shard 1/2' "$WORK/shard1.log"

"$RKR" coord --shards "$SHARD0,$SHARD1" --addr 127.0.0.1:0 > "$WORK/coord.log" &
COORD_PID=$!
COORD="$(scrape_addr "$WORK/coord.log" "coordinator")"
echo "fleet up: shards $SHARD0 $SHARD1 behind coordinator $COORD"

# ---- coordinator == single box over a Zipf-skewed mix ----------------
# (a head-heavy node list: the repeats also exercise the per-shard caches)
# Definition 1 allows any choice among tied ranks, so the invariant here
# is the rank *multiset*; tests/shard_smoke.rs adds the tie-aware
# node-level comparison.
for n in 5 17 5 0 3 5 17 8 2 5; do
    "$RKR" query --remote "$COORD" --node "$n" --k 4 | grep ' rank ' \
        | awk '{print $NF}' | sort -n > "$WORK/coord-$n.txt"
    if [ ! -f "$WORK/local-$n.txt" ]; then
        "$RKR" query "$WORK/g.edges" --node "$n" --k 4 --algo dynamic | grep ' rank ' \
            | awk '{print $NF}' | sort -n > "$WORK/local-$n.txt"
    fi
    diff -u "$WORK/local-$n.txt" "$WORK/coord-$n.txt"
done
echo "coordinator == in-process over the Zipf mix"

# a repeat of an already-served query is a fleet-wide cache hit
"$RKR" query --remote "$COORD" --node 5 --k 4 > "$WORK/repeat.txt"
grep -q 'cached: true' "$WORK/repeat.txt"
echo "fleet-wide cache hit observed"

# ---- coordinator telemetry -------------------------------------------
"$RKR" ctl "$COORD" metrics --prom > "$WORK/coord-prom.txt"
grep -q '^rkrd_coord_queries_total' "$WORK/coord-prom.txt"
grep -q 'rkrd_coord_shard_seconds_count{shard="0"}' "$WORK/coord-prom.txt"
grep -q 'rkrd_coord_shard_seconds_count{shard="1"}' "$WORK/coord-prom.txt"
# one replica answered each query, and its whole reply went back
awk '
    $1 == "rkrd_coord_candidates_received_total" { recv = $2 }
    $1 == "rkrd_coord_candidates_returned_total" { ret = $2 }
    END {
        if (recv + 0 != ret + 0) { print "received " recv " is not returned " ret; exit 1 }
    }
' "$WORK/coord-prom.txt"
echo "coordinator metrics scraped (one replica answered each query)"

# the coordinator reports the graph digest its fleet agreed on
digest_of() { "$RKR" ctl "$1" stats | awk '/^graph:/ { print $NF }'; }
COORD_DIGEST="$(digest_of "$COORD")"
[ -n "$COORD_DIGEST" ] && [ "$COORD_DIGEST" = "$(digest_of "$SHARD0")" ] \
    && [ "$COORD_DIGEST" = "$(digest_of "$SHARD1")" ] || {
    echo "coordinator digest '$COORD_DIGEST' is not the shards' digest"
    "$RKR" ctl "$COORD" stats; "$RKR" ctl "$SHARD0" stats; exit 1; }
echo "graph digest $COORD_DIGEST agreed across the fleet"

# ---- a live update routed through the coordinator --------------------
NODES="$("$RKR" stats "$WORK/g.edges" | awk '/^nodes:/ {print $2}')"
"$RKR" ctl "$COORD" add-node
"$RKR" ctl "$COORD" add-edge 5 "$NODES" 0.01
"$RKR" query --remote "$COORD" --node 5 --k 4 > "$WORK/coord-updated.full"
grep -q 'graph epoch 2' "$WORK/coord-updated.full" || {
    echo "two commits through the coordinator must reach graph epoch 2"
    cat "$WORK/coord-updated.full"; exit 1; }
grep ' rank ' "$WORK/coord-updated.full" | awk '{print $NF}' | sort -n > "$WORK/coord-updated.txt"
# the new nearest neighbour at distance 0.01 must enter the answer
grep -qE "node +$NODES " "$WORK/coord-updated.full" || {
    echo "the committed edge must pull node $NODES into the result"
    cat "$WORK/coord-updated.full"; exit 1; }
awk -v n=$((NODES + 1)) 'NR==1 {$2=n} {print}' "$WORK/g.edges" > "$WORK/g2.edges"
echo "5 $NODES 0.01" >> "$WORK/g2.edges"
"$RKR" query "$WORK/g2.edges" --node 5 --k 4 --algo dynamic | grep ' rank ' \
    | awk '{print $NF}' | sort -n > "$WORK/local-updated.txt"
diff -u "$WORK/local-updated.txt" "$WORK/coord-updated.txt"
echo "coordinator-routed update == in-process rebuild"

# ---- kill shard 0: reads fail over, the survivor answers completely --
kill -9 "$SHARD0_PID"
wait "$SHARD0_PID" 2>/dev/null || true
SHARD0_PID=""
for n in 5 17 3; do
    "$RKR" query --remote "$COORD" --node "$n" --k 4 > "$WORK/survivor-$n.full"
    if grep -q 'PARTIAL' "$WORK/survivor-$n.full"; then
        echo "node $n: a dead shard must not make the answer partial"
        cat "$WORK/survivor-$n.full"; exit 1
    fi
    grep ' rank ' "$WORK/survivor-$n.full" | awk '{print $NF}' | sort -n > "$WORK/survivor-$n.txt"
    "$RKR" query "$WORK/g2.edges" --node "$n" --k 4 --algo dynamic | grep ' rank ' \
        | awk '{print $NF}' | sort -n > "$WORK/local2-$n.txt"
    diff -u "$WORK/local2-$n.txt" "$WORK/survivor-$n.txt"
done
# writes must reach every replica: a fleet-wide flush fails loudly
if "$RKR" ctl "$COORD" flush > "$WORK/flush-dead.txt" 2>&1; then
    echo "a fleet-wide flush with a dead shard must fail loudly"
    cat "$WORK/flush-dead.txt"; exit 1
fi
echo "killed shard: complete answers from the survivor, writes refused"

# ---- clean shutdown --------------------------------------------------
"$RKR" ctl "$COORD" shutdown
wait "$COORD_PID"
COORD_PID=""
grep -q 'coordinator stopped' "$WORK/coord.log"
# the coordinator's shutdown is its own: the surviving shard still serves
"$RKR" query --remote "$SHARD1" --node 5 --k 4 > /dev/null
"$RKR" ctl "$SHARD1" shutdown
wait "$SHARD1_PID"
SHARD1_PID=""
echo "shard smoke OK"
