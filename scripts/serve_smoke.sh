#!/usr/bin/env bash
# Loopback serving smoke: start rkrd on an ephemeral port, run a remote
# query, assert it is rank-identical to the in-process dynamic query, and
# shut the daemon down cleanly. Mirrors tests/serve_smoke.rs for CI logs
# that show the real binary doing the real round-trip.
set -euo pipefail

RKR="${RKR:-target/release/rkr}"
WORK="$(mktemp -d)"
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$RKR" gen dblp --scale tiny --seed 7 --out "$WORK/g.edges"

"$RKR" serve "$WORK/g.edges" --addr 127.0.0.1:0 --workers 2 --cache 256 > "$WORK/serve.log" &
SERVE_PID=$!

# wait for the banner and scrape the bound address
for _ in $(seq 1 100); do
    ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$WORK/serve.log" | head -1 || true)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "${ADDR:-}" ] || { echo "rkrd never printed its address"; cat "$WORK/serve.log"; exit 1; }
grep -q 'epoll event loop' "$WORK/serve.log" || {
    echo "banner must announce the epoll event loop"; cat "$WORK/serve.log"; exit 1; }
echo "rkrd up at $ADDR"

# remote result must be rank-identical to the in-process dynamic query
"$RKR" query --remote "$ADDR" --node 5 --k 4 | grep ' rank ' | sort > "$WORK/remote.txt"
"$RKR" query "$WORK/g.edges" --node 5 --k 4 --algo dynamic | grep ' rank ' | sort > "$WORK/local.txt"
diff -u "$WORK/local.txt" "$WORK/remote.txt"
echo "remote == in-process"

# a repeat is a cache hit
# (scrape ctl/query output into files before grepping: `cmd | grep -q`
# lets grep exit on the first match and the writer then dies on EPIPE)
"$RKR" query --remote "$ADDR" --node 5 --k 4 > "$WORK/repeat.txt"
grep -q 'cached: true' "$WORK/repeat.txt"
echo "cache hit observed"

# ---- metrics leg: scrape, burst, scrape ------------------------------
# Counters must be monotone across a query burst, the latency histograms
# must account for every query served, and the --prom output must be
# well-formed text exposition 0.0.4.
"$RKR" ctl "$ADDR" metrics --prom > "$WORK/prom-before.txt"
Q0="$(awk '$1 == "rkrd_queries_total" {print $2}' "$WORK/prom-before.txt")"
for n in 1 2 3 7; do
    "$RKR" query --remote "$ADDR" --node "$n" --k 3 > /dev/null
done
"$RKR" ctl "$ADDR" metrics --prom > "$WORK/prom-after.txt"
Q1="$(awk '$1 == "rkrd_queries_total" {print $2}' "$WORK/prom-after.txt")"
[ "$Q1" -eq "$((Q0 + 4))" ] || {
    echo "queries_total went $Q0 -> $Q1 over a 4-query burst"; exit 1; }
H1="$(awk '$1 ~ /^rkrd_query_seconds_count\{/ {s += $2} END {print s + 0}' "$WORK/prom-after.txt")"
[ "$H1" -eq "$Q1" ] || {
    echo "histogram total $H1 != queries served $Q1"; exit 1; }
# no counter moves backwards
awk '
    NR == FNR { if ($1 !~ /^#/ && $1 ~ /_total(\{|$)/) before[$1] = $2; next }
    ($1 in before) && ($2 + 0) < (before[$1] + 0) {
        print "counter went backwards: " $1 " " before[$1] " -> " $2; bad = 1 }
    END { exit bad }
' "$WORK/prom-before.txt" "$WORK/prom-after.txt"
# hand-rolled exposition check: every sample is `name[{labels}] value`,
# every sample family has a TYPE, and per histogram family the +Inf
# buckets sum to the _count sum
awk '
    $1 == "#" && $2 == "TYPE" { type[$3] = $4; next }
    $1 == "#" { next }
    NF == 0 { next }
    {
        if (NF != 2) { print "malformed sample: " $0; bad = 1; next }
        if ($1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$/) { print "bad series: " $1; bad = 1 }
        if ($2 !~ /^[-+.0-9eE]+$/ && $2 != "+Inf" && $2 != "NaN") { print "bad value: " $0; bad = 1 }
        name = $1; sub(/\{.*/, "", name)
        base = name; sub(/_(bucket|sum|count)$/, "", base)
        if (!(name in type) && !(base in type)) { print "no TYPE for " name; bad = 1 }
        if (name ~ /_bucket$/ && $1 ~ /le="\+Inf"/) infsum[base] += $2
        if (name ~ /_count$/) cntsum[base] += $2
    }
    END {
        for (b in cntsum) if (infsum[b] != cntsum[b]) {
            print b ": +Inf bucket sum " infsum[b] " != count sum " cntsum[b]; bad = 1 }
        exit bad
    }
' "$WORK/prom-after.txt"
"$RKR" ctl "$ADDR" metrics > "$WORK/metrics-table.txt"
grep -q 'rkrd_queries_total' "$WORK/metrics-table.txt" || {
    echo "human metrics table must show the counters"; exit 1; }
echo "metrics scrape valid ($Q1 queries accounted for)"

# live update round-trip: a new node at distance 0.01 from node 5 has
# rank 1 and must change the answer (the ctl ops stage + flush, so the
# commit is immediate)
NODES="$("$RKR" stats "$WORK/g.edges" | awk '/^nodes:/ {print $2}')"
"$RKR" ctl "$ADDR" add-node
"$RKR" ctl "$ADDR" add-edge 5 "$NODES" 0.01
"$RKR" query --remote "$ADDR" --node 5 --k 4 > "$WORK/remote2.full"
grep -q 'graph epoch 2' "$WORK/remote2.full" || {
    echo "two commits must reach graph epoch 2"; cat "$WORK/remote2.full"; exit 1; }
grep -q 'cached: false' "$WORK/remote2.full" || {
    echo "graph commit must strand the cached answer"; exit 1; }
grep ' rank ' "$WORK/remote2.full" | sort > "$WORK/remote2.txt"
if diff -q "$WORK/remote.txt" "$WORK/remote2.txt" >/dev/null; then
    echo "the committed update did not change the answer"; exit 1
fi
# the post-update remote answer must match an in-process rebuild of the
# updated edge list
awk -v n=$((NODES + 1)) 'NR==1 {$2=n} {print}' "$WORK/g.edges" > "$WORK/g2.edges"
echo "5 $NODES 0.01" >> "$WORK/g2.edges"
"$RKR" query "$WORK/g2.edges" --node 5 --k 4 --algo dynamic | grep ' rank ' | sort > "$WORK/local2.txt"
diff -u "$WORK/local2.txt" "$WORK/remote2.txt"
echo "update round-trip == in-process rebuild"

# batched updates from a file land too: one batch (one commit) that
# removes the hub's heaviest edge, reweights its lightest past every other
# edge of its row, and adds a node wired to the hub and to node 5 — the
# commit patches the hub's row, its neighbours' rows and an appended row
HUB="$(awk 'NR > 1 {d[$1]++; d[$2]++} END {for (n in d) if (d[n] > best) {best = d[n]; hub = n}; print hub}' "$WORK/g.edges")"
awk -v h="$HUB" 'NR > 1 && ($1 == h || $2 == h)' "$WORK/g.edges" | sort -k3,3g > "$WORK/hub.edges"
read -r RW_U RW_V _ < <(head -1 "$WORK/hub.edges")
read -r RM_U RM_V _ < <(tail -1 "$WORK/hub.edges")
NEW=$((NODES + 1))
printf 'add-node\nadd %s %s 0.05\nadd %s 5 0.3\nrm %s %s\nreweight %s %s 1.9\n' \
    "$NEW" "$HUB" "$NEW" "$RM_U" "$RM_V" "$RW_U" "$RW_V" > "$WORK/ups.txt"
"$RKR" update "$ADDR" --from "$WORK/ups.txt"
"$RKR" ctl "$ADDR" stats > "$WORK/stats1.txt"
grep -q "($((NODES + 2)) nodes" "$WORK/stats1.txt" || {
    echo "rkr update --from did not land"; cat "$WORK/stats1.txt"; exit 1; }
grep -q 'event loop:' "$WORK/stats1.txt" || {
    echo "stats must report the event-loop counters"; cat "$WORK/stats1.txt"; exit 1; }
awk -v n=$((NODES + 2)) -v ru="$RM_U" -v rv="$RM_V" -v wu="$RW_U" -v wv="$RW_V" '
    NR == 1 { $2 = n; print; next }
    $1 == ru && $2 == rv { next }
    $1 == wu && $2 == wv { $3 = 1.9 }
    { print }' "$WORK/g2.edges" > "$WORK/g3.edges"
printf '%s %s 0.05\n%s 5 0.3\n' "$NEW" "$HUB" "$NEW" >> "$WORK/g3.edges"
for q in 5 "$HUB" "$NEW"; do
    "$RKR" query --remote "$ADDR" --node "$q" --k 4 > "$WORK/remote3.full"
    grep -q 'graph epoch 3' "$WORK/remote3.full" || {
        echo "the file batch must be one commit"; cat "$WORK/remote3.full"; exit 1; }
    grep ' rank ' "$WORK/remote3.full" | sort > "$WORK/remote3.txt"
    "$RKR" query "$WORK/g3.edges" --node "$q" --k 4 --algo dynamic | grep ' rank ' | sort > "$WORK/local3.txt"
    diff -u "$WORK/local3.txt" "$WORK/remote3.txt"
done
echo "file-driven updates applied (hub $HUB): remote == in-process rebuild"

"$RKR" ctl "$ADDR" stats
"$RKR" ctl "$ADDR" flush
"$RKR" ctl "$ADDR" shutdown

# clean exit
wait "$SERVE_PID"
SERVE_PID=""
cat "$WORK/serve.log"

# ---- kill-and-restart leg: durability through a snapshot bundle --------
# Start a snapshotted daemon, apply a live update, checkpoint, shut down,
# restart from the bundle alone, and assert the answers and stats epochs
# match the pre-restart serving state.
"$RKR" serve "$WORK/g.edges" --addr 127.0.0.1:0 --workers 2 --cache 64 \
    --snapshot "$WORK/state.rkrsnap" > "$WORK/serve2.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$WORK/serve2.log" | head -1 || true)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "${ADDR:-}" ] || { echo "snapshotted rkrd never printed its address"; cat "$WORK/serve2.log"; exit 1; }
echo "snapshotted rkrd up at $ADDR"

"$RKR" ctl "$ADDR" add-node
"$RKR" ctl "$ADDR" add-edge 5 "$NODES" 0.01
"$RKR" query --remote "$ADDR" --node 5 --k 4 > "$WORK/pre-restart.full"
grep -q 'graph epoch 2' "$WORK/pre-restart.full" || {
    echo "two commits must reach graph epoch 2"; cat "$WORK/pre-restart.full"; exit 1; }
grep ' rank ' "$WORK/pre-restart.full" | sort > "$WORK/pre-restart.txt"
"$RKR" ctl "$ADDR" checkpoint | grep -q 'graph epoch 2' || {
    echo "checkpoint must report the committed epoch pair"; exit 1; }
# the index epoch and the graph digest must survive the restart
"$RKR" ctl "$ADDR" stats > "$WORK/stats-before.txt"
awk -F: '/^index epoch/ {print $2}' "$WORK/stats-before.txt" | tr -d ' ' > "$WORK/epoch-before.txt"
awk '/^graph:/ {print $NF}' "$WORK/stats-before.txt" > "$WORK/digest-before.txt"
grep -qE '^[0-9a-f]{16}$' "$WORK/digest-before.txt" || {
    echo "stats must print a 16-hex-digit graph digest"; cat "$WORK/stats-before.txt"; exit 1; }
"$RKR" ctl "$ADDR" shutdown
wait "$SERVE_PID"
SERVE_PID=""
[ -f "$WORK/state.rkrsnap" ] || { echo "shutdown left no snapshot bundle"; exit 1; }

# restart from the bundle alone: no edge file argument at all
"$RKR" serve --addr 127.0.0.1:0 --workers 2 --cache 64 \
    --snapshot "$WORK/state.rkrsnap" > "$WORK/serve3.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    ADDR="$(grep -oE '127\.0\.0\.1:[0-9]+' "$WORK/serve3.log" | head -1 || true)"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "${ADDR:-}" ] || { echo "restarted rkrd never printed its address"; cat "$WORK/serve3.log"; exit 1; }
grep -q 'restored snapshot' "$WORK/serve3.log" || {
    echo "restart must announce the restore"; cat "$WORK/serve3.log"; exit 1; }
echo "restarted rkrd up at $ADDR"

"$RKR" ctl "$ADDR" stats > "$WORK/stats-after.txt"
awk -F: '/^index epoch/ {print $2}' "$WORK/stats-after.txt" | tr -d ' ' > "$WORK/epoch-after.txt"
diff -u "$WORK/epoch-before.txt" "$WORK/epoch-after.txt"
grep -q 'epoch 2 (' "$WORK/stats-after.txt" || {
    echo "stats must report graph epoch 2 after the restart"; cat "$WORK/stats-after.txt"; exit 1; }
awk '/^graph:/ {print $NF}' "$WORK/stats-after.txt" > "$WORK/digest-after.txt"
diff -u "$WORK/digest-before.txt" "$WORK/digest-after.txt"
echo "epochs and graph digest survived the restart"

"$RKR" query --remote "$ADDR" --node 5 --k 4 > "$WORK/post-restart.full"
grep -q 'graph epoch 2' "$WORK/post-restart.full" || {
    echo "restart must resume at graph epoch 2"; cat "$WORK/post-restart.full"; exit 1; }
grep ' rank ' "$WORK/post-restart.full" | sort > "$WORK/post-restart.txt"
diff -u "$WORK/pre-restart.txt" "$WORK/post-restart.txt"
echo "post-restart answers == pre-restart answers"

"$RKR" ctl "$ADDR" shutdown
wait "$SERVE_PID"
SERVE_PID=""
cat "$WORK/serve3.log"

echo "serve smoke OK"
