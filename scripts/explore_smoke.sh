#!/bin/sh
# explore-smoke: prove the design-space sweep engine end to end on a
# tiny 2×2×2 grid, through both entry points:
#
#   1. /v1/explore — the grid streams back as NDJSON (8 point lines +
#      1 report line), the Pareto frontier is non-empty, and the
#      drain accounting shows geometry-grouped batching
#      (trace_drains < cells, lanes_per_drain ≥ 1) and lane sharing
#      (256 and 512 entries are one machine to grep: 4 lanes);
#   2. sgsweep — the same grid through the CLI prints a frontier
#      table and writes a JSON report with the same invariants;
#   3. per-request machine models on /v1/run — a derived model gets
#      its own store identity (|m= key segment) and round-trips
#      through the store.
#
# Run by `make explore-smoke` (part of `make check`). Seconds, not
# minutes: one workload, 8 points.
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}
TMP=$(mktemp -d)
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "explore-smoke: FAIL: $*" >&2
    for f in "$TMP"/log*; do
        [ -f "$f" ] && { echo "--- $f" >&2; cat "$f" >&2; }
    done
    exit 1
}

$GO build -o "$TMP/sgserved" ./cmd/sgserved
$GO build -o "$TMP/sgsweep" ./cmd/sgsweep

"$TMP/sgsweep" -version | grep -q sgsweep || fail "sgsweep -version"

# --- 1. the grid through /v1/explore ---------------------------------
"$TMP/sgserved" -addr 127.0.0.1:0 -store "$TMP/store" >"$TMP/log1" 2>&1 &
SRV=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/.*listening on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$TMP/log1")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || fail "daemon never announced its address"
BASE="http://$ADDR"

GRID='{"axes":[{"name":"fetch_width","values":[2,4]},{"name":"active_list","values":[32,64]},{"name":"entries","values":[256,512]}],"workloads":["grep"],"scheme":"2bit"}'
curl -fsS -X POST "$BASE/v1/explore" -d "$GRID" >"$TMP/explore.ndjson" \
    || fail "/v1/explore request failed"

points=$(grep -c '"event":"point"' "$TMP/explore.ndjson") || true
[ "$points" = 8 ] || fail "streamed $points points, want 8"
reports=$(grep -c '"event":"report"' "$TMP/explore.ndjson") || true
[ "$reports" = 1 ] || fail "streamed $reports report lines, want 1"
grep -q '"frontier":\[\]' "$TMP/explore.ndjson" && fail "empty Pareto frontier"
grep -q '"frontier":\[' "$TMP/explore.ndjson" || fail "no frontier in report line"

# Drain accounting from the report line: 8 cells on one (workload,
# program, geometry) group → 1 drain. grep's conditional branches sit
# below pc/4 = 23, so its 256- and 512-entry tables are one machine:
# the 8 cells share 4 lanes, one per (fetch_width, active_list).
report=$(grep '"event":"report"' "$TMP/explore.ndjson")
cells=$(echo "$report" | sed -n 's/.*"cells":\([0-9]*\).*/\1/p')
drains=$(echo "$report" | sed -n 's/.*"trace_drains":\([0-9]*\).*/\1/p')
lanes=$(echo "$report" | sed -n 's/.*"sim_lanes":\([0-9]*\).*/\1/p')
lpd=$(echo "$report" | sed -n 's/.*"lanes_per_drain":\([0-9.]*\).*/\1/p')
[ "$cells" = 8 ] || fail "report cells=$cells, want 8"
[ "$drains" -lt "$cells" ] || fail "trace_drains=$drains not < cells=$cells (batching broken)"
[ "$lanes" = 4 ] || fail "report sim_lanes=$lanes, want 4 (lane sharing broken)"
awk -v x="$lpd" 'BEGIN { exit !(x >= 1) }' || fail "lanes_per_drain=$lpd, want >= 1"
echo "explore-smoke: /v1/explore ok ($points points, $drains drains, $lanes lanes for $cells cells, $lpd lanes/drain)"

# A malformed grid is a 400, not a wedged worker.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/explore" \
    -d '{"axes":[{"name":"warp_factor","values":[9]}]}')
[ "$code" = 400 ] || fail "bad axis returned $code, want 400"

# --- 2. per-request machine models on /v1/run ------------------------
curl -fsS -X POST "$BASE/v1/run" \
    -d '{"workload":"grep","scheme":"2bit","machine":{"fetch_width":2},"predictor":"gshare"}' \
    >"$TMP/model1.json" || fail "machine-override run failed"
grep -q '|m=' "$TMP/model1.json" || fail "derived model canonical missing |m= segment"
curl -fsS -X POST "$BASE/v1/run" \
    -d '{"workload":"grep","scheme":"2bit","machine":{"fetch_width":2},"predictor":"gshare"}' \
    >"$TMP/model2.json" || fail "repeat machine-override run failed"
grep -q '"source":"store"' "$TMP/model2.json" || fail "derived-model repeat not served from store"
echo "explore-smoke: per-request models ok (|m= identity, store round-trip)"

kill -TERM "$SRV"
wait "$SRV" || fail "daemon exited non-zero"
SRV=""

# --- 3. the same grid through the sgsweep CLI ------------------------
"$TMP/sgsweep" -axes "fetch_width=2,4;active_list=32,64;entries=256,512" \
    -workloads grep -scheme 2bit -json "$TMP/sweep.json" >"$TMP/table.txt" \
    || fail "sgsweep run failed"
grep -q "Pareto frontier" "$TMP/table.txt" || fail "no frontier table header"
grep -q "fetch_width=" "$TMP/table.txt" || fail "no coordinate labels in table"
grep -q '"pareto": true' "$TMP/sweep.json" || fail "no Pareto point in JSON report"
jd=$(sed -n 's/.*"trace_drains": \([0-9][0-9]*\).*/\1/p' "$TMP/sweep.json" | head -1)
jc=$(sed -n 's/.*"cells": \([0-9][0-9]*\).*/\1/p' "$TMP/sweep.json" | head -1)
jl=$(sed -n 's/.*"sim_lanes": \([0-9][0-9]*\).*/\1/p' "$TMP/sweep.json" | head -1)
[ "$jc" = 8 ] || fail "CLI cells=$jc, want 8"
[ "$jd" -lt "$jc" ] || fail "CLI trace_drains=$jd not < cells=$jc"
[ "$jl" = 4 ] || fail "CLI sim_lanes=$jl, want 4 (lane sharing broken)"
echo "explore-smoke: sgsweep ok ($jd drains, $jl lanes for $jc cells)"
echo "explore-smoke: OK"
