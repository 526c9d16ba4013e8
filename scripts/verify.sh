#!/usr/bin/env bash
# Tier-1 verification: formatting, lint and doc-link gates, offline release
# build, a byte-exact check of `repro --all` against repro_output.txt,
# release-mode tests of the numeric crates, full test suite, the
# benchmark's build, tests and a 1-second run of each gated workload, and a
# live smoke test of the `hcm serve` daemon (start, POST /measure, GET
# /metrics, graceful shutdown). Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --all -- --check

echo "== Rust line counts (scripts/loc.sh) =="
bash scripts/loc.sh | grep -E '^(total|examples|hcbench) '

echo "== no hand-written JSON =="
# Every JSON document is written through hc_obs::json, which escapes keys and
# strings and writes non-finite floats as null; no other production source
# spells JSON punctuation itself. A file's trailing #[cfg(test)] module may
# hold expected bodies, so the scan stops there.
HAND_JSON=$(find crates/{core,obs,serve,session,cli,spec}/src -name '*.rs' \
        ! -path crates/obs/src/json.rs -print0 \
    | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME ":" FNR ": " $0 }' \
    | grep -F -e 'push_str("{\"' -e 'push_str(",\"' -e 'format!("{{\"' -e '"{{\"' \
        -e '"{\"' -e 'JsonObject' -e 'JsonArray' || true)
[ -z "$HAND_JSON" ] || { echo "hand-written JSON outside hc_obs::json:"; echo "$HAND_JSON"; exit 1; }
echo "no hand-written JSON outside hc_obs::json"

echo "== clippy =="
# --all-features: a target behind a Cargo feature is linted, and so compiled,
# like any other, so it cannot rot unseen (the workspace has no features now).
cargo clippy -q --workspace --all-targets --all-features -- -D warnings

echo "== doc =="
# Broken, ambiguous, or private intra-doc links fail here, so a doc link to a
# deleted function cannot outlive it.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== build (release) =="
cargo build --release --workspace

echo "== golden: repro --all =="
# The paper's numbers, byte for byte: every printed digit of the reproduction
# must equal the committed repro_output.txt, whichever instruction-set frame
# (hc_linalg::isa) the linear algebra runs in on this CPU.
./target/release/repro --all | cmp - repro_output.txt \
    || { echo "repro --all differs from repro_output.txt"; exit 1; }
echo "repro --all matches repro_output.txt"

echo "== release-mode tests of the numeric crates =="
# Optimized code runs the same arithmetic without the debug_assert!s (such as
# the Theorem 2 check in standard_form_of), so the numeric crates' tests run
# in release too.
cargo test --release -q -p hc-linalg -p hc-sinkhorn -p hc-core -p hc-session

echo "== tests =="
cargo test -q --workspace

echo "== benchmark build + tests =="
# hcbench is a separate workspace with path dependencies on crates/*, so a
# change to an API it pins breaks here rather than in a benchmark run.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --manifest-path hcbench/Cargo.toml

echo "== benchmark smoke runs =="
# One short run of each gated workload, so a benchmark that builds but no
# longer runs end to end (a panic, a failed correctness check, a failed
# operation) fails here. The last stdout line is the result JSON.
for WORKLOAD in ensemble_large session_edits; do
    LAST=$(bash hcbench/run.sh --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0 | tail -n1) \
        || { echo "hcbench $WORKLOAD exited non-zero"; exit 1; }
    printf '%s' "$LAST" | grep -q '"failed":0' \
        || { echo "hcbench $WORKLOAD reported failures: $LAST"; exit 1; }
    echo "hcbench $WORKLOAD OK: $LAST"
done

echo "== steady-state allocation check =="
# A warm Analyzer must serve repeated shapes with >= 90% fewer heap
# allocations than a cold fresh-workspace characterize, and the one-shot
# entry point must stay within its alloc cap (see snapshot --alloc-check).
./target/release/snapshot --alloc-check

echo "== bench + load trend gate =="
# Diffs the newest two committed BENCH_<date>.json snapshots (fails when any
# lane's best new sample is >20% over the old lane's worst) and the newest
# two LOAD_<date>.json capacity snapshots (fails on p99 > 2.5x or throughput
# < 2/3 of the previous run) — see bench_trend.sh.
scripts/bench_trend.sh

echo "== serve smoke test =="
HCM=./target/release/hcm
LOG=$(mktemp)
"$HCM" serve --addr 127.0.0.1:0 --workers 2 2>"$LOG" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# The startup banner on stderr carries the bound (ephemeral) port.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#.*listening on http://##p' "$LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never announced its address"; cat "$LOG"; exit 1; }
echo "serving on $ADDR"

CSV='task,m1,m2
t1,2.0,8.0
t2,6.0,3.0'

MEASURE_CODE=$(printf '%s' "$CSV" | curl -sS -D /tmp/verify-measure-headers.txt \
    -o /tmp/verify-measure.json -w '%{http_code}' \
    -X POST --data-binary @- "http://$ADDR/measure")
[ "$MEASURE_CODE" = "200" ] || { echo "POST /measure returned $MEASURE_CODE"; exit 1; }
grep -q '"mph":' /tmp/verify-measure.json || { echo "measure response lacks mph"; exit 1; }
grep -qi '^x-request-id:' /tmp/verify-measure-headers.txt \
    || { echo "measure response lacks X-Request-Id"; exit 1; }
echo "POST /measure 200: $(cat /tmp/verify-measure.json)"

METRICS_CODE=$(curl -sS -o /tmp/verify-metrics.json -w '%{http_code}' "http://$ADDR/metrics")
[ "$METRICS_CODE" = "200" ] || { echo "GET /metrics returned $METRICS_CODE"; exit 1; }
grep -q '"requests_total":' /tmp/verify-metrics.json || { echo "metrics response malformed"; exit 1; }
grep -q '"sinkhorn_balance_total":' /tmp/verify-metrics.json \
    || { echo "metrics response lacks merged library counters"; exit 1; }
echo "GET /metrics 200 (library counters merged)"

PROM_CODE=$(curl -sS -D /tmp/verify-prom-headers.txt -o /tmp/verify-metrics.prom \
    -w '%{http_code}' "http://$ADDR/metrics?format=prometheus")
[ "$PROM_CODE" = "200" ] || { echo "GET /metrics?format=prometheus returned $PROM_CODE"; exit 1; }
grep -qi '^content-type: text/plain; version=0.0.4' /tmp/verify-prom-headers.txt \
    || { echo "prometheus scrape has wrong content type"; exit 1; }
grep -q '^hc_serve_requests_total{endpoint="measure"}' /tmp/verify-metrics.prom \
    || { echo "prometheus scrape lacks hc_serve_requests_total"; exit 1; }
grep -q '_bucket{' /tmp/verify-metrics.prom \
    || { echo "prometheus scrape lacks histogram buckets"; exit 1; }
echo "GET /metrics?format=prometheus 200 (exposition format OK)"

# Exemplars are per server: a bucket of the measure endpoint's latency
# histogram names a request that the flight recorder still holds.
EX_ID=$(sed -n 's/^hc_serve_latency_us_bucket{endpoint="measure",[^}]*} [0-9]* # {request_id="\([^"]*\)".*/\1/p' \
    /tmp/verify-metrics.prom | head -n1)
[ -n "$EX_ID" ] || { echo "no exemplar on hc_serve_latency_us_bucket{endpoint=\"measure\"}"; exit 1; }
EX_CODE=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/debug/requests/$EX_ID")
[ "$EX_CODE" = "200" ] || { echo "exemplar request $EX_ID answered $EX_CODE at /debug/requests"; exit 1; }
echo "exemplar on hc_serve_latency_us_bucket{endpoint=\"measure\"} joins /debug/requests/$EX_ID"

# Keep-alive smoke: 20 mixed requests plus a final /metrics scrape issued by a
# single curl invocation, which reuses one connection for every transfer. The
# scrape rides the same connection, so its connection counters must show
# exactly one new accept and >= 19 keep-alive reuses.
A0=$(curl -sS "http://$ADDR/metrics" | sed -n 's/.*"accepted_total":\([0-9]*\).*/\1/p')
K0=$(curl -sS "http://$ADDR/metrics" | sed -n 's/.*"keepalive_requests_total":\([0-9]*\).*/\1/p')
[ -n "$A0" ] && [ -n "$K0" ] || { echo "metrics lack connection counters"; exit 1; }
KA_ARGS=()
for i in $(seq 1 20); do
    if [ $((i % 2)) -eq 0 ]; then
        KA_ARGS+=(--next -X POST --data-binary "$CSV" "http://$ADDR/measure")
    else
        KA_ARGS+=(--next "http://$ADDR/healthz")
    fi
done
KA_ARGS+=(--next "http://$ADDR/metrics")
KA_OUT=$(curl -sS "${KA_ARGS[@]:1}") || { echo "keep-alive batch failed"; exit 1; }
A1=$(printf '%s' "$KA_OUT" | sed -n 's/.*"accepted_total":\([0-9]*\).*/\1/p' | head -n1)
K1=$(printf '%s' "$KA_OUT" | sed -n 's/.*"keepalive_requests_total":\([0-9]*\).*/\1/p' | head -n1)
# The K0 baseline scrape used one extra connection; the batch must add 1.
[ "$A1" = "$((A0 + 2))" ] \
    || { echo "keep-alive batch accepted $((A1 - A0 - 1)) connections, want 1"; exit 1; }
[ "$((K1 - K0))" -ge 19 ] \
    || { echo "keep-alive batch reused only $((K1 - K0)) times, want >= 19"; exit 1; }
echo "keep-alive smoke OK (21 transfers, 1 accept, $((K1 - K0)) reuses)"

DEBUG_CODE=$(curl -sS -o /tmp/verify-debug.json -w '%{http_code}' "http://$ADDR/debug/requests")
[ "$DEBUG_CODE" = "200" ] || { echo "GET /debug/requests returned $DEBUG_CODE"; exit 1; }
REQ_ID=$(sed -n 's/.*"request_id":"\([^"]*\)".*/\1/p' /tmp/verify-debug.json | head -n1)
[ -n "$REQ_ID" ] || { echo "flight recorder holds no requests"; exit 1; }
curl -sS "http://$ADDR/debug/requests/$REQ_ID" | grep -q '"phases_us":' \
    || { echo "GET /debug/requests/$REQ_ID lacks phase timings"; exit 1; }
echo "GET /debug/requests/$REQ_ID 200 (flight record retrievable)"

# Live-session smoke: create -> 3 patches -> watch sees all 3 versions -> delete.
SESSION_CODE=$(printf '%s' "$CSV" | curl -sS -o /tmp/verify-session.json -w '%{http_code}' \
    -X POST --data-binary @- "http://$ADDR/session")
[ "$SESSION_CODE" = "200" ] || { echo "POST /session returned $SESSION_CODE"; exit 1; }
grep -q '"version":1' /tmp/verify-session.json || { echo "new session not at version 1"; exit 1; }
SID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' /tmp/verify-session.json)
[ -n "$SID" ] || { echo "session response lacks id"; exit 1; }
for i in 1 2 3; do
    CODE=$(printf 'cell,t1,m2,%s.5\n' "$i" | curl -sS -o /tmp/verify-patch.json \
        -w '%{http_code}' -X PATCH --data-binary @- "http://$ADDR/session/$SID/etc")
    [ "$CODE" = "200" ] || { echo "PATCH $i returned $CODE"; cat /tmp/verify-patch.json; exit 1; }
done
grep -q '"version":4' /tmp/verify-patch.json || { echo "3 patches did not reach version 4"; exit 1; }
grep -q '"warm":true' /tmp/verify-patch.json || { echo "patch did not recompute warm"; exit 1; }
WATCH_CODE=$(curl -sS -o /tmp/verify-watch.json -w '%{http_code}' \
    "http://$ADDR/session/$SID/watch?version=1")
[ "$WATCH_CODE" = "200" ] || { echo "watch returned $WATCH_CODE"; exit 1; }
DELTAS=$(grep -o '{"version":[0-9]*' /tmp/verify-watch.json | wc -l)
[ "$DELTAS" -eq 3 ] || { echo "watch saw $DELTAS deltas, want 3"; cat /tmp/verify-watch.json; exit 1; }
DELETE_CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X DELETE "http://$ADDR/session/$SID")
[ "$DELETE_CODE" = "200" ] || { echo "DELETE returned $DELETE_CODE"; exit 1; }
GONE_CODE=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/session/$SID")
[ "$GONE_CODE" = "404" ] || { echo "deleted session still answers $GONE_CODE"; exit 1; }
echo "session smoke OK (create -> 3 warm patches -> watch 3 deltas -> delete)"

# Timeseries smoke: the catalog must expose >= 3 retention tiers; two scrapes
# with traffic in between must show a monotone serve_requests_total with
# non-negative rate deltas; and `hcm top --once` must render a frame off the
# same store.
TS_CAT=$(curl -sS "http://$ADDR/debug/timeseries")
TIERS=$(printf '%s' "$TS_CAT" | grep -o '"step_s":' | wc -l)
[ "$TIERS" -ge 3 ] || { echo "timeseries catalog lists $TIERS tiers, want >= 3"; exit 1; }
printf '%s' "$TS_CAT" | grep -q '"serve_requests_total"' \
    || { echo "timeseries catalog lacks serve_requests_total"; exit 1; }
ts_points() { # last non-null value of serve_requests_total's points array
    curl -sS "http://$ADDR/debug/timeseries?series=serve_requests_total&window=120" \
        | sed -n 's/.*"points":\[\([^]]*\)\].*/\1/p' | tr ',' '\n' \
        | grep -v null | tail -n1
}
TSC1=$(ts_points)
printf '%s' "$CSV" | curl -sS -o /dev/null -X POST --data-binary @- "http://$ADDR/measure"
sleep 1.3 # let the 1 Hz collector absorb the new request
TSC2=$(ts_points)
[ -n "$TSC1" ] && [ -n "$TSC2" ] || { echo "timeseries carries no counter points"; exit 1; }
awk -v a="$TSC1" -v b="$TSC2" 'BEGIN { exit !(b >= a) }' \
    || { echo "serve_requests_total went backwards: $TSC1 -> $TSC2"; exit 1; }
RATES=$(curl -sS "http://$ADDR/debug/timeseries?series=serve_requests_total&window=120" \
    | sed -n 's/.*"rate_per_s":\[\([^]]*\)\].*/\1/p')
[ -n "$RATES" ] || { echo "counter query lacks rate_per_s"; exit 1; }
printf '%s' "$RATES" | grep -q -- '-' && { echo "negative rate delta: $RATES"; exit 1; }
"$HCM" top --once --addr "$ADDR" > /tmp/verify-top.txt \
    || { echo "hcm top --once failed"; cat /tmp/verify-top.txt; exit 1; }
grep -q 'hcm top' /tmp/verify-top.txt || { echo "top frame lacks header"; exit 1; }
grep -q 'health ok' /tmp/verify-top.txt || { echo "top frame lacks health"; exit 1; }
grep -q 'req/s' /tmp/verify-top.txt || { echo "top frame lacks req/s row"; exit 1; }
echo "timeseries smoke OK ($TIERS tiers, counter $TSC1 -> $TSC2, top frame rendered)"

curl -sS "http://$ADDR/quitquitquit" >/dev/null
wait "$SERVE_PID"
trap - EXIT
echo "graceful shutdown OK"

echo "== chaos smoke test =="
# A server whose workers are killed after every 7th response must keep
# answering every request (no connection resets), respawn the dead workers,
# and account for it all in /metrics.
CHAOS_LOG=$(mktemp)
HC_FAILPOINT='worker.idle:panic:7' "$HCM" serve --addr 127.0.0.1:0 --workers 2 \
    --request-timeout-ms 30000 2>"$CHAOS_LOG" &
CHAOS_PID=$!
trap 'kill "$CHAOS_PID" 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#.*listening on http://##p' "$CHAOS_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "chaos server never announced its address"; cat "$CHAOS_LOG"; exit 1; }
echo "chaos server on $ADDR (worker.idle:panic:7 armed)"

# 50 mixed requests: good matrices (varying) and malformed bodies. Every one
# must get an HTTP status — curl fails (exit != 0) on a reset connection.
for i in $(seq 1 50); do
    if [ $((i % 5)) -eq 0 ]; then
        BODY='definitely,not
a_matrix'
        WANT=400
    else
        BODY="task,m1,m2
t1,$i.0,8.0
t2,6.0,3.5"
        WANT=200
    fi
    CODE=$(printf '%s' "$BODY" | curl -sS -o /dev/null -w '%{http_code}' \
        -X POST --data-binary @- "http://$ADDR/measure") \
        || { echo "chaos request $i: connection failed"; exit 1; }
    [ "$CODE" = "$WANT" ] || { echo "chaos request $i: got $CODE, want $WANT"; exit 1; }
done
echo "50/50 chaos requests answered (0 connection resets)"

# The same drill over keep-alive: 28 alternating good/malformed requests in
# one curl invocation (one reused connection). Worker panics land between
# responses, so every transfer must still complete with its proper status,
# and the malformed 400s must not wedge or close the shared connection.
CA0=$(curl -sS "http://$ADDR/metrics" | sed -n 's/.*"accepted_total":\([0-9]*\).*/\1/p')
KA_CHAOS_ARGS=()
for i in $(seq 1 28); do
    if [ $((i % 2)) -eq 0 ]; then
        KA_CHAOS_ARGS+=(--next -i -X POST --data-binary 'definitely,not
a_matrix' "http://$ADDR/measure")
    else
        KA_CHAOS_ARGS+=(--next -i -X POST --data-binary "task,m1,m2
t1,$i.0,8.0
t2,6.0,3.5" "http://$ADDR/measure")
    fi
done
KA_CHAOS=$(curl -sS -i "${KA_CHAOS_ARGS[@]:1}") \
    || { echo "keep-alive chaos batch: connection failed"; exit 1; }
# Bodies carry no trailing newline, so the next transfer's status line is
# glued onto the previous body; count lines containing the token instead of
# anchoring at line start (each status line still terminates its own line).
OK_COUNT=$(printf '%s' "$KA_CHAOS" | grep -c 'HTTP/1\.1 200 ' || true)
BAD_COUNT=$(printf '%s' "$KA_CHAOS" | grep -c 'HTTP/1\.1 400 ' || true)
[ "$OK_COUNT" = "14" ] && [ "$BAD_COUNT" = "14" ] \
    || { echo "keep-alive chaos: got $OK_COUNT x200 + $BAD_COUNT x400, want 14 + 14"; exit 1; }
CA1=$(curl -sS "http://$ADDR/metrics" | sed -n 's/.*"accepted_total":\([0-9]*\).*/\1/p')
# CA0's and CA1's own scrape connections account for 2 of the delta.
[ "$CA1" = "$((CA0 + 2))" ] \
    || { echo "keep-alive chaos used $((CA1 - CA0 - 1)) connections, want 1"; exit 1; }
echo "28/28 keep-alive chaos requests answered on one connection"

curl -sS -o /tmp/verify-chaos-metrics.json "http://$ADDR/metrics"
RESPAWNS=$(sed -n 's/.*"worker_respawns_total":\([0-9]*\).*/\1/p' /tmp/verify-chaos-metrics.json)
[ -n "$RESPAWNS" ] && [ "$RESPAWNS" -ge 1 ] \
    || { echo "expected worker_respawns_total >= 1, got '$RESPAWNS'"; exit 1; }
grep -q '"panics_total":' /tmp/verify-chaos-metrics.json \
    || { echo "metrics lack panics_total"; exit 1; }
grep -q '"deadline_exceeded_total":' /tmp/verify-chaos-metrics.json \
    || { echo "metrics lack deadline_exceeded_total"; exit 1; }
echo "worker_respawns_total=$RESPAWNS; fault counters present"

curl -sS "http://$ADDR/quitquitquit" >/dev/null
wait "$CHAOS_PID"
trap - EXIT
echo "chaos smoke OK"

echo "== session warm-fallback chaos =="
# A panic injected into every 200th Sinkhorn iteration must be contained by
# the session engine as a silent cold fallback: every PATCH still answers
# 200 and session_warm_fallback_total ticks. (The cold create stays well
# under 200 iterations; warm patches fire a few per request, so hit 200 is
# guaranteed to land inside some warm attempt.)
FB_LOG=$(mktemp)
HC_FAILPOINT='sinkhorn.iteration:panic:200' "$HCM" serve --addr 127.0.0.1:0 \
    --workers 2 2>"$FB_LOG" &
FB_PID=$!
trap 'kill "$FB_PID" 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#.*listening on http://##p' "$FB_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "fallback server never announced its address"; cat "$FB_LOG"; exit 1; }
echo "fallback server on $ADDR (sinkhorn.iteration:panic:200 armed)"

printf '%s' "$CSV" | curl -sS -o /tmp/verify-fb-session.json \
    -X POST --data-binary @- "http://$ADDR/session"
SID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' /tmp/verify-fb-session.json)
[ -n "$SID" ] || { echo "fallback session create failed"; cat /tmp/verify-fb-session.json; exit 1; }
FELL_BACK=0
for i in $(seq 1 250); do
    CODE=$(printf 'cell,t1,m1,%s.5\n' "$((2 + i % 6))" | curl -sS \
        -o /tmp/verify-fb-patch.json -w '%{http_code}' \
        -X PATCH --data-binary @- "http://$ADDR/session/$SID/etc") \
        || { echo "fallback patch $i: connection failed"; exit 1; }
    [ "$CODE" = "200" ] || { echo "fallback patch $i returned $CODE"; cat /tmp/verify-fb-patch.json; exit 1; }
    if grep -q '"fallback":true' /tmp/verify-fb-patch.json; then
        FELL_BACK=1
        break
    fi
done
[ "$FELL_BACK" = "1" ] || { echo "armed failpoint never produced a warm fallback"; exit 1; }
curl -sS -o /tmp/verify-fb-metrics.json "http://$ADDR/metrics"
FALLBACKS=$(sed -n 's/.*"session_warm_fallback_total":\([0-9]*\).*/\1/p' /tmp/verify-fb-metrics.json)
[ -n "$FALLBACKS" ] && [ "$FALLBACKS" -ge 1 ] \
    || { echo "expected session_warm_fallback_total >= 1, got '$FALLBACKS'"; exit 1; }
echo "warm fallback contained after $i patches (session_warm_fallback_total=$FALLBACKS)"

curl -sS "http://$ADDR/quitquitquit" >/dev/null
wait "$FB_PID"
trap - EXIT
echo "session fallback chaos OK"

echo "== profiling smoke test =="
# A profiling server under mixed load must serve a folded profile that
# resolves into the Sinkhorn and SVD kernel phases, and stay healthy. A
# Sinkhorn run on these inputs can finish between two 997 Hz ticks, so each
# iteration spins for 1 ms on the CPU (the `busy` failpoint) and the sampler
# always finds the `sinkhorn` frames.
PROF_LOG=$(mktemp)
HC_FAILPOINT='sinkhorn.iteration:busy:1' "$HCM" serve --addr 127.0.0.1:0 --workers 2 \
    --profile-hz 997 2>"$PROF_LOG" &
PROF_PID=$!
trap 'kill "$PROF_PID" 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#.*listening on http://##p' "$PROF_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "profiling server never announced its address"; cat "$PROF_LOG"; exit 1; }
echo "profiling server on $ADDR (--profile-hz 997)"

# Generates a matrix big enough that the kernels hold spans across sampler
# ticks; the salt varies the cells so the result cache cannot absorb the load.
gen_csv() { # gen_csv TASKS MACHINES SALT
    awk -v n="$1" -v m="$2" -v salt="$3" 'BEGIN {
        printf "task"; for (j = 0; j < m; j++) printf ",m%d", j; printf "\n";
        for (t = 0; t < n; t++) {
            printf "t%d", t;
            for (j = 0; j < m; j++) printf ",%.2f", 1 + ((t*31 + j*17 + salt*7) % 97) / 10.0;
            printf "\n";
        }
    }'
}

# 50 mixed requests across the compute endpoints.
for i in $(seq 1 50); do
    case $((i % 3)) in
        0) TARGET="/measure";                   T=128; M=64 ;;
        1) TARGET="/structure";                 T=96;  M=48 ;;
        *) TARGET="/schedule?heuristic=min-min"; T=64; M=32 ;;
    esac
    CODE=$(gen_csv "$T" "$M" "$i" | curl -sS -o /dev/null -w '%{http_code}' \
        -X POST --data-binary @- "http://$ADDR$TARGET") \
        || { echo "profiling load request $i: connection failed"; exit 1; }
    [ "$CODE" = "200" ] || { echo "profiling load request $i: got $CODE"; exit 1; }
done
echo "50/50 profiling load requests answered"

PROFILE_CODE=$(curl -sS -o /tmp/verify-profile.folded -w '%{http_code}' \
    "http://$ADDR/debug/profile?seconds=10")
[ "$PROFILE_CODE" = "200" ] || { echo "GET /debug/profile returned $PROFILE_CODE"; exit 1; }
[ -s /tmp/verify-profile.folded ] || { echo "folded profile is empty"; exit 1; }
grep -q 'sinkhorn' /tmp/verify-profile.folded \
    || { echo "profile lacks sinkhorn frames"; cat /tmp/verify-profile.folded; exit 1; }
grep -q 'svd' /tmp/verify-profile.folded \
    || { echo "profile lacks svd frames"; cat /tmp/verify-profile.folded; exit 1; }
echo "folded profile OK ($(wc -l < /tmp/verify-profile.folded) stacks, sinkhorn + svd resolved)"

curl -sS "http://$ADDR/healthz" | grep -q '"status":"ok"' \
    || { echo "profiling server healthz not ok"; exit 1; }
echo "healthz ok under profiling"

# An idle server's threads wake about 11 times a second: the reactor's
# 100 ms tick and the tsdb collector's 1 s. The profiler adds no wakeup of
# its own, since each thread samples its stack at its own span boundaries.
# The third field of a thread's schedstat counts the times it ran, so the
# check counts wakeups rather than timing anything.
sleep 2
wakeups() { cat /proc/"$PROF_PID"/task/*/schedstat | awk '{ n += $3 } END { print n + 0 }'; }
W0=$(wakeups)
sleep 2
W1=$(wakeups)
WAKE_RATE=$(( (W1 - W0) / 2 ))
[ "$WAKE_RATE" -le 20 ] \
    || { echo "idle profiling server wakes $WAKE_RATE times a second (limit 20)"; exit 1; }
echo "idle profiling server: $WAKE_RATE wakeups/s"

curl -sS "http://$ADDR/quitquitquit" >/dev/null
wait "$PROF_PID"
trap - EXIT
echo "profiling smoke OK"

echo "== slo burn-rate chaos =="
# Every Sinkhorn iteration sleeping past the request deadline turns all
# /measure traffic into 504s: the fast-burn alert must fire and flip
# /healthz to degraded, visible in both /metrics formats.
SLO_LOG=$(mktemp)
HC_FAILPOINT='sinkhorn.iteration:delay:50' "$HCM" serve --addr 127.0.0.1:0 \
    --workers 2 --request-timeout-ms 40 --slo-window-s 1 2>"$SLO_LOG" &
SLO_PID=$!
trap 'kill "$SLO_PID" 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#.*listening on http://##p' "$SLO_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "slo server never announced its address"; cat "$SLO_LOG"; exit 1; }
echo "slo server on $ADDR (sinkhorn.iteration:delay:50, --request-timeout-ms 40)"

DEGRADED=0
for i in $(seq 1 40); do
    BODY="task,m1,m2
t1,$i.0,8.0
t2,6.0,3.5"
    CODE=$(printf '%s' "$BODY" | curl -sS -o /dev/null -w '%{http_code}' \
        -X POST --data-binary @- "http://$ADDR/measure") \
        || { echo "slo burn request $i: connection failed"; exit 1; }
    [ "$CODE" = "504" ] || { echo "slo burn request $i: got $CODE, want 504"; exit 1; }
    if curl -sS "http://$ADDR/healthz" | grep -q '"status":"degraded"'; then
        DEGRADED=1
        break
    fi
done
[ "$DEGRADED" = "1" ] || { echo "sustained 504s never flipped healthz to degraded"; exit 1; }
echo "healthz degraded after $i sustained 504s"

curl -sS -o /tmp/verify-slo-metrics.json "http://$ADDR/metrics"
grep -q '"degraded":true' /tmp/verify-slo-metrics.json \
    || { echo "metrics JSON lacks degraded:true"; exit 1; }
grep -q '"fast_alert":true' /tmp/verify-slo-metrics.json \
    || { echo "metrics JSON lacks firing fast alert"; exit 1; }
curl -sS -o /tmp/verify-slo-metrics.prom "http://$ADDR/metrics?format=prometheus"
grep -q '^hc_serve_slo_alert_firing{slo="availability",alert="fast"} 1' /tmp/verify-slo-metrics.prom \
    || { echo "prometheus exposition lacks firing fast alert"; exit 1; }
grep -q '^hc_serve_slo_degraded 1' /tmp/verify-slo-metrics.prom \
    || { echo "prometheus exposition lacks degraded gauge"; exit 1; }
echo "fast-burn alert visible in JSON and Prometheus expositions"

curl -sS "http://$ADDR/quitquitquit" >/dev/null
wait "$SLO_PID"
trap - EXIT
echo "slo chaos OK"

echo "== overload loadgen smoke =="
# A 2x-capacity open-loop burst (sinkhorn slowed by failpoint, so capacity is
# known-low) must walk the admission ladder ok -> shedding -> ok: requests
# are shed as typed 503s rather than queued without bound (bounded p99 on the
# admitted ones), no connection is ever reset, the pool scales up, and the
# ladder recovers once the burst ends.
OL_LOG=$(mktemp)
HC_FAILPOINT='sinkhorn.iteration:delay:2' "$HCM" serve --addr 127.0.0.1:0 \
    --workers 1 --workers-min 1 --workers-max 2 --target-queue-delay-ms 10 \
    2>"$OL_LOG" &
OL_PID=$!
trap 'kill "$OL_PID" 2>/dev/null || true' EXIT

ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#.*listening on http://##p' "$OL_LOG" | head -n1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "overload server never announced its address"; cat "$OL_LOG"; exit 1; }
echo "overload server on $ADDR (sinkhorn.iteration:delay:2, --target-queue-delay-ms 10)"

curl -sS "http://$ADDR/healthz" | grep -q '"overload_state":"ok"' \
    || { echo "healthz lacks overload_state ok before the burst"; exit 1; }

./target/release/loadgen --addr "$ADDR" --rps 120 --duration-s 6 --connections 12 \
    --seed 42 --shape 32x32 --batch-parts 2 \
    --mix measure=85,cachehit=5,healthz=5,batch=5 > /tmp/verify-load.json \
    || { echo "loadgen run failed"; exit 1; }
ALL_LINE=$(grep '"class":"all"' /tmp/verify-load.json)
load_num() { printf '%s' "$ALL_LINE" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"; }
RESETS=$(load_num reset)
CONNECT_FAILS=$(load_num connect_fail)
SHED=$(load_num http_503)
OKS=$(load_num ok)
P99=$(load_num p99_us)
[ "$RESETS" = "0" ] || { echo "burst saw $RESETS connection resets, want 0"; exit 1; }
[ "$CONNECT_FAILS" = "0" ] || { echo "burst saw $CONNECT_FAILS connect failures"; exit 1; }
[ -n "$SHED" ] && [ "$SHED" -ge 1 ] \
    || { echo "2x-capacity burst shed nothing (http_503=$SHED)"; exit 1; }
[ -n "$OKS" ] && [ "$OKS" -ge 1 ] || { echo "burst admitted nothing"; exit 1; }
# Admitted requests must see bounded delay (shed, don't queue): p99 from
# *intended* send time stays well under what an unbounded queue would build.
[ -n "$P99" ] && [ "$P99" -le 1500000 ] \
    || { echo "admitted p99 ${P99}us exceeds 1.5s — queue delay is unbounded"; exit 1; }
echo "burst OK: $OKS admitted, $SHED shed, 0 resets, p99 ${P99}us"

RECOVERED=0
for _ in $(seq 1 100); do
    if curl -sS "http://$ADDR/healthz" | grep -q '"overload_state":"ok"'; then
        RECOVERED=1
        break
    fi
    sleep 0.2
done
[ "$RECOVERED" = "1" ] || { echo "ladder never recovered to ok after the burst"; exit 1; }

curl -sS -o /tmp/verify-ol-metrics.json "http://$ADDR/metrics"
ol_metric() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" /tmp/verify-ol-metrics.json; }
SHEDDING_ENTERED=$(ol_metric shedding_entered_total)
SCALE_UP=$(ol_metric worker_scale_up_total)
[ -n "$SHEDDING_ENTERED" ] && [ "$SHEDDING_ENTERED" -ge 1 ] \
    || { echo "ladder never reached shedding (shedding_entered_total=$SHEDDING_ENTERED)"; exit 1; }
[ -n "$SCALE_UP" ] && [ "$SCALE_UP" -ge 1 ] \
    || { echo "queue delay never scaled the pool up (worker_scale_up_total=$SCALE_UP)"; exit 1; }
grep -q '"overload":{"state":"ok"' /tmp/verify-ol-metrics.json \
    || { echo "metrics lack recovered overload block"; exit 1; }
echo "ladder walked ok -> shedding -> ok (shedding_entered_total=$SHEDDING_ENTERED, worker_scale_up_total=$SCALE_UP)"

curl -sS "http://$ADDR/quitquitquit" >/dev/null
wait "$OL_PID"
trap - EXIT
echo "overload loadgen smoke OK"

echo "== verify: all green =="
