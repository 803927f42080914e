#!/usr/bin/env bash
# Kill-and-restart soak of the DSE service core (the CI `service-soak`
# job; also runnable locally):
#
#   Phase A  clean traffic against a fresh persistent QoR store — every
#            request must be terminally answered (the bench exits
#            non-zero on any totality violation).
#   Phase B  the same traffic under deterministic fault injection
#            (HIDA_FAULT_INJECT covering every site), SIGTERMed mid-run,
#            as soon as the bench prints its first response: the service
#            must drain gracefully — in-flight finished early, queued
#            answered `shutdown`, store flushed — and the bench must exit
#            143 (128+SIGTERM) with totality intact. A run that finishes
#            before the signal lands fails the phase.
#   Phase C  a restarted process on the same store serves the identical
#            workload warm: the store hit rate must exceed 50% (phase A
#            already paid for every point, so a healthy store serves
#            nearly everything from disk), it must load the store
#            without a `store-corrupt` diagnostic (a graceful drain
#            leaves no torn append behind), and the keys it adopts
#            (`store_records_at_open`) must be exactly the keys phase B
#            held at exit (`store_records`): the drain flushed every
#            record and the load lost none.
#   Phase D  determinism: the same workload is replayed at request
#            concurrency 1, 2 and 4 — clean and under fault injection —
#            and the bench's response_digest (an order-independent fold
#            of every per-request payload) must be bit-identical across
#            all three. Scheduling may reorder work; it must never
#            change an answer. The faulted leg must not be vacuous: each
#            run completes at least one request and spends at least one
#            point retry (a spec whose setup roll fires fails every
#            request before any point runs). A faulted run with no
#            failed request and no failed point must also answer like
#            the clean run: its result_digest (the response digest
#            without retry counts) equals the clean leg's, since a
#            recovered fault leaves no trace in an answer.
#
# Phases A-C run at HIDA_SERVICE_CONCURRENCY (default 4 here so the
# TSan job races the multi-lane scheduler, not just the sweep shards).
# Knobs: HIDA_SERVICE_REQUESTS scales phases A, C and D (default 24 —
# small enough for sanitizer builds); phase B submits 500x that, far
# more than a Release build answers before the signal lands — after the
# signal, the still-unsubmitted tail drains as instant `shutdown`
# rejections, so a big count costs milliseconds, not minutes. BUILD_DIR
# picks the tree (a TSan build makes phase B a data-race hunt). Work
# files live in a mktemp dir and are removed on success.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
BENCH="$BUILD_DIR/bench_service_traffic"
REQUESTS="${HIDA_SERVICE_REQUESTS:-24}"
FAULT_REQUESTS="${SOAK_FAULT_REQUESTS:-$((REQUESTS * 500))}"
CONCURRENCY="${HIDA_SERVICE_CONCURRENCY:-4}"
export HIDA_SERVICE_CONCURRENCY="$CONCURRENCY"

if [[ ! -x "$BENCH" ]]; then
    echo "FAIL: $BENCH not built (cmake --build $BUILD_DIR" \
         "--target bench_service_traffic)" >&2
    exit 1
fi

WORK="$(mktemp -d)"
STORE="$WORK/qor_store.bin"
trap 'rm -rf "$WORK"' EXIT

# One field of a stats JSON file (numbers and quoted strings).
json_field() {
    sed -n 's/.*"'"$2"'": *"\{0,1\}\([^",}]*\)"\{0,1\}.*/\1/p' "$1" |
        head -n 1
}

# ---- Phase A: clean traffic, cold store -----------------------------------
echo "== phase A: clean traffic ($REQUESTS requests, cold store," \
     "concurrency $CONCURRENCY) =="
HIDA_QOR_STORE="$STORE" HIDA_SERVICE_REQUESTS="$REQUESTS" \
    HIDA_SERVICE_STATS="$WORK/a.json" "$BENCH"
[[ -s "$STORE" ]] || { echo "FAIL: phase A left no store file" >&2; exit 1; }

# ---- Phase B: fault traffic, SIGTERM mid-run ------------------------------
echo "== phase B: fault traffic ($FAULT_REQUESTS requests) + SIGTERM" \
     "at the first response =="
HIDA_FAULT_INJECT=any:42:0.01 HIDA_QOR_STORE="$STORE" \
    HIDA_SERVICE_REQUESTS="$FAULT_REQUESTS" \
    HIDA_SERVICE_STATS="$WORK/b.json" "$BENCH" 2> "$WORK/b.err" &
pid=$!
# Signal once the bench shows progress, not after a fixed delay: the
# set-up time differs by an order of magnitude between a Release and a
# TSan build, and the traffic after it takes far longer than one poll.
while kill -0 "$pid" 2>/dev/null &&
    ! grep -q 'first response' "$WORK/b.err"; do
    sleep 0.05
done
kill -TERM "$pid" 2>/dev/null || true
rc=0
wait "$pid" || rc=$?
cat "$WORK/b.err" >&2
if [[ "$rc" -eq 143 ]]; then
    echo "OK: phase B drained gracefully on SIGTERM (exit 143)"
elif [[ "$rc" -eq 0 ]]; then
    echo "FAIL: phase B finished before the SIGTERM landed, so the" \
         "graceful drain went untested; raise SOAK_FAULT_REQUESTS" >&2
    exit 1
else
    echo "FAIL: phase B exited $rc (expected 143 after graceful drain)" >&2
    exit 1
fi
[[ -s "$WORK/b.json" ]] ||
    { echo "FAIL: phase B wrote no stats (drain lost the flush?)" >&2
      exit 1; }

# ---- Phase C: restart, warm store -----------------------------------------
echo "== phase C: restarted process, warm store =="
HIDA_QOR_STORE="$STORE" HIDA_SERVICE_REQUESTS="$REQUESTS" \
    HIDA_SERVICE_STATS="$WORK/c.json" "$BENCH" 2> "$WORK/c.err" ||
    { cat "$WORK/c.err" >&2; exit 1; }
cat "$WORK/c.err" >&2
if grep -q 'store-corrupt' "$WORK/c.err"; then
    echo "FAIL: the restarted process found a corrupt store after the" \
         "graceful drain" >&2
    exit 1
fi

# The drain flushed exactly what phase B held: the restart adopts that
# many keys, no fewer (a lost flush) and no more.
held="$(json_field "$WORK/b.json" store_records)"
adopted="$(json_field "$WORK/c.json" store_records_at_open)"
if [[ -z "$held" || -z "$adopted" || "$held" != "$adopted" ]]; then
    echo "FAIL: the restart adopted ${adopted:-no} store records; phase B" \
         "held ${held:-an unknown number} at exit" >&2
    exit 1
fi
echo "OK: the restart adopted all $adopted records phase B held"

# The acceptance bar: a restart on the surviving store must warm-start
# with a hit rate above 0.5.
hit_rate="$(json_field "$WORK/c.json" store_hit_rate)"
ok=$(awk "BEGIN { print ($hit_rate > 0.5) ? 1 : 0 }")
if [[ "$ok" -ne 1 ]]; then
    echo "FAIL: warm-start hit rate $hit_rate <= 0.5 — the store did" \
         "not survive the kill/restart cycle" >&2
    exit 1
fi
echo "OK: warm-start hit rate $hit_rate"

# ---- Phase D: determinism across concurrency ------------------------------
echo "== phase D: response determinism across concurrency 1/2/4 =="

# Run the bench workload at a given concurrency (fresh store each run so
# every leg sees identical conditions); print its stats file's path.
run_leg() {
    local conc="$1" fault="$2" tag="$3"
    local out="$WORK/d_${tag}_c${conc}.json"
    local -a fault_env=(-u HIDA_FAULT_INJECT)
    [[ -n "$fault" ]] && fault_env=(HIDA_FAULT_INJECT="$fault")
    env "${fault_env[@]}" HIDA_SERVICE_CONCURRENCY="$conc" \
        HIDA_QOR_STORE="$WORK/d_${tag}_c${conc}.store.bin" \
        HIDA_SERVICE_REQUESTS="$REQUESTS" \
        HIDA_SERVICE_STATS="$out" "$BENCH" > /dev/null
    printf '%s\n' "$out"
}

clean_result=""
for leg in clean: faulted:any:1:0.05; do
    tag="${leg%%:*}"
    fault="${leg#*:}"
    ref=""
    for conc in 1 2 4; do
        stats="$(run_leg "$conc" "$fault" "$tag")"
        digest="$(json_field "$stats" response_digest)"
        result="$(json_field "$stats" result_digest)"
        if [[ -z "$digest" || -z "$result" ]]; then
            echo "FAIL: $tag run at concurrency $conc emitted no" \
                 "response_digest or result_digest" >&2
            exit 1
        fi
        if [[ -z "$ref" ]]; then
            ref="$digest"
        elif [[ "$digest" != "$ref" ]]; then
            echo "FAIL: $tag response_digest diverged at concurrency" \
                 "$conc ($ref vs $digest) — scheduling changed an" \
                 "answer" >&2
            exit 1
        fi
        if [[ -z "$fault" ]]; then
            clean_result="$result"
            continue
        fi
        completed="$(json_field "$stats" completed)"
        retries="$(json_field "$stats" point_retries)"
        failed="$(json_field "$stats" failed)"
        point_failures="$(json_field "$stats" point_failures)"
        if (( completed < 1 || retries < 1 )); then
            echo "FAIL: faulted run at concurrency $conc completed" \
                 "$completed requests with $retries point retries —" \
                 "the leg exercised no point retry" >&2
            exit 1
        fi
        if (( failed == 0 && point_failures == 0 )) &&
            [[ "$result" != "$clean_result" ]]; then
            echo "FAIL: faulted run at concurrency $conc recovered every" \
                 "fault but answered differently from the clean run" \
                 "(result_digest $result vs $clean_result)" >&2
            exit 1
        fi
        echo "OK: faulted run at concurrency $conc: $completed completed," \
             "$retries point retries, $failed failed requests," \
             "$point_failures failed points (result digest $result)"
    done
    echo "OK: $tag responses bit-identical at concurrency 1/2/4" \
         "(digest $ref)"
done

echo "OK: service soak passed (warm-start hit rate $hit_rate," \
     "deterministic across concurrency)"
