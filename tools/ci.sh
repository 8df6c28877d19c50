#!/usr/bin/env bash
# Full verification pipeline:
#
#   1. tier-1: default build, whole test suite
#   2. observability smoke: trace_stats selftest plus a short traced
#      run whose report must round-trip through the analyzer
#   3. trace round-trip smoke: record a workload to a .beartrace
#      file, dump it (full decode = integrity check), replay it, and
#      diff the live and replayed JSON reports byte for byte
#   4. sanitizers: rebuild and rerun the suite under ASan+UBSan
#      (any report is fatal: -fno-sanitize-recover=all)
#   5. chaos smoke (DESIGN.md §11, under the sanitizer build): a
#      fault-injected nine-design sweep must exit 3 with a partial
#      report and a journal of the completed cells; resuming against
#      that journal must finish cleanly with a JSON report
#      byte-identical to an unfaulted run's
#   6. ThreadSanitizer: rebuild with BEAR_SANITIZE=thread and drive
#      the worker pool hard (BEAR_WORKERS=4 fig12 sweep), the chaos
#      faulted->resume contract, and a recorded trace replayed by four
#      workers sharing one loaded corpus (diffed against one worker),
#      so the lock discipline that clang's static analysis proves on
#      paper is also checked under real interleavings
#   7. static analysis: tools/lint.sh (bearlint always; clang-tidy
#      skipped when absent)
#   8. strict thread-safety build: clang with -Wthread-safety
#      -Werror=thread-safety-analysis over the whole tree (skipped
#      with a notice when clang++ is absent)
#   9. benchmarks (DESIGN.md §14): Release build, run the micro and
#      fig12 harnesses, refresh BENCH_micro.json / BENCH_fig12.json
#      at the repo root and fail on malformed or empty output; then
#      bench_gate compares the fresh micro snapshot against the
#      committed baseline and fails on a >25% nsPerOp regression of
#      any benchmark present in both
#  10. repository benchmark self-test: perfbench/run.py --selftest
#      builds perfbench/ (which calls the library only through its
#      public API) and runs every workload at tiny budgets, so an API
#      change that breaks the benchmark fails here
#  11. serve smoke (DESIGN.md §16, under the sanitizer build): beard
#      serves a recorded mcf trace to 8 concurrent bearload tenants;
#      the served report must diff clean against beard --offline on
#      the same trace, and SIGTERM must drain the daemon to exit 130
#  12. chaos serve (DESIGN.md §17, under the sanitizer build): the
#      chaos_serve soak plus a fault-injected beard serving 16
#      bearload tenants in chaos mode — healthy tenants must stay
#      byte-identical to the unfaulted offline reference, faulted
#      tenants must receive structured attributed Error frames, and
#      SIGTERM landing mid-chaos must still drain the daemon to 130
#
#   tools/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

echo "=== [1/12] tier-1 build + tests"
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"
ctest --test-dir build --output-on-failure -j "${jobs}"

echo "=== [2/12] observability smoke (trace_stats + traced run)"
build/tools/trace_stats --selftest
report="$(mktemp)"
workdir="$(mktemp -d)"
trap 'rm -f "${report}"; rm -rf "${workdir}"' EXIT
BEAR_JSON="${report}" BEAR_TRACE=1024 BEAR_WARMUP=10000 \
    BEAR_MEASURE=5000 build/examples/latency_profile mcf BEAR >/dev/null
build/tools/trace_stats "${report}" >/dev/null

echo "=== [3/12] trace round-trip smoke (record, dump, replay, diff)"
trace="${workdir}/mcf.beartrace"
BEAR_WARMUP=10000 BEAR_MEASURE=5000 \
    build/tools/trace_record mcf "${trace}" >/dev/null
build/tools/trace_dump "${trace}" --records 4 >/dev/null
BEAR_JSON="${workdir}/live.jsonl" BEAR_WARMUP=10000 BEAR_MEASURE=5000 \
    build/examples/latency_profile mcf BEAR >/dev/null
BEAR_JSON="${workdir}/replay.jsonl" BEAR_WARMUP=10000 \
    BEAR_MEASURE=5000 BEAR_TRACE_IN="${trace}" \
    build/examples/latency_profile mcf BEAR >/dev/null
# The replayed report must be byte-identical to the live one.
diff "${workdir}/live.jsonl" "${workdir}/replay.jsonl"

echo "=== [4/12] ASan+UBSan build + tests"
cmake -B build-san -S . -DBEAR_SANITIZE=address,undefined >/dev/null
cmake --build build-san -j "${jobs}"
ctest --test-dir build-san --output-on-failure -j "${jobs}"

echo "=== [5/12] chaos smoke (faulted sweep -> partial -> resume)"
chaos_env=(BEAR_WARMUP=10000 BEAR_MEASURE=5000)
journal="${workdir}/chaos.journal"

# Reference: unfaulted sweep, exit 0, clean report.
env "${chaos_env[@]}" BEAR_JSON="${workdir}/chaos-clean.jsonl" \
    build-san/tools/chaos_sweep >/dev/null

# Faulted sweep: ~30% of measurement phases throw.  The sweep must
# survive (partial report, exit 3) and journal every completed cell.
rc=0
env "${chaos_env[@]}" BEAR_FAULT='throw@job.measure:p=0.3' \
    BEAR_JOURNAL="${journal}" \
    BEAR_JSON="${workdir}/chaos-partial.jsonl" \
    build-san/tools/chaos_sweep >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 3 ]]; then
    echo "chaos: faulted sweep exited ${rc}, expected 3 (partial)" >&2
    exit 1
fi
grep -q '"failures"' "${workdir}/chaos-partial.jsonl" || {
    echo "chaos: partial report carries no failures array" >&2
    exit 1
}

# Resume: only failed/missing cells re-execute; the completed report
# must be byte-identical to the unfaulted run's.
env "${chaos_env[@]}" BEAR_JOURNAL="${journal}" \
    BEAR_JSON="${workdir}/chaos-final.jsonl" \
    build-san/tools/chaos_sweep >/dev/null
diff "${workdir}/chaos-clean.jsonl" "${workdir}/chaos-final.jsonl"

echo "=== [6/12] ThreadSanitizer (threaded sweep + chaos contract)"
cmake -B build-tsan -S . -DBEAR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${jobs}"
# Drive the worker pool with real contention: every design of the
# overall sweep across four workers.  Any data race aborts the run
# (-fno-sanitize-recover=all).
BEAR_WORKERS=4 BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
    BEAR_JSON="${workdir}/tsan-fig12.jsonl" \
    build-tsan/bench/fig12_overall >/dev/null
# The chaos contract must hold under TSan too: faulted sweep exits 3,
# the resume against its journal completes cleanly.
rc=0
BEAR_WORKERS=4 BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
    BEAR_FAULT='throw@job.measure:p=0.3' \
    BEAR_JOURNAL="${workdir}/tsan-chaos.journal" \
    BEAR_JSON="${workdir}/tsan-chaos-partial.jsonl" \
    build-tsan/tools/chaos_sweep >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 3 ]]; then
    echo "tsan chaos: faulted sweep exited ${rc}, expected 3" >&2
    exit 1
fi
BEAR_WORKERS=4 BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
    BEAR_JOURNAL="${workdir}/tsan-chaos.journal" \
    BEAR_JSON="${workdir}/tsan-chaos-final.jsonl" \
    build-tsan/tools/chaos_sweep >/dev/null
# A Runner loads BEAR_TRACE_IN once and every worker replays from
# that one read-only copy: the sweep over a recorded trace must give
# the same report with four workers as with one.
tsan_trace="${workdir}/tsan-mcf.beartrace"
BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
    build-tsan/tools/trace_record mcf "${tsan_trace}" >/dev/null
for workers in 1 4; do
    BEAR_WORKERS="${workers}" BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
        BEAR_TRACE_IN="${tsan_trace}" \
        BEAR_JSON="${workdir}/tsan-replay-${workers}.jsonl" \
        build-tsan/tools/chaos_sweep >/dev/null
done
diff "${workdir}/tsan-replay-1.jsonl" "${workdir}/tsan-replay-4.jsonl"

echo "=== [7/12] static analysis (bearlint + clang-tidy)"
tools/lint.sh build

echo "=== [8/12] strict thread-safety build (clang)"
if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-strict -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DBEAR_STRICT_WARNINGS=ON >/dev/null
    cmake --build build-strict -j "${jobs}"
else
    echo "clang++ not found; skipping the -Werror=thread-safety" \
         "-analysis build" >&2
fi

echo "=== [9/12] benchmark snapshots (Release micro + fig12)"
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j "${jobs}"
# Stash the committed micro snapshot before the bench run overwrites
# it: it is the baseline the regression gate compares against.
if [[ -s BENCH_micro.json ]]; then
    cp BENCH_micro.json "${workdir}/micro-baseline.json"
fi
# Each harness self-validates (re-parses its own JSON before exit 0);
# the checks below additionally pin the schema tags and non-emptiness
# so a truncated file can never be mistaken for a snapshot.
build-rel/bench/micro_structures --benchmark_min_time=0.2 \
    > "${workdir}/micro.log"
build-rel/bench/perf_baseline > "${workdir}/fig12.log"
for f in BENCH_micro.json BENCH_fig12.json; do
    [[ -s "${f}" ]] || { echo "bench: ${f} missing or empty" >&2; exit 1; }
done
grep -q '"schema":"bear-bench-micro-v1"' BENCH_micro.json || {
    echo "bench: BENCH_micro.json lacks its schema tag" >&2
    exit 1
}
grep -q '"schema":"bear-bench-fig12-v1"' BENCH_fig12.json || {
    echo "bench: BENCH_fig12.json lacks its schema tag" >&2
    exit 1
}
grep -q 'BM_TagStoreProbe' BENCH_micro.json || {
    echo "bench: BENCH_micro.json is missing the TagStore benches" >&2
    exit 1
}
grep -q '"refsPerSec"' BENCH_fig12.json || {
    echo "bench: BENCH_fig12.json carries no refs/sec" >&2
    exit 1
}
# Perf-regression gate: any benchmark present in both the committed
# baseline and the fresh run may not be more than 25% slower.  A
# first-ever run (no committed snapshot) skips with a notice.
build-rel/tools/bench_gate --selftest
if [[ -s "${workdir}/micro-baseline.json" ]]; then
    build-rel/tools/bench_gate "${workdir}/micro-baseline.json" \
        BENCH_micro.json --threshold 25
else
    echo "bench: no committed BENCH_micro.json baseline; gate skipped"
fi

echo "=== [10/12] repository benchmark self-test (perfbench)"
python3 perfbench/run.py --selftest

echo "=== [11/12] serve smoke under ASan/UBSan (beard + bearload)"
serve_trace="${workdir}/serve-mcf.beartrace"
serve_sock="${workdir}/beard.sock"
serve_env=(BEAR_WARMUP=4000 BEAR_MEASURE=2000 BEAR_SCALE=0.015625)
env "${serve_env[@]}" build-san/tools/trace_record mcf \
    "${serve_trace}" --refs 6000 --cores 4 >/dev/null
env "${serve_env[@]}" build-san/tools/beard --socket "${serve_sock}" \
    --shards 2 --queue 2 >"${workdir}/beard.log" 2>&1 &
beard_pid=$!
for _ in $(seq 1 100); do
    [[ -S "${serve_sock}" ]] && break
    sleep 0.1
done
[[ -S "${serve_sock}" ]] || {
    echo "serve: beard never bound ${serve_sock}" >&2
    cat "${workdir}/beard.log" >&2
    exit 1
}
# Eight concurrent tenants against 2 shards x 2 queue slots: every
# session must complete and every report must be identical.
build-san/tools/bearload "${serve_sock}" "${serve_trace}" \
    --tenants 8 --report "${workdir}/served.json"
env "${serve_env[@]}" build-san/tools/beard --offline "${serve_trace}" \
    > "${workdir}/offline.json"
# The served report must be byte-identical to the offline replay's.
diff "${workdir}/served.json" "${workdir}/offline.json"
# SIGTERM drains in-flight tenants and exits 130, mirroring the
# runner's interrupt contract.
kill -TERM "${beard_pid}"
rc=0
wait "${beard_pid}" || rc=$?
if [[ "${rc}" -ne 130 ]]; then
    echo "serve: beard drained with exit ${rc}, expected 130" >&2
    cat "${workdir}/beard.log" >&2
    exit 1
fi

echo "=== [12/12] chaos serve under ASan/UBSan (fault injection)"
# In-process soak first: concurrent tenant waves against injected
# serve.* faults.  chaos_serve itself asserts the PR 10 invariant —
# healthy tenants byte-identical to the offline reference, faulted
# tenants handed structured attributed Error frames, at least one
# fault actually fired, and a drain arriving mid-chaos exits 130.
build-san/tools/chaos_serve --tenants 16 --rounds 2 >/dev/null

# Then the real daemon: beard restarted with BEAR_FAULT naming
# serve.* sites, 16 bearload tenants in chaos mode.  The healthy
# tenants' shared report must still equal the unfaulted offline
# reference computed in step 11.
chaos_sock="${workdir}/beard-chaos.sock"
env "${serve_env[@]}" BEAR_SEED=48879 \
    BEAR_FAULT='panic@serve.job.run:p=0.25,alloc@serve.decode:p=0.15' \
    build-san/tools/beard --socket "${chaos_sock}" \
    --shards 2 --queue 16 >"${workdir}/beard-chaos.log" 2>&1 &
chaos_pid=$!
for _ in $(seq 1 100); do
    [[ -S "${chaos_sock}" ]] && break
    sleep 0.1
done
[[ -S "${chaos_sock}" ]] || {
    echo "chaos serve: beard never bound ${chaos_sock}" >&2
    cat "${workdir}/beard-chaos.log" >&2
    exit 1
}
build-san/tools/bearload "${chaos_sock}" "${serve_trace}" \
    --tenants 16 --tolerate-faults 1 \
    --report "${workdir}/chaos-served.json"
diff "${workdir}/chaos-served.json" "${workdir}/offline.json"
# SIGTERM mid-chaos: land the drain while a second tenant wave is
# still in flight; the daemon must still exit 130, and the wave's
# stragglers must hear Draining, not a hangup (tolerated above).
build-san/tools/bearload "${chaos_sock}" "${serve_trace}" \
    --tenants 8 --tolerate-faults 1 >/dev/null 2>&1 &
wave_pid=$!
sleep 0.3
kill -TERM "${chaos_pid}"
rc=0
wait "${chaos_pid}" || rc=$?
wait "${wave_pid}" || true
if [[ "${rc}" -ne 130 ]]; then
    echo "chaos serve: beard drained with exit ${rc}, expected 130" >&2
    cat "${workdir}/beard-chaos.log" >&2
    exit 1
fi

echo "=== CI OK"
