#!/usr/bin/env bash
#
# Full local gate: configure, build, and run the test suite, then
# rebuild with ThreadSanitizer and exercise the parallel experiment
# engine under it, with AddressSanitizer over the trace/replay
# engine (whose pre-decoded buffers and ring-buffer RFC are the
# library's most index-heavy code), and with UndefinedBehaviorSanitizer
# over the cycle-level pipeline (whose loop runs on shifts and
# bitmasks), the replay, allocator and protocol tests, and a fuzz
# smoke. Two observability gates follow: a Doxygen-warning check
# over the metrics/trace/manifest/replay headers (skipped when doxygen
# is not installed) and a performance
# gate that takes a fresh snapshot and diffs it against the newest
# committed BENCH_<n>.json with `rfhc bench-diff` (skipped when no
# snapshot exists). Usage:
#
#   scripts/check.sh              # build + ctest + sanitizers + gates
#   scripts/check.sh --no-tsan    # skip the TSan stage
#   scripts/check.sh --no-asan    # skip the ASan stage
#   scripts/check.sh --no-ubsan   # skip the UBSan stage
#   scripts/check.sh --no-perf    # skip the bench-diff perf gate
#   scripts/check.sh --no-fuzz    # skip the differential fuzz smoke
#   scripts/check.sh --no-golden  # skip the golden figure-shape gate
#   scripts/check.sh --no-pipeline # skip the cycle-level pipeline gate
#   scripts/check.sh --no-serve   # skip the serve+loadgen smoke
#   scripts/check.sh --no-vec     # skip the vectorize-report gate
#   scripts/check.sh --no-compare # skip the leaderboard smoke
#   scripts/check.sh --no-corpus  # skip the corpus population gate
#
# The fuzz smoke runs a fixed-seed `rfhc fuzz` campaign (differential
# oracle + allocator-invariant checker over generated kernels) and, in
# the ASan stage, the oracle over the checked-in corpus; any finding
# fails the gate and leaves a shrunk .rptx repro behind.
#
# RFH_BENCH_THRESHOLD sets the perf gate's relative regression
# threshold (default 0.50 — generous, since CI machines are noisy).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
run_tsan=1
run_asan=1
run_ubsan=1
run_perf=1
run_fuzz=1
run_golden=1
run_pipeline=1
run_serve=1
run_vec=1
run_compare=1
run_corpus=1
for arg in "$@"; do
    [[ "$arg" == "--no-tsan" ]] && run_tsan=0
    [[ "$arg" == "--no-asan" ]] && run_asan=0
    [[ "$arg" == "--no-ubsan" ]] && run_ubsan=0
    [[ "$arg" == "--no-perf" ]] && run_perf=0
    [[ "$arg" == "--no-fuzz" ]] && run_fuzz=0
    [[ "$arg" == "--no-golden" ]] && run_golden=0
    [[ "$arg" == "--no-pipeline" ]] && run_pipeline=0
    [[ "$arg" == "--no-serve" ]] && run_serve=0
    [[ "$arg" == "--no-vec" ]] && run_vec=0
    [[ "$arg" == "--no-compare" ]] && run_compare=0
    [[ "$arg" == "--no-corpus" ]] && run_corpus=0
done

echo "== build + test (${jobs} jobs) =="
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" -j "$jobs"
# The golden, pipeline, and corpus tiers run as their own gated
# stages below; keep the main run on the unit/property/fuzz tiers.
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs" \
    -LE 'golden|pipeline|corpus'

if [[ "$run_vec" == 1 ]]; then
    echo "== vectorize report: replay classification loop =="
    # The SoA flags-classification sweep in sim/replay_kernels.cpp is
    # the replay engine's innermost loop; the build compiles that TU
    # at -O3 (src/CMakeLists.txt) precisely so it autovectorizes.
    # Recompile it standalone with the vectorizer report and fail the
    # gate if the loop ever stops vectorizing.
    veclog="$(mktemp)"
    if ! c++ -std=c++20 -O3 -fopt-info-vec-optimized \
        -I "$repo/src" -c "$repo/src/sim/replay_kernels.cpp" \
        -o /dev/null 2>"$veclog"; then
        cat "$veclog" >&2
        echo "check.sh: replay_kernels.cpp failed to compile" >&2
        rm -f "$veclog"
        exit 1
    fi
    if ! grep -q "loop vectorized" "$veclog"; then
        cat "$veclog" >&2
        echo "check.sh: replay classification loop no longer" \
             "vectorizes (see report above)" >&2
        rm -f "$veclog"
        exit 1
    fi
    rm -f "$veclog"
fi

if [[ "$run_pipeline" == 1 ]]; then
    echo "== cycle-level pipeline gate: scheduler/stall/digest suite =="
    # Determinism, scheduler-policy equivalences, the stall identity,
    # the golden stats digest, and the pipeline-vs-functional count
    # cross-checks (tests/test_pipeline.cpp); `--no-pipeline` skips.
    ctest --test-dir "$repo/build" --output-on-failure -L pipeline
fi

if [[ "$run_golden" == 1 ]]; then
    echo "== golden figure-shape gate: EXPERIMENTS.md bands =="
    # Deterministic full-registry sweeps pinned to the headline bands
    # (tests/test_golden.cpp); a failure means a result-moving change
    # that must update the bands and EXPERIMENTS.md together.
    ctest --test-dir "$repo/build" --output-on-failure -L golden
fi

if [[ "$run_serve" == 1 ]]; then
    # loadgen retries until the socket appears, verifies every result
    # byte-for-byte against a local DIRECT runScheme(), reports the
    # server's memo counters, and sends shutdown; the server must then
    # drain and exit 0 on its own. The session runs once with every
    # request in a slice of its own and once at the default batch
    # size, so an answer cannot depend on batching.
    for batch in 1 default; do
        echo "== batch service smoke: serve + loadgen (batch $batch) =="
        batch_args=()
        [[ "$batch" == default ]] || batch_args=(--batch "$batch")
        sock="$(mktemp -u /tmp/rfhc-check-XXXXXX.sock)"
        log="$(mktemp)"
        "$repo/build/examples/rfhc" serve --socket "$sock" --queue 8 \
            "${batch_args[@]}" &
        serve_pid=$!
        if ! "$repo/build/examples/rfhc" loadgen --socket "$sock" \
            --clients 4 --requests 50 --verify --shutdown | tee "$log"; then
            kill "$serve_pid" 2>/dev/null || true
            rm -f "$log" "$sock"
            echo "check.sh: service loadgen failed (batch $batch)" >&2
            exit 1
        fi
        if ! wait "$serve_pid"; then
            rm -f "$log" "$sock"
            echo "check.sh: rfhc serve did not exit cleanly" \
                "(batch $batch)" >&2
            exit 1
        fi
        rm -f "$sock"
        if ! grep -q "verify: 0 mismatches" "$log"; then
            rm -f "$log"
            echo "check.sh: served results differ from local runs" \
                "(batch $batch)" >&2
            exit 1
        fi
        rm -f "$log"
    done
fi

if [[ "$run_compare" == 1 ]]; then
    echo "== cross-scheme leaderboard smoke: rfhc compare =="
    # Every registered backend must rank cleanly: the leaderboard JSON
    # must parse, carry one row per scheme, and report no per-row run
    # errors. The ranking values themselves are pinned by the golden
    # tier; this smoke only proves the registry-driven board stays
    # runnable end to end.
    # `--perf` adds the cycle-level pipeline pass at each row's entries.
    cmpjson="$(mktemp)"
    for perf in "" --perf; do
        if ! "$repo/build/examples/rfhc" compare --json $perf \
            --out "$cmpjson"
        then
            rm -f "$cmpjson"
            echo "check.sh: rfhc compare${perf:+ $perf} failed" >&2
            exit 1
        fi
        if grep -q '"error"' "$cmpjson"; then
            cat "$cmpjson" >&2
            echo "check.sh: leaderboard row reported a run error" \
                 "${perf:+($perf)}" >&2
            rm -f "$cmpjson"
            exit 1
        fi
    done
    rm -f "$cmpjson"
fi

if [[ "$run_corpus" == 1 ]]; then
    echo "== corpus population gate: statistical bands + identity =="
    # The corpus-label suite pins the population golden bands, the
    # profile round trip, and the seed-corpus drift guard
    # (tests/test_corpus.cpp); `--no-corpus` skips.
    ctest --test-dir "$repo/build" --output-on-failure -L corpus

    # Byte-identity smoke at the CLI: the same small corpus must
    # produce identical aggregate JSON at 1 and 4 threads, without and
    # with the cycle-level pipeline (`--perf`). The fuzz-grammar
    # profiles (wild, high-pressure) have the most distinct warp
    # streams, so every accountant runs through the interned trace
    # driver on mixed shared and distinct streams.
    c1="$(mktemp)"; c4="$(mktemp)"
    for perf in "" --perf; do
        corpus_args=(corpus --profiles balanced,divergent,wild,high-pressure
                     --n 64 --schemes sw3,hw2,hw3,ccrfc,regdem
                     --entries 3 --json $perf)
        RFH_THREADS=1 "$repo/build/examples/rfhc" "${corpus_args[@]}" \
            >"$c1"
        RFH_THREADS=4 "$repo/build/examples/rfhc" "${corpus_args[@]}" \
            >"$c4"
        if ! cmp -s "$c1" "$c4"; then
            rm -f "$c1" "$c4"
            echo "check.sh: corpus JSON${perf:+ ($perf)} differs across" \
                 "thread counts" >&2
            exit 1
        fi
    done
    rm -f "$c1" "$c4"
fi

if [[ "$run_fuzz" == 1 ]]; then
    echo "== differential fuzz smoke: 200 kernels, fixed seed =="
    # Deterministic: a finding here reproduces with the same seed, and
    # the shrunk repro is written next to the working directory.
    "$repo/build/examples/rfhc" fuzz --iters 200 --seed 1 --shrink
fi

if [[ "$run_tsan" == 1 ]]; then
    echo "== ThreadSanitizer: parallel engine =="
    cmake -B "$repo/build-tsan" -S "$repo" -DRFH_SANITIZE=thread >/dev/null
    cmake --build "$repo/build-tsan" -j "$jobs" --target rfh_tests
    # Exercise the thread pool and the parallel sweep (the code that
    # actually runs concurrently) with a real multi-thread pool even
    # on small CI hosts.
    RFH_THREADS=4 "$repo/build-tsan/tests/rfh_tests" \
        --gtest_filter='Parallel.*:Sweep.*:Memo.*'
fi

if [[ "$run_asan" == 1 ]]; then
    echo "== AddressSanitizer: trace + replay engine =="
    cmake -B "$repo/build-asan" -S "$repo" -DRFH_SANITIZE=address >/dev/null
    cmake --build "$repo/build-asan" -j "$jobs" --target rfh_tests
    # The recording walk, the pre-decoded SoA buffers, and every
    # replay executor's pointer-walking hot loop.
    # Memo.* and Sweep.* cover the per-kernel memo entry, which a run
    # holds across a concurrent clear().
    "$repo/build-asan/tests/rfh_tests" \
        --gtest_filter='Trace.*:Replay.*:Seeds/ReplayProperty.*:Memo.*:Sweep.*'
    # The scheme accountants: the hw2/hw3/ccrfc/regdem replay engine,
    # the software hierarchy's per-record fallback, and the pipeline
    # driving them at issue (SwFailingRun.* walks every structural
    # fault through replay, the REPLAY engine, and the pipeline).
    cmake --build "$repo/build-asan" -j "$jobs" \
        --target rfh_pipeline_tests
    "$repo/build-asan/tests/rfh_pipeline_tests" \
        --gtest_filter='Pipeline.*:PerfSim.*:SwFailingRun.*'
    if [[ "$run_fuzz" == 1 ]]; then
        # The differential oracle over the checked-in corpus: every
        # scheme x engine pair runs under ASan, so an out-of-bounds
        # RFC/ORF index aborts even when the counters happen to agree.
        cmake --build "$repo/build-asan" -j "$jobs" \
            --target rfh_verify_tests
        "$repo/build-asan/tests/rfh_verify_tests" \
            --gtest_filter='VerifyOracle.*:VerifyInvariants.*'
    fi
fi

if [[ "$run_ubsan" == 1 ]]; then
    echo "== UndefinedBehaviorSanitizer: pipeline, replay, allocator, fuzz =="
    cmake -B "$repo/build-ubsan" -S "$repo" -DRFH_SANITIZE=undefined \
        >/dev/null
    cmake --build "$repo/build-ubsan" -j "$jobs" \
        --target rfh_pipeline_tests rfh_tests rfh_verify_tests rfhc
    # The pipeline loop's scoreboard, served-operand and bank masks,
    # the golden digest matrix over every scheduler, and the failing
    # runs; any undefined shift or overflow aborts the stage.
    "$repo/build-ubsan/tests/rfh_pipeline_tests" \
        --gtest_filter='Pipeline.*:PerfSim.*:SwFailingRun.*'
    # The trace/replay engine and its bit-planes, the memo, the
    # allocator passes, the scheme executors, and the JSON parser and
    # service protocol over hostile input.
    "$repo/build-ubsan/tests/rfh_tests" \
        --gtest_filter='Trace.*:Replay.*:Seeds/ReplayProperty.*:Memo.*:Sweep.*:Strand.*:Instances.*:Intervals.*:Allocator.*:VariableAllocation.*:HwCache.*:SwExec.*:Json*.*:ServiceProtocol.*:ServiceServer.*:StreamStat.*:WireRound.*'
    # The differential oracle and invariant checker, then a short
    # fixed-seed fuzz campaign through the same instrumented build.
    "$repo/build-ubsan/tests/rfh_verify_tests"
    "$repo/build-ubsan/examples/rfhc" fuzz --iters 50 --seed 1
fi

if command -v doxygen >/dev/null 2>&1; then
    echo "== doxygen: no warnings in the observability headers =="
    doxlog="$(mktemp)"
    trap 'rm -f "$doxlog"' EXIT
    (cd "$repo" &&
        { cat Doxyfile; echo "WARN_LOGFILE = $doxlog"; } | doxygen - \
            >/dev/null)
    # New-in-this-layer headers must stay warning-free; the gate is
    # scoped so pre-existing debt elsewhere does not block CI.
    gated='core/metrics\.|core/trace_events\.|core/manifest\.|core/benchdiff\.|sim/replay_kernels\.|sim/replay_arena\.|core/scheme\.|core/leaderboard\.|sim/cc_rfc\.|sim/hw_cache\.|sim/sw_exec|sim/regdem\.|sim/greener\.|sim/rfc_ring\.|sim/pipeline|core/stats\.|core/corpus\.|workloads/profiles\.|service/net\.'
    if grep -E "$gated" "$doxlog"; then
        echo "check.sh: doxygen warnings in gated headers (above)" >&2
        exit 1
    fi
else
    echo "== doxygen not installed; skipping the docs gate =="
fi

if [[ "$run_perf" == 1 ]]; then
    base=""
    n=0
    while [[ -e "$repo/BENCH_${n}.json" ]]; do
        base="$repo/BENCH_${n}.json"
        n=$((n + 1))
    done
    if [[ -n "$base" ]]; then
        echo "== perf gate: fresh snapshot vs $(basename "$base") =="
        "$repo/scripts/bench_snapshot.sh"
        fresh="$repo/BENCH_${n}.json"
        threshold="${RFH_BENCH_THRESHOLD:-0.50}"
        if ! "$repo/scripts/bench_diff.sh" "$base" "$fresh" "$threshold"
        then
            echo "check.sh: performance regressed past ${threshold}" >&2
            exit 1
        fi
        rm -f "$fresh"
    else
        echo "== no BENCH_<n>.json snapshot; skipping the perf gate =="
    fi
fi

echo "== all checks passed =="
