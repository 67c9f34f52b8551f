#!/usr/bin/env sh
# Consolidated verification entry point.  One mode per hardening axis;
# each mode uses its own build tree so none of them disturb the normal
# build/ directory.
#
# Usage: ./scripts/check.sh <mode> [extra cmake args...]
#
# Modes:
#   asan       AddressSanitizer + UBSan build, full ctest suite
#              (build-asan/).  Catches heap errors in the DES arenas,
#              container misuse, signed overflow, bad shifts.
#   tsan       ThreadSanitizer build of the concurrency-sensitive
#              suites (test_exec, test_des, test_partitioned,
#              test_campaign) and runs them (build-tsan/).  Catches
#              races in the thread pool and the sweep runner; the
#              campaign tests drive an instrumented rsin_campaign,
#              whose analytic lane runs chain solves, the shared
#              analysis cache and ledger appends beside the
#              simulation workers (a TSan report exits the child 66
#              and fails the test).  test_allocations runs too: its
#              counting operator new must coexist with the TSan
#              runtime's allocator.
#   contracts  Debug build with -DRSIN_CONTRACTS=ON, full ctest suite
#              (build-contracts/).  Runtime invariants fire: calendar
#              heap order, per-fire time monotonicity, task
#              conservation, sweep seed uniqueness, and the Omega
#              availability registers (after every status change the
#              current ones equal a from-scratch rebuild, and a
#              register read as stored is current).
#   lint       Build rsin_lint and run it over src/, bench/, examples/,
#              tools/ and tests/ (reuses build/ if configured, else
#              build-lint/).  Fails on any finding not waived by an
#              allow() comment, or when the run takes 1000 ms or more.
#   tidy       clang-tidy over the library sources (skips with a
#              notice when clang-tidy is not installed).
#   bench      Release build of bench/micro_kernels compared against
#              the committed BENCH_baseline.json (build-bench/).
#              Fails on a >30% slowdown in the solver / DES families.
#   all        asan, tsan, contracts, lint, tidy, bench in sequence;
#              fails if any mode fails.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode="${1:-}"
[ $# -gt 0 ] && shift

run_asan() {
    build="$repo/build-asan"
    cmake -B "$build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
        "$@"
    cmake --build "$build" -j "$(nproc)"
    (cd "$build" && ctest -j "$(nproc)" --output-on-failure)
}

run_tsan() {
    build="$repo/build-tsan"
    cmake -B "$build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
        "$@"
    cmake --build "$build" \
        --target test_exec test_des test_partitioned test_campaign \
                 test_allocations \
        -j "$(nproc)"
    status=0
    for t in test_exec test_des test_partitioned test_campaign \
             test_allocations; do
        echo "== TSan: $t =="
        "$build/tests/$t" || status=1
    done
    return $status
}

run_contracts() {
    build="$repo/build-contracts"
    cmake -B "$build" -S "$repo" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DRSIN_CONTRACTS=ON \
        "$@"
    cmake --build "$build" -j "$(nproc)"
    (cd "$build" && ctest -j "$(nproc)" --output-on-failure)
}

run_lint() {
    # Reuse the main build tree when it is already configured so the
    # linter binary is shared with the ctest registration.
    if [ -f "$repo/build/CMakeCache.txt" ]; then
        build="$repo/build"
    else
        build="$repo/build-lint"
        cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release "$@"
    fi
    cmake --build "$build" --target rsin_lint -j "$(nproc)"
    # Smoke-check the cross-TU layer before trusting a clean lint: an
    # empty call graph or zero worker roots would mean R10/R11 were
    # vacuously silent over the whole tree.
    graph=$("$build/tools/rsin_lint/rsin_lint" --root "$repo" \
        --dump-callgraph)
    echo "$graph" | head -n 1
    echo "$graph" | grep -q "worker root:" || {
        echo "check.sh: lint call graph found no worker roots" >&2
        exit 1
    }
    echo "$graph" | grep -q -- " -> " || {
        echo "check.sh: lint call graph has no resolved edges" >&2
        exit 1
    }
    # The sweep cell lambdas reach the pool only through SweepRunner's
    # callable parameters; if forwarder inference loses them, these
    # two files keep their cells but lose every worker root.
    for file in bench/figure_common.hpp examples/rsin_sweep.cpp; do
        echo "$graph" | grep -F "worker root:" | grep -q -F "($file:" || {
            echo "check.sh: lint call graph found no worker root" \
                 "in $file" >&2
            exit 1
        }
    done
    # Whole-tree run with per-phase timings; gate its wall time so the
    # linter never quietly becomes the slow part of the loop.
    timings=$("$build/tools/rsin_lint/rsin_lint" --root "$repo" \
        --timings 2>&1 >&3) ||
        { echo "$timings" >&2; exit 1; }
    echo "$timings" >&2
    total=$(echo "$timings" |
        sed -n 's/.*total=\([0-9][0-9]*\)ms.*/\1/p')
    if [ -n "$total" ] && [ "$total" -ge 1000 ]; then
        echo "check.sh: whole-tree lint took ${total}ms" \
             "(budget < 1000ms)" >&2
        exit 1
    fi
} 3>&1

run_tidy() {
    "$repo/scripts/check_tidy.sh" "$@"
}

run_bench() {
    "$repo/scripts/check_bench.sh" "$@"
}

case "$mode" in
  asan)      run_asan "$@" ;;
  tsan)      run_tsan "$@" ;;
  contracts) run_contracts "$@" ;;
  lint)      run_lint "$@" ;;
  tidy)      run_tidy "$@" ;;
  bench)     run_bench "$@" ;;
  all)
    status=0
    for m in asan tsan contracts lint tidy bench; do
        echo "==== check.sh: $m ===="
        "run_$m" "$@" || { echo "check.sh: mode '$m' FAILED"; status=1; }
    done
    exit $status
    ;;
  *)
    echo "usage: $0 {asan|tsan|contracts|lint|tidy|bench|all} [cmake args...]" >&2
    exit 2
    ;;
esac
