#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full ctest suite, then
# (by default) rebuild the threading suites under ThreadSanitizer and run
# the determinism/stress labels plus test_serve as a second configuration.
# Each stage prints a one-line PASS/FAIL summary at the end; the exit code
# names the first failing stage.
#
# usage: tools/run_tier1.sh [--sanitize LIST] [--build-dir DIR] [--jobs N]
#                           [--tsan | --skip-tsan] [--lint]
#   --sanitize LIST   comma-separated sanitizers, e.g. address,undefined
#                     (forwarded as -DACCLAIM_SANITIZE=LIST)
#   --build-dir DIR   build tree location (default: build, or build-san when
#                     sanitizers are on, so the two configurations coexist)
#   --jobs N          parallel build/test jobs (default: nproc)
#   --tsan            run ONLY the TSan configuration (build-tsan tree,
#                     ctest -L "determinism|stress", then test_serve)
#   --skip-tsan       skip the TSan pass after the main suite
#   --lint            run ONLY the static-analysis stages: build and run
#                     acclaim_lint --root <repo> (it scans src/ tools/
#                     tests/ bench/ examples/ and fails on any finding),
#                     then clang-tidy via compile_commands.json when
#                     clang-tidy is installed (skipped with a note
#                     otherwise)
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
sanitize=""
build_dir=""
jobs="$(nproc 2>/dev/null || echo 4)"
tsan_mode="after"  # after | only | skip
lint_only=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize) sanitize="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --jobs) jobs="$2"; shift 2 ;;
    --tsan) tsan_mode="only"; shift ;;
    --skip-tsan) tsan_mode="skip"; shift ;;
    --lint) lint_only=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# --- stage runner -----------------------------------------------------------
# run_stage NAME cmd... executes the command, records PASS/FAIL/SKIP, and
# remembers the first failure. Later stages still run (a lint failure should
# not hide a test failure in the same report), EXCEPT when a stage a later
# stage depends on fails (configure/build short-circuit via `needs`).
stage_names=()
stage_results=()
stage_secs=()
first_failed=""

record_stage() {  # name result seconds
  stage_names+=("$1")
  stage_results+=("$2")
  stage_secs+=("$3")
  if [[ "$2" == FAIL && -z "$first_failed" ]]; then
    first_failed="$1"
  fi
}

run_stage() {  # name cmd...
  local name="$1"; shift
  echo "=== stage: $name ==="
  local start=$SECONDS
  if "$@"; then
    record_stage "$name" PASS $((SECONDS - start))
  else
    record_stage "$name" FAIL $((SECONDS - start))
    return 1
  fi
}

skip_stage() {  # name reason
  echo "=== stage: $1 (skipped: $2) ==="
  record_stage "$1" "SKIP" 0
}

finish() {
  echo
  echo "--- tier-1 summary ---"
  local i
  for i in "${!stage_names[@]}"; do
    printf '%-12s %-4s %4ss\n' "${stage_names[$i]}" "${stage_results[$i]}" "${stage_secs[$i]}"
  done
  if [[ -n "$first_failed" ]]; then
    echo "FAILED at stage: $first_failed"
    exit 1
  fi
  echo "OK"
  exit 0
}

# --- stages -----------------------------------------------------------------

run_tsan() {
  # The determinism/stress labels cover every parallel_for call site with
  # 2-8 thread pools, and test_serve covers the serving store's concurrent
  # readers and publishers and the decision cache; TSan on those
  # suites is the data-race gate. The thread counts in the tests don't
  # depend on the host's core count, so this is meaningful even on a 1-core
  # CI runner.
  local tsan_dir="$repo_root/build-tsan"
  local tsan_env=(env TSAN_OPTIONS="suppressions=$repo_root/tools/tsan.supp ${TSAN_OPTIONS:-}")
  cmake -B "$tsan_dir" -S "$repo_root" -DACCLAIM_SANITIZE=thread &&
  cmake --build "$tsan_dir" --target test_thread_pool test_determinism test_properties \
    test_serve -j "$jobs" &&
  # --no-tests=error: a label filter that matches nothing must fail loudly,
  # not report success with zero tests run (a renamed label would otherwise
  # silently disable the race gate).
  "${tsan_env[@]}" ctest --test-dir "$tsan_dir" -L "determinism|stress" --no-tests=error \
    --output-on-failure -j "$jobs" &&
  # test_serve carries the `unit` label, so it runs as a binary; a TSan
  # report makes it exit non-zero.
  "${tsan_env[@]}" "$tsan_dir/tests/test_serve"
}

run_acclaim_lint() {
  # The whole-tree scan CI's lint job gates on; exits 1 on any finding.
  cmake --build "$repo_root/$build_dir" --target acclaim_lint -j "$jobs" &&
  "$repo_root/$build_dir/tools/acclaim_lint" --root "$repo_root"
}

run_clang_tidy() {
  # Driven by the .clang-tidy at the repo root; compile_commands.json comes
  # from the configure stage. Header findings are scoped by HeaderFilterRegex.
  local -a sources
  mapfile -t sources < <(git -C "$repo_root" ls-files 'src/*.cpp' 'tools/*.cpp')
  clang-tidy -p "$repo_root/$build_dir" --quiet "${sources[@]/#/$repo_root/}"
}

if [[ -z "$build_dir" ]]; then
  build_dir="build"
  [[ -n "$sanitize" ]] && build_dir="build-san"
fi

if [[ "$tsan_mode" == "only" && "$lint_only" == 0 ]]; then
  run_stage tsan run_tsan || true
  finish
fi

cmake_flags=(-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)
[[ -n "$sanitize" ]] && cmake_flags+=("-DACCLAIM_SANITIZE=${sanitize}")

if [[ "$lint_only" == 1 ]]; then
  run_stage configure cmake -B "$repo_root/$build_dir" -S "$repo_root" "${cmake_flags[@]}" &&
  run_stage lint run_acclaim_lint || true
  if [[ "${#stage_results[@]}" -gt 0 && "${stage_results[0]}" == PASS ]]; then
    if command -v clang-tidy >/dev/null 2>&1; then
      run_stage clang-tidy run_clang_tidy || true
    else
      skip_stage clang-tidy "clang-tidy not installed (gcc-only container); CI runs it"
    fi
  fi
  finish
fi

if run_stage configure cmake -B "$repo_root/$build_dir" -S "$repo_root" "${cmake_flags[@]}"; then
  if run_stage build cmake --build "$repo_root/$build_dir" -j "$jobs"; then
    run_stage ctest ctest --test-dir "$repo_root/$build_dir" --no-tests=error \
      --output-on-failure -j "$jobs" || true
    run_stage lint run_acclaim_lint || true
  else
    skip_stage ctest "build failed"
    skip_stage lint "build failed"
  fi
else
  skip_stage build "configure failed"
  skip_stage ctest "configure failed"
  skip_stage lint "configure failed"
fi

if [[ "$tsan_mode" == "after" && -z "$sanitize" ]]; then
  run_stage tsan run_tsan || true
else
  skip_stage tsan "$([[ -n "$sanitize" ]] && echo "sanitizer build" || echo "--skip-tsan")"
fi

finish
