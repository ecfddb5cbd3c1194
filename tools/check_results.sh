#!/usr/bin/env bash
# Results-drift check: rebuilds the figure benches (gcc, Release), reruns
# every bench that writes a committed results/*.csv from the repository
# root, and fails if any file under results/ changed.
#
#   tools/check_results.sh              # all but the fig10 ablation
#   tools/check_results.sh --ablation   # also fig10_point_selection --ablation
#
# The check needs the state of a fresh clone: no data/ directory, so the
# first bench collects the dataset exactly as a new user's first run does,
# and no local edits under results/. CI runs it on every push and pull
# request, and with --ablation on the daily schedule. On 4 cores the whole
# check takes about 5 minutes with --ablation, build included.
# results/fleet.csv (the 1000-job fleet_replay) is not rerun here; the
# scheduled fleet-bench CI lane reruns it from the repository root and fails
# if it differs from the committed file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

ablation=0
case "${1:-}" in
  "") ;;
  --ablation) ablation=1 ;;
  *)
    echo "usage: tools/check_results.sh [--ablation]" >&2
    exit 2
    ;;
esac

if [[ -e data ]]; then
  echo "check_results: data/ exists; move it aside so the dataset is collected from scratch" >&2
  exit 2
fi
if [[ -n "$(git status --porcelain -- results)" ]]; then
  echo "check_results: results/ has local changes; commit or restore them first" >&2
  exit 2
fi

build=build-results
benches=(fig03_hunold_vs_fact fig04_nonp2_traces fig05_fact_nonp2 fig06_testset_cost
         fig07_variance_proxy fig10_point_selection fig11_split_sweep fig12_convergence
         fig13_parallel_collection fig14_production_training fig15_breakeven
         tab_heuristic_gap ext_smp_algorithms)
CC=gcc CXX=g++ cmake -B "$build" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$build" -j "$(nproc)" --target "${benches[@]}"

# One bench run: output goes to a log, shown only if the bench fails.
run() {
  local log="$build/check_results_$1${2:-}.log"
  local start=$SECONDS
  if ! "$build/bench/$1" "${@:2}" > "$log" 2>&1; then
    cat "$log"
    echo "check_results: $* failed" >&2
    exit 1
  fi
  echo "ran $* ($((SECONDS - start)) s)"
}

run fig03_hunold_vs_fact
run fig04_nonp2_traces
run fig05_fact_nonp2
run fig06_testset_cost
run fig07_variance_proxy
run fig10_point_selection
if (( ablation )); then
  run fig10_point_selection --ablation
fi
run fig11_split_sweep
run fig12_convergence
run fig13_parallel_collection
run fig13_parallel_collection --naive
run fig14_production_training
run fig15_breakeven  # reads results/fig14.csv
run tab_heuristic_gap
run ext_smp_algorithms

if [[ -n "$(git status --porcelain -- results)" ]]; then
  git status --short -- results
  git --no-pager diff -- results
  echo "check_results: the benches no longer reproduce the committed results/" >&2
  exit 1
fi
echo "check_results: every rerun CSV matches results/"
