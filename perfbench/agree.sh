#!/usr/bin/env bash
# Two full sets of runs of this tree's build, as the driver makes them: ten
# untraced runs per workload and set, each on another seed, plus two traced
# runs on seed 4357 and two on the unseen seed 90210 for the exact counts.
# Fails if a median moves between the sets by more than its bound, a spread
# reaches its bound, or a count does not repeat. Writes every number to
# <out.json> (default results/perfbench/agree.json) — the form of
# BENCH_11.json. Takes about 40 minutes for all four workloads.
#
#   perfbench/agree.sh [out.json [workload ...]]
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
tree=$(cd "$here/.." && pwd)
(cd "$tree" && CARGO_TARGET_DIR=.bench_build \
    cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
mkdir -p "$tree/results/perfbench"
exec python3 "$here/compare.py" agree "$tree" "${1:-$tree/results/perfbench/agree.json}" "${@:2}"
