#!/usr/bin/env bash
# A/B comparison of two trees by the rules of README.md ("Comparing two
# commits"): builds both, then runs >= 10 alternating pairs per workload.
#
#   perfbench/ab.sh <parent-tree> <change-tree> [workload ...]
#
# Both trees must hold the same perfbench/ (a change that claims a gain may
# not edit the benchmark); the bounds come from this tree's BENCHMARK.json.
set -euo pipefail
if [ $# -lt 2 ]; then
    sed -n '2,8p' "$0" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
for tree in "$1" "$2"; do
    (cd "$tree" && CARGO_TARGET_DIR=.bench_build \
        cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done
exec python3 "$here/compare.py" ab "$@"
