#!/usr/bin/env bash
# Paired perfbench gate: runs every BENCHMARK.json workload on the
# merge-base of <base-rev> and on HEAD, interleaved on this machine, and
# fails when an end-to-end metric's mean over head's runs is worse than
# its mean over base's by more than that metric's bound (see
# docs/perf.md).
#
#   tools/perf_gate.sh <base-rev>     # e.g. origin/main; CI runs this on PRs
#
# The base side is checked out in a git worktree under .bench_build/.
# Each side runs perfbench with exactly its own BENCHMARK.json's
# `command`, `run_seconds` and `--trace 0`, building it into its own
# target directory there. Seeds 1..=PAIRS run base then head on odd
# seeds and head then base on even ones, so a drift of the host's speed
# lands on both sides. The verdict comes from the `perf_gate` bin of
# cirgps-bench.
set -euo pipefail

PAIRS=6

if [ $# -ne 1 ]; then
  echo "usage: tools/perf_gate.sh <base-rev>" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
root=$(pwd)
base=$(git merge-base "$1" HEAD)
build="$root/.bench_build"
tree="$build/base-src"
results="$build/gate"

# A worktree left by an earlier run is moved to the base commit rather
# than made anew, so files it shares keep their timestamps and cargo
# rebuilds only what changed. `git worktree remove .bench_build/base-src`
# deletes it.
mkdir -p "$build"
if git -C "$tree" rev-parse --git-dir >/dev/null 2>&1; then
  git -C "$tree" checkout --quiet --force --detach "$base"
else
  rm -rf "$tree"
  git worktree prune
  git worktree add --quiet --detach "$tree" "$base"
fi
rm -rf "$results"
mkdir -p "$results/base" "$results/head"

# Each side runs with its own BENCHMARK.json: its `command`, its
# `run_seconds` and the workloads it lists. The verdict judges base's
# workloads and metrics; what only head adds is noted.
dir_of() { if [ "$1" = base ]; then echo "$tree"; else echo "$root"; fi; }
spec_of() { echo "$(dir_of "$1")/BENCHMARK.json"; }
has_workload() { jq -e --arg w "$2" 'any(.workloads[]; .name == $w)' "$(spec_of "$1")" >/dev/null; }
mapfile -t workloads < <(jq -r '.workloads[].name' "$(spec_of head)" "$(spec_of base)" | awk '!seen[$0]++')

echo "perf gate: base $(git rev-parse --short "$base"), head $(git rev-parse --short HEAD)"
# Build the verdict first, so a compile error shows before the runs.
cargo build --release --quiet --locked --offline -p cirgps-bench --bin perf_gate

for seed in $(seq 1 "$PAIRS"); do
  if [ $((seed % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for w in "${workloads[@]}"; do
    for side in $order; do
      has_workload "$side" "$w" || continue
      echo "seed $seed  $w  $side"
      mapfile -t command < <(jq -r '.command[]' "$(spec_of "$side")")
      seconds=$(jq -r '.run_seconds' "$(spec_of "$side")")
      out="$results/$side/$w-$seed.out"
      # A failed run leaves no result line; the verdict names it.
      (cd "$(dir_of "$side")" && CARGO_TARGET_DIR="$build/$side" "${command[@]}" \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) > "$out" \
        || echo "perfbench exited with status $? ($side $w seed $seed)"
      tail -n 1 "$out"
    done
  done
done

cargo run --release --quiet --locked --offline -p cirgps-bench --bin perf_gate -- \
  "$(spec_of base)" "$(spec_of head)" "$results/base" "$results/head"
