#!/usr/bin/env bash
# Runs the benchmark end to end on seeds 1..RUNS and collects each run's
# result line, for comparison with `poptperf compare`:
#
#   bash cmd/poptperf/measure.sh OUT TREE            # one set, into OUT/a
#   bash cmd/poptperf/measure.sh OUT TREE_A TREE_B   # two sets, OUT/a and OUT/b
#
# Each TREE is a checkout of the repository. With two trees (a parent and
# a change, or one tree twice for an A/A check) runs alternate between
# them, and which tree goes first swaps from seed to seed. RUNS (10),
# SECONDS_PER_RUN (10) and WORKLOADS (all four) override the defaults.
set -euo pipefail

if (( $# < 2 || $# > 3 )); then
  echo "usage: measure.sh OUT TREE [TREE_B]" >&2
  exit 2
fi
out=$1
shift
trees=("$@")
labels=(a b)
runs=${RUNS:-10}
secs=${SECONDS_PER_RUN:-10}
workloads=${WORKLOADS:-tiny-all headline record-suite large-corpus}

for i in "${!trees[@]}"; do
  mkdir -p "$out/${labels[$i]}"
done
for seed in $(seq 1 "$runs"); do
  order=("${!trees[@]}")
  if (( ${#trees[@]} == 2 && seed % 2 == 0 )); then
    order=(1 0)
  fi
  for w in $workloads; do
    for i in "${order[@]}"; do
      line=$(cd "${trees[$i]}" && bash cmd/poptperf/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 | tail -n 1)
      echo "$line" >> "$out/${labels[$i]}/$w.jsonl"
      echo "${labels[$i]} $w seed $seed: $line" >&2
    done
  done
done
