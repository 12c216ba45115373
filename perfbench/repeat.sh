#!/usr/bin/env bash
# Runs one workload of the benchmark once per seed and prints the
# steadiness report (median, quartiles, range, spread and a two-mode
# flag per metric) over the runs.
#
# Usage, from the repository root:
#   perfbench/repeat.sh WORKLOAD RUNS SECONDS [TRACE] [FIRST_SEED]
set -euo pipefail
workload=${1:?workload}
runs=${2:?number of runs}
seconds=${3:?seconds per run}
trace=${4:-0}
first=${5:-1}
out=".perfbench-out/repeat-${workload}-trace${trace}"
mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
for ((seed = first; seed < first + runs; seed++)); do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        >"$out/seed-$seed.txt"
done
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    steady "$out"/seed-*.txt
