#!/usr/bin/env bash
# Run workloads once per listed seed, untraced, and print the
# run-to-run spread (interquartile range over median) of every
# end-to-end metric. A seed may be listed more than once: repeating one
# seed measures host noise alone; distinct seeds add input variation.
#
# Usage, from the repository root:
#   perfbench/spread.sh SECONDS "SEED..." WORKLOAD...
# e.g. perfbench/spread.sh 25 "$(echo 20200613{,,,,})" static_mem serve
#      perfbench/spread.sh 25 "$(seq 41 50)" lifecycle
set -euo pipefail
seconds=$1 seeds=$2
shift 2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/itesp-perfbench"
out=.bench_out/spread
mkdir -p "$out"
logs=()
for w in "$@"; do
  i=0
  for s in $seeds; do
    i=$((i + 1))
    "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$out/$w-$i-$s.log" 2>/dev/null
    logs+=("$out/$w-$i-$s.log")
  done
done
"$bin" spread "${logs[@]}"
