#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#
# With --workload, one process measures that workload and prints the
# driver's result object as the last line of standard output (the contract
# in ../BENCHMARK.json). Without it, all six workloads run one after the
# other, each in a process of its own (peak RSS is per workload). The
# human-readable tables go to standard error; reports and span files go to
# benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/ido-benchmark"

args=()
workload=""
while (($#)); do
    case "$1" in
        --traced) args+=(--trace 1) ;;
        --workload)
            workload="${2:?--workload needs a value}"
            shift
            ;;
        *) args+=("$1") ;;
    esac
    shift
done

if [[ -n "$workload" ]]; then
    exec "$bin" --workload "$workload" "${args[@]}"
fi
if [[ " ${args[*]} " == *" --print-benchmark-json "* ]]; then
    exec "$bin" --print-benchmark-json
fi
for w in kv_write kv_read micro_scale service_crash crash_oracle compile_verify; do
    "$bin" --workload "$w" "${args[@]}"
done
