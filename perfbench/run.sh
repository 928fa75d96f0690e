#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# `--trace 0` runs the untraced binary (end-to-end metrics); `--trace 1`
# runs the traced binary, whose counting allocator the untraced numbers
# never pay for, and keeps its spans under perfbench/out/. Cargo output goes
# to stderr; the result is the last line of stdout. Honours
# CARGO_TARGET_DIR; the default is perfbench/target.
set -euo pipefail

here="$(dirname "$0")"
bin=perfbench
extra=()
prev=""
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
    bin=perfbench_traced
    extra=(--spans-dir "$here/out")
  fi
  prev="$arg"
done

cargo build --release --offline --quiet --bins --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@" "${extra[@]}"
