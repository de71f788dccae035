#!/usr/bin/env bash
# Builds the benchmark and the partition worker from source, then runs one
# workload.  Run from the repository root:
#   bash perfbench/run.sh --workload ring8-seq --seed 1 --seconds 10 --trace 0
# The last line of stdout is the result object; everything the run writes
# (span files, the unit netlists handed to workers) stays under .perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.perfbench
mkdir -p "$out/tmp" "$out/cache"
export TMPDIR="$PWD/$out/tmp" XDG_CACHE_HOME="$PWD/$out/cache" DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe ./bin/fireaxe_worker.exe >&2
exec ./_build/default/perfbench/perfbench.exe --out "$out" \
  --worker ./_build/default/bin/fireaxe_worker.exe "$@"
