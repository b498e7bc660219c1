#!/usr/bin/env bash
# Build the benchmark from source into .bench_build, then run it with the
# given arguments from the repository root.  Build output goes to stderr,
# so the last line of standard output is the driver's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release ./perfbench/e2e.exe 1>&2
exec .bench_build/default/perfbench/e2e.exe "$@"
