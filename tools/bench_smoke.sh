#!/bin/sh
# Benchmark-harness smoke test: run the data-structure micro-benchmark
# group with a tiny sampling quota and validate that the emitted results
# document parses with the in-tree strict JSON parser (the same codec the
# observability exports use).  The alias is also part of `dune runtest`.
# Wraps the dune alias so CI and humans share one entry point:
#
#   tools/bench_smoke.sh            # == dune build @bench-smoke
#
# A full run (micro rows at the real quota, the pool sweep and the
# observability A/B) needs an explicit output file:
# `dune exec bench/main.exe -- --json BENCH_<n>.json`.
set -eu
cd "$(dirname "$0")/.."
exec dune build @bench-smoke "$@"
