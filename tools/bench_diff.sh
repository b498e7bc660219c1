#!/bin/sh
# Cross-PR benchmark regression gate: compare the micro rows (fixed data
# structures) of the committed results of the last two PRs.  Any row more
# than 20% slower than the group's median shift fails the script; whole-run
# groups in older results files are ignored (perfbench gates whole runs).
# Wraps the dune alias so CI and humans share one entry point:
#
#   tools/bench_diff.sh             # == dune build @bench-diff
#
# To compare other files or thresholds, call the harness directly:
#
#   dune exec bench/main.exe -- --diff OLD.json NEW.json --diff-threshold 10
#
# The loose multicore sanity check lives in the same binary
# (`dune exec bench/main.exe -- --scaling-check`); it skips, rather than
# fails, on single-core hosts where a warm 2-domain sweep cannot beat a
# sequential one.
set -eu
cd "$(dirname "$0")/.."
exec dune build @bench-diff "$@"
