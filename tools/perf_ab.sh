#!/usr/bin/env bash
# Paired A/B run of the end-to-end benchmark: a git revision against the
# working tree.
#
#   tools/perf_ab.sh REV [N] [-- RUN_ARGS...]
#   tools/perf_ab.sh HEAD~1 3 -- --workload service_k3 --seconds 10
#
# REV is exported with `git archive` into a temporary directory, so it
# builds in its own `.bench_build` and the working tree in its own.  The two
# then run `perfbench/run.sh --json` alternately, N times each (default 3),
# the first run of each pair alternating between them to cancel drift, and
# `run.sh --compare REV.json TREE.json` prints every pair.  One run each is
# not enough: `setup_s` alone moves about ±25% between identical binaries.
# RUN_ARGS go to every run.  The JSON documents stay in the results
# directory (under $TMPDIR) printed at the end; the exported tree is
# removed.  Exits 1 if any pair's comparison reports a violation.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
  echo "usage: $0 REV [N] [-- RUN_ARGS...]" >&2
  exit 2
fi
rev=$1
shift
n=3
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
  n=$1
  shift
fi
if [ $# -gt 0 ]; then shift; fi # the "--"

tree=$(pwd)
base=$(mktemp -d)
out=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$base"

run() { # run SRC_DIR OUT_JSON
  (cd "$1" && bash perfbench/run.sh --json "$2" "${@:3}" >/dev/null)
}

status=0
for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$base" "$out/rev-$i.json" "$@"
    run "$tree" "$out/tree-$i.json" "$@"
  else
    run "$tree" "$out/tree-$i.json" "$@"
    run "$base" "$out/rev-$i.json" "$@"
  fi
  echo "=== pair $i of $n: $rev -> working tree ==="
  bash perfbench/run.sh --compare "$out/rev-$i.json" "$out/tree-$i.json" || status=1
done
echo "results: $out"
exit $status
