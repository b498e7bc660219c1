#!/bin/sh
# Benchmark smoke test: every perfbench workload at toy size, one
# iteration each (`e2e.exe --quick`), must end with a result line whose
# answers are all correct and in which no run failed.
#
#   tools/perfbench_smoke.sh            # == dune build @perfbench-smoke
#   tools/perfbench_smoke.sh E2E_EXE    # check an already-built binary
#
# The second form is what the @perfbench-smoke alias in test/dune runs
# (attached to runtest); it must be started from the directory holding
# perfbench/workloads.json.
set -eu
if [ $# -eq 0 ]; then
  cd "$(dirname "$0")/.."
  exec dune build @perfbench-smoke
fi
line=$("$1" --quick | tail -n 1)
case $line in
  '{"correct":true,'*) ;;
  *)
    echo "perfbench smoke: an answer was wrong: $line" >&2
    exit 1
    ;;
esac
case $line in
  *',"failed":0,'*) ;;
  *)
    echo "perfbench smoke: a run failed: $line" >&2
    exit 1
    ;;
esac
