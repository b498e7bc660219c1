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
# removed.  After the pairs, one summary line per (workload, metric) gives
# the median of the per-pair % changes, how many pairs moved down, up or
# not at all, the median value on each side, and the interquartile range of
# REV's runs (a change in medians inside it is noise).  Exits 1 if any
# pair's comparison reports a violation.
#
# With `--trace 1` among RUN_ARGS a run reports the per-layer rows instead
# of the end-to-end metrics `run.sh --compare` checks, so each pair's rows
# are read from the two JSON documents with `jq` and printed in the same
# line format with no bound; a violation is then only a changed
# `sim_digest`, more failed answers, or a row or workload one side lacks.
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

traced=0
prev=
for arg in "$@"; do
  if [ "$arg" = --trace=1 ] || { [ "$prev" = --trace ] && [ "$arg" = 1 ]; }; then traced=1; fi
  prev=$arg
done

compare_layers() { # compare_layers REV_JSON TREE_JSON
  jq -r --slurpfile tree "$2" '
    ($tree[0].workloads | map({key: .name, value: .}) | from_entries) as $by_name
    | .workloads[] as $w
    | $by_name[$w.name] as $v
    | if $v == null then "! \($w.name) missing from the tree run"
      else
        (if $w.sim_digest != $v.sim_digest
         then "! \($w.name) MODEL CHANGE: sim_digest \($w.sim_digest) -> \($v.sim_digest)"
         else empty end),
        (if $v.failed > $w.failed
         then "! \($w.name) failed answers \($w.failed) -> \($v.failed)" else empty end),
        ($w.metrics | to_entries[]
         | "= \($w.name) \(.key) \(.value.value) \($v.metrics[.key].value // "missing")")
      end' "$1" | awk '
    $1 == "!" { sub(/^! /, ""); print; bad++; next }
    $5 == "missing" { printf "%-12s %-20s missing\n", $2, $3; bad++; next }
    {
      pct = $4 == 0 ? 0 : 100 * ($5 - $4) / ($4 < 0 ? -$4 : $4)
      printf "%-12s %-20s %14.6g -> %14.6g  %+7.2f%%  bound     -  per-layer\n", $2, $3, $4, $5, pct
    }
    END { printf "%d violation(s)\n", bad; exit (bad > 0) }'
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
  if [ "$traced" = 1 ]; then
    compare_layers "$out/rev-$i.json" "$out/tree-$i.json"
  else
    bash perfbench/run.sh --compare "$out/rev-$i.json" "$out/tree-$i.json"
  fi | tee "$out/compare-$i.txt" || status=1
done

# Aggregate the metric lines of every --compare block, which read
#   WORKLOAD METRIC REV_VALUE -> TREE_VALUE +D.DD% bound B% ok
echo "=== summary over $n pair(s): $rev -> working tree ==="
cat "$out"/compare-*.txt | awk '
  function sort(a, k,   i, j, v) {
    for (i = 2; i <= k; i++) {
      v = a[i]
      for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
      a[j + 1] = v
    }
  }
  # Quantile q of the sorted a[1..k], interpolating between ranks.
  function quantile(a, k, q,   r, lo) {
    r = 1 + (k - 1) * q
    lo = int(r)
    return lo >= k ? a[k] : a[lo] + (r - lo) * (a[lo + 1] - a[lo])
  }
  function column(name, k,   i) {
    for (i = 1; i <= k; i++) col[i] = vals[key, name, i] + 0
    sort(col, k)
  }
  $4 == "->" && $7 == "bound" {
    key = $1 " " $2
    if (!(key in count)) order[++keys] = key
    k = ++count[key]
    pct = $6
    sub(/%$/, "", pct)
    vals[key, "pct", k] = pct
    vals[key, "rev", k] = $3
    vals[key, "tree", k] = $5
    if (pct + 0 < 0) down[key]++
    else if (pct + 0 > 0) up[key]++
  }
  END {
    for (o = 1; o <= keys; o++) {
      key = order[o]
      k = count[key]
      split(key, kv, " ")
      column("pct", k); med = quantile(col, k, 0.5)
      column("tree", k); tree = quantile(col, k, 0.5)
      column("rev", k); rev = quantile(col, k, 0.5)
      iqr = quantile(col, k, 0.75) - quantile(col, k, 0.25)
      printf "%-12s %-20s %+8.2f%%  %2d down %2d up %2d same  median %.6g -> %.6g  rev IQR %.3g\n",
        kv[1], kv[2], med, down[key], up[key], k - down[key] - up[key], rev, tree, iqr
    }
  }'
echo "results: $out"
exit $status
