#!/bin/bash
# Records the criterion benchmark baseline as machine-readable JSON.
#
# Runs the bench crate's criterion benches (codes, crossbar, engine by
# default; pass bench names to run a subset) and writes one JSON-lines
# file per bench at the repo root: BENCH_<name>.json, one object per
# benchmark with mean/median/min nanoseconds and the sampling plan.
# The vendored criterion stand-in (third_party/criterion) appends a line
# per benchmark when CRITERION_JSON is set; this script truncates each
# file first so reruns replace the baseline instead of growing it.
#
# BENCH_engine.json is committed: it is the reference the performance
# model in DESIGN.md §2 and any future hot-path change compare against.
# Regenerate it on the target machine before and after kernel changes —
# absolute numbers are machine-specific, only ratios are meaningful.
set -eu
cd "$(dirname "$0")/.."

benches=${*:-codes crossbar engine}
for b in $benches; do
  out="$PWD/BENCH_${b}.json"
  : > "$out"
  echo "=== bench $b -> BENCH_${b}.json ==="
  CRITERION_JSON="$out" cargo bench -q -p bench --bench "$b"
done

# Per-vector summary of the engine rows: the batched benches
# (mvm_16x128_<scheme>_b8/_b32) time one whole batched pass, so divide
# by the batch to compare against the single-vector rows directly.
case " $benches " in *" engine "*)
  echo "=== engine per-vector summary (batched rows divided by batch) ==="
  awk '
    /"name":"mvm_16x128_/ {
      split($0, n, "\""); name = n[4]
      split($0, m, /"mean_ns":/); split(m[2], a, ","); mean = a[1]
      batch = 1
      if (match(name, /_b[0-9]+$/)) batch = substr(name, RSTART + 2) + 0
      printf "  %-26s %14.1f ns/pass %14.1f ns/vector\n", name, mean, mean / batch
    }
  ' BENCH_engine.json
  ;;
esac
