#!/bin/bash
# Regenerates every table and figure of the paper.
#
# Figures 10 and 11 and the lifetime campaign are campaign-grid specs
# (results/specs/<spec>.json). Each runs under the crash-safe grid
# driver into results/grid/<spec>/ and merges grid_summary.json there;
# re-running the script resumes an interrupted grid where it stopped.
# The specs pin samples, training size and threads, so the REPRO_*
# knobs do not touch them. The bench binaries that remain (Fig 7,
# Fig 12, Tables III/IV, resources, the analytic cross-check and the
# ablations) write results/<name>.json. Logs land in results/logs/.
set -u
mkdir -p results/logs
cargo build --release --quiet -p reram-ecc -p bench || exit 1
export REPRO_TRAIN=${REPRO_TRAIN:-8000}
status=0
for spec in fig10 fig11 lifetime; do
  echo "=== campaign-grid results/specs/$spec.json ==="
  # One cell at a time: each cell already runs the spec's threads.
  if ./target/release/reram-ecc campaign-grid "results/specs/$spec.json" \
       --dir "results/grid/$spec" --workers 1 > "results/logs/$spec.log" 2>&1; then
    echo "    done: $(date +%H:%M:%S)"
  else
    echo "    FAILED (see results/logs/$spec.log); re-run to resume"; status=1
  fi
done
run() {
  name=$1; samples=$2
  echo "=== $name (REPRO_SAMPLES=$samples) ==="
  if REPRO_SAMPLES=$samples "./target/release/$name" > "results/logs/$name.log" 2>&1; then
    echo "    done: $(date +%H:%M:%S)"
  else
    echo "    FAILED (see results/logs/$name.log)"; status=1
  fi
}
run fig7_transient ${REPRO_SAMPLES:-50}
run table3_alexnet ${REPRO_SAMPLES:-60}
run table4_overheads ${REPRO_SAMPLES:-24}
run table_resources ${REPRO_SAMPLES:-24}
run fig12_sensitivity ${REPRO_SAMPLES:-36}
run analytic_xval ${REPRO_SAMPLES:-24}
for ablation in group_size multiresidue policy remap rtn_offset table_depth; do
  run "ablation_$ablation" ${REPRO_SAMPLES:-24}
done
[ "$status" -eq 0 ] && echo "all experiments complete"
exit "$status"
