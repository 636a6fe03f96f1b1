#!/bin/bash
# Repository health gate: strict documentation build plus the tier-1
# build/test pair. Run before committing.
#
# The docs gate turns every rustdoc warning (broken intra-doc links,
# malformed examples) into an error; doctests run as part of the test
# suite, so `cargo doc` here only needs to validate, not execute.
set -eu
cd "$(dirname "$0")/.."

echo "=== docs gate (rustdoc warnings are errors) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "=== rustfmt (ratchet: listed crates must stay cargo-fmt clean) ==="
# Not every crate is rustfmt-clean yet. The crates named here are, and
# must stay so; a crate joins the list once a change formats it.
cargo fmt --check -p xbar -p wideint -p bench -p repro-chaos -p reram-ecc -p accel \
  -p neural -p repro-lint

echo "=== compiler warnings (every target of the workspace builds warning-free) ==="
warnings="$(cargo check --workspace --all-targets --quiet 2>&1 | grep '^warning:' || true)"
[ -z "$warnings" ] || { echo "FAIL: cargo check --workspace --all-targets warns:" >&2;
                        printf '%s\n' "$warnings" >&2; exit 1; }
echo "no warnings"

echo "=== release build ==="
cargo build --release --quiet

echo "=== tests ==="
cargo test -q

echo "=== vendored RNG and serde crates (keystream known answers, fill_bytes, field defaults) ==="
# third_party is excluded from the workspace, so the tier-1 run above
# never tests these crates, yet every golden is a function of their
# stream. Their own tests pin it (ChaCha8 known-answer words, the
# 8-block refill against a one-block reference, fill_bytes against
# next_u64 at every buffer offset). The serde tests pin the derive's
# `#[serde(default)]`, on which every spec, checkpoint and summary
# digest without variants depends.
cargo test -q --manifest-path third_party/rand_core/Cargo.toml --target-dir target/third_party
cargo test -q --manifest-path third_party/rand_chacha/Cargo.toml --target-dir target/third_party
cargo test -q --manifest-path third_party/serde/Cargo.toml --target-dir target/third_party

echo "=== e2ebench (own tests + traced cnn1 and mlp1 smokes) ==="
# The benchmark is its own Cargo package, not a workspace member, so
# the tier-1 run above never builds it. It calls the public xbar and
# accel kernel API directly (its traced replay must reproduce
# sim::evaluate exactly), so an API or draw-order change that breaks
# the benchmark or its replay checks fails here. Each smoke's result is
# the last line of stdout and must report no failed cell. The cnn1
# smoke runs the engine at batch 32; the mlp1 smoke (~14 s) is the only
# end-to-end check of the engine at batch 1 against sim::evaluate.
cargo test -q --offline --manifest-path e2ebench/Cargo.toml
for workload in fig10-cnn1-batched fig10-mlp1-scalar; do
  e2e_result="$(cargo run --release --quiet --offline --manifest-path e2ebench/Cargo.toml -- \
    --workload "$workload" --seconds 1 --trace 1 | tail -n 1)"
  case "$e2e_result" in
    *'"failed": 0,'*) echo "e2ebench $workload traced smoke: failed 0" ;;
    *) echo "FAIL: e2ebench $workload traced smoke reported failed cells: $e2e_result" >&2; exit 1 ;;
  esac
done

echo "=== repro-lint self-tests (lexer fixtures + CLI) ==="
# The lint tool is itself load-bearing: exercise its lexer fixtures and
# end-to-end CLI tests before trusting its verdict on the workspace.
cargo test -q -p repro-lint

echo "=== repro-lint (workspace invariants) ==="
# Syntax-aware invariant checker (see DESIGN.md "Enforced invariants"):
# call-graph panic reachability from the crash-safe entry points,
# chaos-seam coverage of durable I/O, obs schema drift at emit sites,
# plus the per-file lints (lossy casts, nondeterminism, float ==).
# Pre-existing violations live in lint-baseline.toml; any regression —
# or a stale baseline entry — fails the gate. The whole workspace
# analysis (lex + parse + call graph + lints) must stay interactive:
# more than 5 s wall means the analyzer grew an accidental
# quadratic, and the gate catches it before it becomes a habit.
lint_t0="$(date +%s%N)"
cargo run --release --quiet -p repro-lint -- check
lint_t1="$(date +%s%N)"
lint_ms=$(( (lint_t1 - lint_t0) / 1000000 ))
echo "repro-lint wall time: ${lint_ms} ms (budget 5000 ms)"
[ "$lint_ms" -lt 5000 ] || { echo "FAIL: repro-lint exceeded its 5 s budget" >&2; exit 1; }

echo "=== stale doc names (backticked types in *.md must exist in source) ==="
# Docs drift gate: every backtick-quoted CamelCase identifier mentioned
# in the top-level markdown must still name something in the Rust
# source. Catches references to renamed/removed types (e.g. the PR-2
# `MvmEngine` → `CrossbarEngine` engine rename) the moment the code
# moves on without the docs.
stale=0
for ident in $(grep -hoE '`[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*`' \
                 README.md DESIGN.md CHANGES.md EXPERIMENTS.md ROADMAP.md 2>/dev/null \
               | tr -d '`' | sort -u); do
  if ! grep -rqw "$ident" crates/ --include='*.rs'; then
    echo "FAIL: \`$ident\` is referenced in the docs but absent from crates/" >&2
    stale=1
  fi
done
[ "$stale" -eq 0 ] || exit 1
echo "doc identifiers all resolve"

echo "=== stale doc flags (README flag tables and documented commands must match the CLI) ==="
# Every backticked `--flag` in a README.md table row must still be a
# "--flag" literal the CLI parses, and every `--flag` after a `campaign`
# or `campaign-grid` subcommand on a command line (with its
# `\`-continued lines) in a fenced block of README.md, DESIGN.md or
# EXPERIMENTS.md must be one that subcommand parses: a literal inside
# `fn cmd_campaign` or `fn cmd_campaign_grid`. So a removed option
# cannot linger in the docs, nor one subcommand's flag on the other's
# command line. Only the code above main.rs's test module counts: its
# tests name removed flags.
cli_source="$(sed '/^#\[cfg(test)\]/,$d' crates/cli/src/main.rs)"
campaign_source="$(printf '%s\n' "$cli_source" | sed -n '/^fn cmd_campaign(/,/^}/p')"
campaign_grid_source="$(printf '%s\n' "$cli_source" | sed -n '/^fn cmd_campaign_grid(/,/^}/p')"
for flag in $(grep -E '^\|' README.md | grep -oE '`--[a-z0-9-]+' | tr -d '`' | sort -u); do
  if ! printf '%s\n' "$cli_source" | grep -qF -- "\"$flag\""; then
    echo "FAIL: README table documents $flag, which crates/cli/src/main.rs does not parse" >&2
    stale=1
  fi
done
command_flags="$(awk '
  /^[[:space:]]*```/ { fence = !fence; line = ""; next }
  fence {
    line = line " " $0
    if (sub(/\\[[:space:]]*(#.*)?$/, "", line)) next
    if (match(line, /(^|[[:space:]])campaign(-grid)?([[:space:]]|$)/)) {
      cmd = (substr(line, RSTART, RLENGTH) ~ /-grid/) ? "campaign-grid" : "campaign"
      rest = substr(line, RSTART + RLENGTH)
      while (match(rest, /--[a-z0-9-]+/)) {
        print FILENAME ":" cmd ":" substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
      }
    }
    line = ""
  }' README.md DESIGN.md EXPERIMENTS.md | sort -u)"
for entry in $command_flags; do
  doc="${entry%%:*}"
  cmd="${entry#*:}"
  flag="${cmd#*:}"
  cmd="${cmd%%:*}"
  if [ "$cmd" = campaign ]; then source="$campaign_source"; else source="$campaign_grid_source"; fi
  if ! printf '%s\n' "$source" | grep -qF -- "\"$flag\""; then
    echo "FAIL: $doc runs \`$cmd\` with $flag, which fn cmd_${cmd//-/_} in crates/cli/src/main.rs does not parse" >&2
    stale=1
  fi
done
[ "$stale" -eq 0 ] || exit 1
echo "doc flags all resolve"

echo "=== stale doc paths (backticked *.rs / *.sh names must be tracked files) ==="
# Every backticked `*.rs` or `*.sh` name in README.md, DESIGN.md or
# EXPERIMENTS.md must match a tracked file by path suffix (`bitslice.rs`
# matches crates/xbar/src/bitslice.rs), so a deleted or moved file
# cannot linger in the living docs. CHANGES.md and ROADMAP.md record
# history and may name files that are gone.
tracked="$(git ls-files)"
for name in $(grep -hoE '`[A-Za-z0-9_./-]+\.(rs|sh)`' README.md DESIGN.md EXPERIMENTS.md \
                | tr -d '`' | sort -u); do
  if ! printf '%s\n' "$tracked" | awk -v n="$name" \
       '$0 == n || substr($0, length($0) - length(n)) == "/" n { found = 1 } END { exit !found }'; then
    echo "FAIL: \`$name\` is named in the docs but matches no tracked file" >&2
    stale=1
  fi
done
[ "$stale" -eq 0 ] || exit 1
echo "doc paths all resolve"

echo "=== stale doc binaries (every \`--bin <name>\` must be a tracked bench binary) ==="
# Every `--bin <name>` in README.md, DESIGN.md or EXPERIMENTS.md must
# name a tracked crates/bench/src/bin/<name>.rs, so a deleted regenerator
# cannot linger in a documented command. A name holding a `<…>`
# placeholder (`ablation_<name>`) stands for a family, not a binary.
for name in $(grep -hoE -- '--bin [A-Za-z0-9_<>]+' README.md DESIGN.md EXPERIMENTS.md \
                | awk '{print $2}' | grep -v '<' | sort -u); do
  if ! printf '%s\n' "$tracked" | grep -qxF "crates/bench/src/bin/$name.rs"; then
    echo "FAIL: docs run --bin $name, but crates/bench/src/bin/$name.rs is not tracked" >&2
    stale=1
  fi
done
[ "$stale" -eq 0 ] || exit 1
echo "doc binaries all resolve"

echo "=== stale doc specs (backticked specs and ablations must be tracked) ==="
# Every backticked `results/specs/<name>.json`, and every backticked
# `ablation_<name>` (a spec or a bench binary), in README.md, DESIGN.md
# or EXPERIMENTS.md must name a tracked spec or binary, so a deleted
# experiment cannot linger in the living docs. A name holding a `<…>`
# placeholder stands for a family.
for name in $(grep -hoE '`results/specs/[A-Za-z0-9_<>-]+\.json`' README.md DESIGN.md EXPERIMENTS.md \
                | tr -d '`' | grep -v '<' | sort -u); do
  if ! printf '%s\n' "$tracked" | grep -qxF "$name"; then
    echo "FAIL: docs name $name, which is not a tracked spec" >&2
    stale=1
  fi
done
for name in $(grep -hoE '`ablation_[A-Za-z0-9_]+`' README.md DESIGN.md EXPERIMENTS.md \
                | tr -d '`' | sort -u); do
  if ! printf '%s\n' "$tracked" \
       | grep -qxE "results/specs/$name\.json|crates/bench/src/bin/$name\.rs"; then
    echo "FAIL: docs name \`$name\`, which is neither a tracked spec nor a bench binary" >&2
    stale=1
  fi
done
[ "$stale" -eq 0 ] || exit 1
echo "doc specs all resolve"

echo "=== batch equivalence smoke (batch-of-1 is mvm_into, batch-of-8 vs sequential) ==="
# The one-kernel contract of DESIGN.md §2: a single-vector call is a
# batch of one, and with noise off a batch of N equals N sequential
# calls for every scheme.
cargo test -q -p accel --test batch_equivalence

echo "=== allocation sanitizer (MVM hot path) ==="
# Counting global allocator proves CrossbarEngine::mvm_into performs
# zero heap allocations in steady state for NoECC, Static16 and ABN-9,
# and holds CrossbarArray::program to two allocations per fault-free row.
cargo test -q -p accel --features alloc-count --test alloc_free

echo "=== allocation sanitizer (metrics enabled) ==="
# The observability layer must not reintroduce allocations: counters,
# histograms and spans are thread-local Cell slots (DESIGN.md §8), so
# the same zero-allocation proof must hold with live metrics.
cargo test -q -p accel --features alloc-count,obs --test alloc_free

echo "=== obs overhead gate (metrics-enabled MVM bench vs baseline) ==="
# Runs the engine bench with live metrics and compares the ABN-9 MVM
# mean against the recorded uninstrumented baseline (BENCH_engine.json,
# regenerated on this machine by scripts/bench_baseline.sh). More than
# 5% regression fails: the per-MVM instrumentation is a handful of
# thread-local counter bumps and must stay in the noise. Scheduler
# noise on a shared machine only ever *inflates* a run, so the gate
# takes the best of up to three attempts before failing.
# Exact-name match: the batched rows (mvm_16x128_ABN-9_b8/_b32) share
# the prefix, so a substring pattern would pick up the wrong row.
base_ns="$(awk -F'"mean_ns":' '/"name":"mvm_16x128_ABN-9",/ {split($2, a, ","); print a[1]}' BENCH_engine.json)"
obs_gate_ok=""
for attempt in 1 2 3; do
  obs_json="$(mktemp)"
  CRITERION_JSON="$obs_json" cargo bench -q -p bench --features obs --bench engine > /dev/null
  obs_ns="$(awk -F'"mean_ns":' '/"mvm_16x128_ABN-9"/ {split($2, a, ","); print a[1]}' "$obs_json")"
  rm -f "$obs_json"
  if awk -v base="$base_ns" -v with="$obs_ns" -v attempt="$attempt" 'BEGIN {
    if (base == "" || with == "") {
      print "FAIL: missing mvm_16x128_ABN-9 result (baseline or metrics run)" > "/dev/stderr"
      exit 1
    }
    printf "mvm_16x128_ABN-9 attempt %s: baseline %.0f ns, with metrics %.0f ns (%+.1f%%)\n",
           attempt, base, with, (with / base - 1) * 100
    exit !(with <= base * 1.05)
  }'; then
    obs_gate_ok=1
    break
  fi
done
if [ -z "$obs_gate_ok" ]; then
  echo "FAIL: metrics-enabled MVM regressed more than 5% vs BENCH_engine.json on 3 attempts" >&2
  exit 1
fi

echo "=== analytic-vs-MC smoke (pinned grid cell, DESIGN.md §11) ==="
# The analytic error model must keep agreeing with the Monte-Carlo
# harness on the pinned Fig 11 cell (MLP1 × 2-bit × ABN-9 × 0.1 %
# stuck-at) within the tolerance the tier-1 test pins (0.05). 8 samples
# keep the gate interactive; the recorded full smoke grid lives in
# BENCH_analytic.json.
REPRO_SAMPLES=8 cargo run --release --quiet -p bench --bin analytic_xval -- --gate
echo "analytic smoke passed"

# The CLI smokes below run in scratch directories: the CLI caches
# trained weights under results/weights/ relative to its working
# directory, and a smoke-sized network must not land in the repo's.
cli="$PWD/target/release/reram-ecc"

echo "=== campaign and chaos smoke (one spec cell; a worker panic fails it; a clean rerun matches) ==="
# `campaign` runs one cell of a grid spec, exactly as a campaign-grid
# process worker does. Deterministic chaos (see crates/chaos +
# DESIGN.md "Failure model & recovery"): --chaos-seed injects seeded
# faults at every checkpoint / final-write / event seam plus mid-shard
# worker panics. The I/O faults are absorbed (CRC'd A/B checkpoint
# slots, retries, read-back-verified final write). A worker panic is
# not retried in-process: the campaign exits non-zero naming the shard,
# its finished epochs stay in the slots, and rerunning the same command
# without chaos must finish byte-identical to the clean run. Seed 4
# panics shard 0 of epoch 1, after epoch 0 landed. campaign-grid
# retries such a cell by itself (grid smoke below). The seed is
# pinned, so the fault script replays bit-for-bit.
chaos_dir="$(mktemp -d)"
cat > "$chaos_dir/spec.json" <<'EOF'
{
  "version": 1,
  "models": ["mlp2"],
  "schemes": ["NoECC"],
  "cell_bits": [2],
  "writes_per_epoch": [200000.0],
  "seeds": [7],
  "epochs": 2,
  "samples": 3,
  "train": 40,
  "threads": 1,
  "checkpoint_every": 1,
  "initial_writes": 1000000.0,
  "error_model": "mc"
}
EOF
cell=000_mlp2_NoECC_2b_w200000_s7
(cd "$chaos_dir" && "$cli" campaign spec.json --dir clean > /dev/null)
test -s "$chaos_dir/clean/cells/$cell.json" \
  || { echo "FAIL: campaign smoke wrote no cell artifact" >&2; exit 1; }
if (cd "$chaos_dir" && "$cli" campaign spec.json --dir chaos --chaos-seed 4 \
  > /dev/null 2> chaos.err); then
  echo "FAIL: chaos seed 4 should fail the campaign on a worker panic" >&2; exit 1
fi
grep -q "worker shard 0 .*injected worker panic" "$chaos_dir/chaos.err" \
  || { echo "FAIL: the chaos failure does not name the panicking shard:" >&2;
       cat "$chaos_dir/chaos.err" >&2; exit 1; }
(cd "$chaos_dir" && "$cli" campaign spec.json --dir chaos > /dev/null)
cmp "$chaos_dir/clean/cells/$cell.json" "$chaos_dir/chaos/cells/$cell.json" \
  || { echo "FAIL: resumed chaos campaign diverged from the clean run" >&2; exit 1; }
rm -rf "$chaos_dir"
echo "campaign and chaos smoke passed"

echo "=== spec refusal smoke (a cell config no campaign accepts fails the spec before training) ==="
# A spec is valid when every cell's CampaignConfig::validate passes
# (DESIGN.md §9.4), so 6-bit cells are refused by the spec check under
# either launcher: a non-zero exit naming cell_bits, before any model
# trains (no `training on` line) or any cell directory is made.
refuse_dir="$(mktemp -d)"
cat > "$refuse_dir/spec.json" <<'EOF'
{
  "version": 1,
  "models": ["mlp2"],
  "schemes": ["NoECC"],
  "cell_bits": [6],
  "writes_per_epoch": [200000.0],
  "seeds": [7],
  "epochs": 2,
  "samples": 3,
  "train": 40,
  "threads": 1,
  "checkpoint_every": 1,
  "initial_writes": 1000000.0,
  "error_model": "mc"
}
EOF
for launcher in "" --in-process; do
  if (cd "$refuse_dir" && "$cli" campaign-grid spec.json --dir grid $launcher \
    > out.txt 2> err.txt); then
    echo "FAIL: campaign-grid $launcher accepted a spec with 6-bit cells" >&2; exit 1
  fi
  grep -q "cell_bits" "$refuse_dir/err.txt" \
    || { echo "FAIL: the refusal does not name cell_bits:" >&2; cat "$refuse_dir/err.txt" >&2; exit 1; }
  if grep -q "training on" "$refuse_dir/out.txt" "$refuse_dir/err.txt" \
    || [ -e "$refuse_dir/grid/cells" ]; then
    echo "FAIL: campaign-grid $launcher trained or laid out cells before refusing the spec" >&2; exit 1
  fi
done
rm -rf "$refuse_dir"
echo "spec refusal smoke passed"

echo "=== grid smoke (campaign-grid, SIGKILL worker + driver, resume, byte-compare) ==="
# The grid runner's kill-anything contract (DESIGN.md "Failure model &
# recovery"): a sharded sweep whose worker AND driver are SIGKILLed
# mid-run under chaos seed 7, then resumed with the same command line,
# merges a grid_summary.json byte-identical to an uninterrupted
# fault-free run. Run the binary directly so worker/driver PIDs are
# real kill targets.
grid_dir="$(mktemp -d)"
grid_bin="$cli"
cd "$grid_dir"
cat > "$grid_dir/spec.json" <<'EOF'
{
  "version": 1,
  "models": ["mlp2"],
  "schemes": ["NoECC", "ABN-9"],
  "cell_bits": [2],
  "writes_per_epoch": [200000.0],
  "seeds": [41],
  "epochs": 3,
  "samples": 16,
  "train": 300,
  "threads": 1,
  "checkpoint_every": 1,
  "initial_writes": 1000000.0,
  "error_model": "mc"
}
EOF
"$grid_bin" campaign-grid "$grid_dir/spec.json" --dir "$grid_dir/clean" \
  --workers 2 > /dev/null 2>&1
# Interrupted run: SIGKILL the first worker that appears (a worker's
# argv is `campaign <spec> <cell-id> --dir <dir>`; the driver's starts
# with `campaign-grid`), then SIGKILL the driver while cells are still
# in flight.
"$grid_bin" campaign-grid "$grid_dir/spec.json" --dir "$grid_dir/chaos" \
  --workers 2 --chaos-seed 7 --cell-retries 6 --max-lost-cells 0 \
  > /dev/null 2>&1 &
grid_pid=$!
worker_pid=""
for _ in $(seq 1 1200); do
  for p in /proc/[0-9]*/cmdline; do
    argv="$(tr '\0' ' ' < "$p" 2> /dev/null)" || continue
    if [[ "$argv" == *" campaign $grid_dir/spec.json "*" --dir $grid_dir/chaos "* ]]; then
      worker_pid="${p#/proc/}"
      worker_pid="${worker_pid%/cmdline}"
      break 2
    fi
  done
  kill -0 "$grid_pid" 2> /dev/null \
    || { echo "FAIL: grid driver exited before a worker could be killed" >&2; exit 1; }
  sleep 0.05
done
[ -n "$worker_pid" ] || { echo "FAIL: no grid worker appeared to kill" >&2; exit 1; }
kill -9 "$worker_pid" 2> /dev/null || true
sleep 0.2
kill -9 "$grid_pid" 2> /dev/null || true
wait "$grid_pid" 2> /dev/null || true
# Resume with the same command line: cells whose final artifact
# verifies are skipped, the killed cell resumes from its checkpoint slots.
"$grid_bin" campaign-grid "$grid_dir/spec.json" --dir "$grid_dir/chaos" \
  --workers 2 --chaos-seed 7 --cell-retries 6 --max-lost-cells 0 \
  > /dev/null 2>&1
cmp "$grid_dir/clean/grid_summary.json" "$grid_dir/chaos/grid_summary.json" \
  || { echo "FAIL: grid summary after SIGKILL+resume diverged from the clean run" >&2; exit 1; }
cd - > /dev/null
rm -rf "$grid_dir"
echo "grid smoke passed"

echo "all checks passed"
