//! `reram-ecc` — command-line front end for the arithmetic-code and
//! crossbar-reliability library.
//!
//! Subcommands:
//!
//! - `encode <A> <B> <value>` — encode a value with an A·B code.
//! - `decode <A> <B> <data_bits> <observed>` — residue, correction and
//!   detection for an observed computation result.
//! - `min-a <width>` — minimal single-error A for a coded width.
//! - `search <check_bits> [rows] [p]` — run the data-aware A search for
//!   a synthetic row-error model and print the winning table.
//! - `predict <cells_l0> <cells_l1> ...` — row error rate for a cell
//!   composition under the Table I device model.
//! - `overheads <check_bits>` — ECU area/power and tile/chip overheads.
//! - `lifetime <rewrites_per_day> <fault_rate>` — endurance lifetime.
//! - `campaign <scheme> <epochs> [flags]` — lifetime fault-injection
//!   campaign: per-epoch misclassification as stuck-at faults
//!   accumulate, with JSON checkpoints and `--resume`.
//! - `campaign-grid <spec.json> [flags]` — expand a JSON grid spec into
//!   cells (models × schemes × cell-bits × fault-rates × seeds), fan
//!   them across worker processes through the crash-safe checkpoint
//!   substrate, and merge a columnar `grid_summary.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use accel::analytic::ErrorModel;
use accel::campaign::{Campaign, CampaignConfig};
use accel::{AccelConfig, ProtectionScheme};
use ancode::data_aware::DataAwareConfig;
use ancode::{AbnCode, CorrectionPolicy, RowError, RowErrorModel};
use neural::workload::{train_or_load, Workload, MODELS};
use wideint::{I256, U256};
use xbar::endurance::EnduranceParams;
use xbar::DeviceParams;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("encode") => cmd_encode(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("min-a") => cmd_min_a(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("overheads") => cmd_overheads(&args[1..]),
        Some("lifetime") => cmd_lifetime(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("campaign-grid") => cmd_campaign_grid(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
reram-ecc — AN/ABN arithmetic codes for in-situ analog computation

usage:
  reram-ecc encode <A> <B> <value>
  reram-ecc decode <A> <B> <data_bits> <observed>
  reram-ecc min-a <coded_width>
  reram-ecc search <check_bits> [rows=9] [p_err=0.05]
  reram-ecc predict <count_level0> <count_level1> ...
  reram-ecc overheads <check_bits>
  reram-ecc lifetime <rewrites_per_day> <target_fault_rate>
  reram-ecc campaign <scheme> <epochs> [--samples N] [--train N] [--seed S]
             [--threads T] [--batch N] [--cell-bits B]
             [--model mlp1|mlp2|cnn1|alexnet]
             [--error-model analytic|mc|auto]
             [--writes-per-epoch W] [--initial-writes W]
             [--checkpoint-every K] [--remap] [--out PATH]
             [--resume | --resume-or-new]
             [--metrics PATH] [--events PATH] [--chaos-seed S]
             [--max-lost-shards N] [--watchdog-ms MS]
             [--shard-retries N]
  reram-ecc campaign-grid <spec.json> [--dir D] [--workers N]
             [--in-process] [--merge-only] [--chaos-seed S]
             [--max-lost-cells N] [--cell-retries N]
             [--watchdog-ms MS] [--events PATH]

grid campaigns (see DESIGN.md, grid campaigns; README, Grid
campaigns):
  The spec JSON lists every axis explicitly: models, schemes,
  cell_bits, writes_per_epoch, seeds, plus scalar epochs/samples/
  train/threads/checkpoint_every/initial_writes/error_model. Each
  cell is one `campaign` run; the driver spawns `reram-ecc campaign …
  --resume-or-new` workers (or threads with --in-process); a cell is
  done when its final artifact verifies, and the driver merges
  `<dir>/grid_summary.json`. SIGKILL workers or the driver at will:
  re-running the same command resumes and the merged summary is
  byte-identical to an uninterrupted run. Run one driver per
  directory. --max-lost-cells N drops at most N unrecoverable cells
  (marked cells/<id>.lost, recorded in lost_cells); --merge-only
  aggregates an already-finished directory without running anything

campaign error model (see DESIGN.md, analytic error model):
  --error-model M  mc (default): Monte-Carlo sampling, the ground
                   truth for final numbers. analytic: closed-form
                   moment propagation — milliseconds per epoch, valid
                   only without retries/remap/chaos. auto: resolves to
                   mc inside campaigns so recorded series stay
                   byte-identical. The checkpoint records the resolved
                   estimator, and --resume under another is refused

campaign throughput:
  --batch N       input vectors per MVM pass (default 1). Batching
                  amortizes each stack's RTN snapshot and row read-outs
                  across the batch; like --threads, it changes the
                  noise draws but not the estimator

campaign observability (see DESIGN.md §8):
  --metrics PATH  write a final metric snapshot (Prometheus text, or
                  JSON when PATH ends in .json)
  --events PATH   stream per-epoch/per-shard JSONL events to PATH
                  (with --resume, appends after truncating any line a
                  crash left incomplete)

campaign durability (see DESIGN.md, failure model & recovery):
  --chaos-seed S       inject the standard deterministic fault mix at
                       every I/O and worker seam, seeded by S; the
                       final results must still match a clean run
  --max-lost-shards N  graceful degradation: drop at most N failed
                       worker shards campaign-wide, recording their
                       sample ranges as explicit gaps (default 0)
  --watchdog-ms MS     deadline on each shard's evaluation loop; a
                       shard over it is killed at the next sample
                       boundary and retried seed-stable (default: no
                       deadline)
  --shard-retries N    seed-stable retries per failed shard (default 1)
";

fn parse<T: std::str::FromStr>(args: &[String], i: usize, name: &str) -> Result<T, String> {
    args.get(i)
        .ok_or_else(|| format!("missing argument <{name}>"))?
        .parse()
        .map_err(|_| format!("invalid <{name}>: {}", args[i]))
}

fn cmd_encode(args: &[String]) -> Result<(), String> {
    let a: u64 = parse(args, 0, "A")?;
    let b: u64 = parse(args, 1, "B")?;
    let value: u64 = parse(args, 2, "value")?;
    let bits = 64 - value.leading_zeros().min(63);
    let code = AbnCode::classic(a, b, bits.max(1)).map_err(|e| e.to_string())?;
    let encoded = code.encode(U256::from(value)).map_err(|e| e.to_string())?;
    println!("A·B = {}", code.multiplier());
    println!("encoded = {encoded}");
    println!("check bits = {}", code.check_bits());
    Ok(())
}

fn cmd_decode(args: &[String]) -> Result<(), String> {
    let a: u64 = parse(args, 0, "A")?;
    let b: u64 = parse(args, 1, "B")?;
    let data_bits: u32 = parse(args, 2, "data_bits")?;
    let observed: i128 = parse(args, 3, "observed")?;
    let code = AbnCode::classic(a, b, data_bits).map_err(|e| e.to_string())?;
    let out = code.decode(I256::from_i128(observed), CorrectionPolicy::Revert);
    println!("residue mod {a} = {}", observed.rem_euclid(a as i128));
    println!("status  = {}", out.status);
    println!("decoded = {}", out.value);
    Ok(())
}

fn cmd_min_a(args: &[String]) -> Result<(), String> {
    let width: u32 = parse(args, 0, "coded_width")?;
    if !(1..=200).contains(&width) {
        return Err("width must be in 1..=200".into());
    }
    println!("{}", ancode::min_single_error_a(width));
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let check_bits: u32 = parse(args, 0, "check_bits")?;
    let rows: u32 = if args.len() > 1 { parse(args, 1, "rows")? } else { 9 };
    let p: f64 = if args.len() > 2 { parse(args, 2, "p_err")? } else { 0.05 };
    if !(0.0..=1.0).contains(&p) {
        return Err("p_err must be in [0, 1]".into());
    }
    let model = RowErrorModel::new(
        (0..rows)
            .map(|r| RowError::symmetric(r * 2, p * (r + 1) as f64 / rows as f64))
            .collect(),
        16,
    );
    let result = ancode::search::select_a_full(
        check_bits,
        3,
        16,
        &DataAwareConfig::default(),
        |_| Ok(model.clone()),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "best A = {} ({} candidates, coverage {:.5})",
        result.code.a(),
        result.evaluated,
        result.coverage
    );
    print!("{}", result.code.table());
    Ok(())
}

fn cmd_predict(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err("need at least one level count".into());
    }
    let composition: Vec<u32> = args
        .iter()
        .map(|a| a.parse().map_err(|_| format!("invalid count: {a}")))
        .collect::<Result<_, _>>()?;
    let bits = (composition.len() as u32).next_power_of_two().trailing_zeros();
    let params = DeviceParams {
        bits_per_cell: bits.max(1),
        ..DeviceParams::default()
    };
    if composition.len() != params.levels() as usize {
        return Err(format!(
            "composition must have a power-of-two number of levels, got {}",
            composition.len()
        ));
    }
    let rate = xbar::rowerr::predict_composition(&composition, &params);
    println!("p_high = {:.6}", rate.p_high);
    println!("p_low  = {:.6}", rate.p_low);
    println!("p_any  = {:.6}", rate.p_any());
    Ok(())
}

fn cmd_overheads(args: &[String]) -> Result<(), String> {
    let bits: u32 = parse(args, 0, "check_bits")?;
    if !(1..=12).contains(&bits) {
        return Err("check_bits must be in 1..=12".into());
    }
    let r = accel::cost::overheads(bits);
    println!("ECU:   {:.4} mm²  {:.2} mW", r.ecu.area_mm2, r.ecu.power_mw);
    println!("table: {:.4} mm²  {:.2} mW", r.table.area_mm2, r.table.power_mw);
    println!("tile area overhead:  {:.2}%", r.tile_area_fraction * 100.0);
    println!("chip area overhead:  {:.2}%", r.chip_area_fraction * 100.0);
    println!("chip power overhead: {:.2}%", r.chip_power_fraction * 100.0);
    Ok(())
}

fn cmd_lifetime(args: &[String]) -> Result<(), String> {
    let rewrites: f64 = parse(args, 0, "rewrites_per_day")?;
    let rate: f64 = parse(args, 1, "target_fault_rate")?;
    if rewrites <= 0.0 {
        return Err("rewrites_per_day must be positive".into());
    }
    if !(0.0..1.0).contains(&rate) || rate == 0.0 {
        return Err("target_fault_rate must be in (0, 1)".into());
    }
    let params = EnduranceParams::default();
    println!(
        "writes to reach {:.3}% stuck cells: {:.3e}",
        rate * 100.0,
        params.writes_for_failure_rate(rate)
    );
    println!(
        "lifetime at {rewrites} rewrites/day: {:.1} years",
        params.lifetime_years(rewrites, rate)
    );
    Ok(())
}

/// Trains or loads `model` through the one workload recipe
/// ([`neural::workload::train_or_load`]), caching weights under
/// `results/weights/` relative to the working directory. `campaign`,
/// both `campaign-grid` launchers and the bench binaries all evaluate
/// networks from this recipe, so a grid cell's result does not depend
/// on which launcher ran it.
fn workload(model: &str, train: usize, samples: usize) -> Result<Workload, String> {
    train_or_load(model, train, samples, Path::new("results/weights"))
}

/// Runs a lifetime fault-injection campaign on a trained network.
///
/// Trains or loads `--model` (sized by `--train`; see [`workload`]),
/// then steps simulated wear forward for `<epochs>` epochs, evaluating
/// `--samples` test examples at each epoch's stuck-at fault rate. The
/// campaign state checkpoints to `--out` (default
/// `results/campaign-<scheme>.json`) after every `--checkpoint-every`
/// epochs; `--resume` continues an interrupted campaign from that file.
/// On a mid-campaign error, completed epochs are saved before exiting
/// non-zero, so partial results are never lost.
fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let scheme_label = args.first().ok_or("missing argument <scheme>")?;
    let scheme = ProtectionScheme::from_label(scheme_label).ok_or_else(|| {
        format!("unknown scheme {scheme_label} (try NoECC, Static16, Static128, ABN-7..ABN-10)")
    })?;
    let epochs: u64 = parse(args, 1, "epochs")?;

    let mut samples = 12usize;
    let mut train_n = 200usize;
    let mut seed = 7u64;
    let mut threads = 1usize;
    let mut batch = 1usize;
    let mut cell_bits = 2u32;
    let mut model = "mlp2".to_string();
    let mut error_model = ErrorModel::Mc;
    let mut writes_per_epoch = 2e5f64;
    let mut initial_writes = 1e6f64;
    let mut checkpoint_every = 1u64;
    let mut remap = false;
    let mut resume = false;
    let mut resume_or_new = false;
    let mut out: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut events: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut max_lost_shards = 0usize;
    let mut watchdog_ms = 0u64;
    let mut shard_retries = 1u32;

    let mut i = 2;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |name: &str| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag {
            "--samples" => samples = parsed(value("--samples")?, "samples")?,
            "--train" => train_n = parsed(value("--train")?, "train")?,
            "--seed" => seed = parsed(value("--seed")?, "seed")?,
            "--threads" => threads = parsed(value("--threads")?, "threads")?,
            "--batch" => batch = parsed(value("--batch")?, "batch")?,
            "--cell-bits" => cell_bits = parsed(value("--cell-bits")?, "cell-bits")?,
            "--model" => {
                model = value("--model")?.clone();
                if !MODELS.contains(&model.as_str()) {
                    return Err(format!("unknown model {model} (try {})", MODELS.join(", ")));
                }
            }
            "--error-model" => {
                let label = value("--error-model")?;
                error_model = ErrorModel::from_label(label).ok_or_else(|| {
                    format!("unknown error model {label} (try analytic, mc, auto)")
                })?;
            }
            "--writes-per-epoch" => {
                writes_per_epoch = parsed(value("--writes-per-epoch")?, "writes-per-epoch")?;
            }
            "--initial-writes" => {
                initial_writes = parsed(value("--initial-writes")?, "initial-writes")?;
            }
            "--checkpoint-every" => {
                checkpoint_every = parsed(value("--checkpoint-every")?, "checkpoint-every")?;
            }
            "--out" => out = Some(value("--out")?.clone()),
            "--metrics" => metrics = Some(value("--metrics")?.clone()),
            "--events" => events = Some(value("--events")?.clone()),
            "--chaos-seed" => {
                chaos_seed = Some(parsed(value("--chaos-seed")?, "chaos-seed")?);
            }
            "--max-lost-shards" => {
                max_lost_shards = parsed(value("--max-lost-shards")?, "max-lost-shards")?;
            }
            "--watchdog-ms" => watchdog_ms = parsed(value("--watchdog-ms")?, "watchdog-ms")?,
            "--shard-retries" => {
                shard_retries = parsed(value("--shard-retries")?, "shard-retries")?;
            }
            "--remap" => {
                remap = true;
                i += 1;
                continue;
            }
            "--resume" => {
                resume = true;
                i += 1;
                continue;
            }
            "--resume-or-new" => {
                resume_or_new = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if samples == 0 || train_n == 0 {
        return Err("--samples and --train must be positive".into());
    }
    if resume && resume_or_new {
        return Err("--resume and --resume-or-new are mutually exclusive".into());
    }
    if batch == 0 {
        return Err("--batch must be positive".into());
    }
    if !obs::enabled() && (metrics.is_some() || events.is_some()) {
        eprintln!("[campaign] note: this binary was built without metrics; --metrics/--events will record nothing");
    }
    let chaos = chaos_seed.map(chaos::ChaosSchedule::standard);
    if let Some(path) = &events {
        let p = std::path::Path::new(path);
        // On resume, append to the interrupted run's log (truncating a
        // line a crash left incomplete) instead of clobbering it.
        let opened = if resume || resume_or_new {
            obs::events::log_to_file_resume(p)
        } else {
            obs::events::log_to_file(p)
        };
        opened.map_err(|e| format!("cannot open event log {path}: {e}"))?;
        if let Some(schedule) = chaos {
            // Chaos covers the event-log seam too: inject line-write
            // faults from the same deterministic schedule.
            obs::events::set_write_fault_hook(Some(Box::new(move |index| {
                match schedule.io_fault(chaos::Seam::EventWrite, index) {
                    Some(chaos::IoFault::Error(_)) => Some(obs::events::WriteFault::Error),
                    Some(chaos::IoFault::Torn { roll }) => {
                        Some(obs::events::WriteFault::Torn { roll })
                    }
                    Some(chaos::IoFault::BitFlip { .. }) | None => None,
                }
            })));
        }
    }

    let wl = workload(&model, train_n, samples)?;

    let mut base = AccelConfig::new(scheme).with_cell_bits(cell_bits).with_batch(batch);
    base.remap = remap;
    base.watchdog_ns = watchdog_ms.saturating_mul(1_000_000);
    base.shard_retries = shard_retries;
    base.max_lost_shards = max_lost_shards;
    let mut config = CampaignConfig::new(base, epochs, seed);
    config.threads = threads;
    config.writes_per_epoch = writes_per_epoch;
    config.initial_writes = initial_writes;
    config.checkpoint_every = checkpoint_every;
    config.error_model = error_model;

    let out_path =
        PathBuf::from(out.unwrap_or_else(|| format!("results/campaign-{scheme_label}.json")));
    let mut campaign = if resume {
        Campaign::resume_with_chaos(config, &out_path, chaos).map_err(|e| e.to_string())?
    } else if resume_or_new {
        // Grid workers and other supervisors use this: resume when any
        // verifiable artifact exists, start fresh when the path is
        // empty or every artifact is corrupt (recomputable either way).
        Campaign::new_or_resume_with_chaos(config, &out_path, chaos).map_err(|e| e.to_string())?
    } else {
        let mut fresh = Campaign::new(config)
            .map_err(|e| e.to_string())?
            .with_checkpoint(out_path.clone());
        if let Some(schedule) = chaos {
            fresh = fresh.with_chaos(schedule);
        }
        fresh
    };
    if campaign.completed_epochs() > 0 {
        eprintln!(
            "[campaign] resuming after epoch {}",
            campaign.completed_epochs() - 1
        );
    }

    if let Err(e) = campaign.run(&wl.quantized, &wl.test.images, &wl.test.labels) {
        // Partial-result dump: completed epochs survive the failure.
        // The event log already holds every line up to the failure
        // (written through per event); just detach the sink.
        let _ = campaign.save_checkpoint();
        write_metrics_snapshot(metrics.as_deref());
        obs::events::stop_logging();
        eprintln!(
            "[campaign] failed after {} completed epochs; partial results in the \
             checkpoint slots next to {} (rerun with --resume)",
            campaign.completed_epochs(),
            out_path.display()
        );
        return Err(e.to_string());
    }
    // A resume that found every epoch already in the checkpoint slots
    // has nothing to run; make sure the final artifact still lands
    // (byte-identical rewrite when it already exists).
    campaign.finalize().map_err(|e| e.to_string())?;

    println!(
        "{:>5} {:>12} {:>10} {:>10} {:>8} {:>11} {:>14}",
        "epoch", "writes", "faults", "misclass", "flips", "corrected", "uncorrectable"
    );
    for r in &campaign.state().completed {
        println!(
            "{:>5} {:>12.3e} {:>9.3}% {:>9.1}% {:>7.1}% {:>11} {:>14}",
            r.epoch,
            r.writes,
            r.fault_rate * 100.0,
            r.misclassification * 100.0,
            r.flip_rate * 100.0,
            r.corrected,
            r.uncorrectable
        );
    }
    let lost_samples: u64 = campaign.state().completed.iter().map(|r| r.lost_samples).sum();
    if lost_samples > 0 {
        let gap_count: usize = campaign.state().completed.iter().map(|r| r.gaps.len()).sum();
        println!(
            "graceful degradation: {lost_samples} samples dropped across {gap_count} \
             lost shard(s); per-epoch gaps are recorded in the checkpoint"
        );
    }
    println!("checkpoint: {}", out_path.display());
    write_metrics_snapshot(metrics.as_deref());
    obs::events::stop_logging();
    if obs::enabled() {
        print_metrics_summary();
    }
    if let Some(path) = &events {
        println!("event log:  {path}");
    }
    Ok(())
}

/// Runs (or merges) a sharded campaign grid: expand the spec, fan the
/// cells across workers through the crash-safe checkpoint substrate,
/// and merge the columnar summary. Killing this driver —
/// or any of its workers — at any point is recoverable by re-running
/// the same command.
fn cmd_campaign_grid(args: &[String]) -> Result<(), String> {
    use accel::grid::{Grid, GridOptions, GridSpec, Launcher};

    let spec_path = args.first().ok_or("missing argument <spec.json>")?;
    let mut dir = PathBuf::from("results/grid");
    let mut workers = 2usize;
    let mut in_process = false;
    let mut merge_only = false;
    let mut chaos_seed: Option<u64> = None;
    let mut max_lost_cells = 0usize;
    let mut cell_retries = 2u32;
    let mut watchdog_ms = 0u64;
    let mut events: Option<String> = None;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |name: &str| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag {
            "--dir" => dir = PathBuf::from(value("--dir")?),
            "--workers" => workers = parsed(value("--workers")?, "workers")?,
            "--chaos-seed" => chaos_seed = Some(parsed(value("--chaos-seed")?, "chaos-seed")?),
            "--max-lost-cells" => {
                max_lost_cells = parsed(value("--max-lost-cells")?, "max-lost-cells")?;
            }
            "--cell-retries" => cell_retries = parsed(value("--cell-retries")?, "cell-retries")?,
            "--watchdog-ms" => watchdog_ms = parsed(value("--watchdog-ms")?, "watchdog-ms")?,
            "--events" => events = Some(value("--events")?.clone()),
            "--in-process" => {
                in_process = true;
                i += 1;
                continue;
            }
            "--merge-only" => {
                merge_only = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if workers == 0 {
        return Err("--workers must be positive".into());
    }

    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read spec {spec_path}: {e}"))?;
    let spec = GridSpec::from_json(&spec_text).map_err(|e| e.to_string())?;
    let cells = spec.cells();
    eprintln!(
        "[grid] {} cells ({} models × {} schemes × {} cell-bits × {} write rates × {} seeds), \
         {} workers{}",
        cells.len(),
        spec.models.len(),
        spec.schemes.len(),
        spec.cell_bits.len(),
        spec.writes_per_epoch.len(),
        spec.seeds.len(),
        workers,
        if in_process { " (in-process)" } else { "" }
    );

    if let Some(path) = &events {
        // The driver's own event log (grid_cell_done / grid_cell_lost /
        // chaos_fault). Always resume-opened: a
        // restarted driver appends to the history it is recovering.
        obs::events::log_to_file_resume(std::path::Path::new(path))
            .map_err(|e| format!("cannot open event log {path}: {e}"))?;
    }

    // Prepare each model once, whatever the launcher: a cold cache
    // trains here, so process workers only ever load weights. A merge
    // evaluates nothing and needs no model.
    let mut problems = std::collections::HashMap::new();
    if !merge_only {
        for model in &spec.models {
            let wl = workload(model, spec.train as usize, spec.samples as usize)?;
            eprintln!(
                "[grid] {model}: software misclassification {:.2}% over {} samples",
                wl.software_error * 100.0,
                wl.test.len()
            );
            if in_process {
                let problem = (wl.quantized, wl.test.images, wl.test.labels);
                problems.insert(model.clone(), std::sync::Arc::new(problem));
            }
        }
    }
    let launcher = if in_process {
        Launcher::InProcess { problems }
    } else {
        let program = std::env::current_exe()
            .map_err(|e| format!("cannot locate own binary for worker spawn: {e}"))?;
        Launcher::Process { program }
    };

    let options = GridOptions {
        workers,
        cell_retries,
        max_lost_cells,
        watchdog_ms,
        chaos: chaos_seed.map(chaos::ChaosSchedule::standard),
        owner: format!("driver-{}", std::process::id()),
    };
    let mut grid = Grid::new(spec, dir, launcher, options).map_err(|e| e.to_string())?;
    let report = if merge_only {
        grid.merge_only().map_err(|e| e.to_string())?
    } else {
        grid.run().map_err(|e| e.to_string())?
    };
    obs::events::stop_logging();

    println!(
        "grid: {} cell(s) done ({} already complete), {} lost",
        report.done,
        report.skipped,
        report.lost.len()
    );
    for id in &report.lost {
        println!("lost: {id}");
    }
    println!("summary: {}", report.summary_path.display());
    Ok(())
}

/// Writes the final metric snapshot to `path` (no-op without a path):
/// Prometheus text, or the JSON rendering when the path ends in
/// `.json`. Failures are reported but never fail the run — metrics are
/// diagnostics, not results.
fn write_metrics_snapshot(path: Option<&str>) {
    let Some(path) = path else {
        return;
    };
    let snap = obs::snapshot();
    let rendered = if path.ends_with(".json") {
        let mut json = snap.to_json();
        json.push('\n');
        json
    } else {
        snap.to_prometheus_text()
    };
    if let Err(e) = std::fs::write(path, rendered) {
        eprintln!("[campaign] cannot write metrics snapshot {path}: {e}");
    } else {
        println!("metrics:    {path}");
    }
}

/// Prints the end-of-run metric summary: counter totals, per-span
/// timing aggregates (count, total, p50/p99 — approximate log-bucket
/// quantiles), and unitless histogram aggregates.
fn print_metrics_summary() {
    let snap = obs::snapshot();
    if snap.counters.is_empty() && snap.series.is_empty() {
        return;
    }
    println!();
    println!("{:<24} {:>14}", "counter", "total");
    for c in &snap.counters {
        println!("{:<24} {:>14}", c.name, c.value);
    }
    let spans: Vec<_> = snap
        .series
        .iter()
        .filter(|s| s.kind == obs::SeriesKind::Span)
        .collect();
    if !spans.is_empty() {
        println!();
        println!(
            "{:<24} {:>10} {:>12} {:>10} {:>10}",
            "span", "count", "total_ms", "p50_us", "p99_us"
        );
        for s in spans {
            println!(
                "{:<24} {:>10} {:>12.3} {:>10.1} {:>10.1}",
                s.name,
                s.count,
                s.sum as f64 / 1e6,
                s.p50 as f64 / 1e3,
                s.p99 as f64 / 1e3
            );
        }
    }
    // Histograms record plain values, not nanoseconds: no unit scaling.
    let histograms: Vec<_> = snap
        .series
        .iter()
        .filter(|s| s.kind == obs::SeriesKind::Histogram)
        .collect();
    if !histograms.is_empty() {
        println!();
        println!(
            "{:<24} {:>10} {:>14} {:>10} {:>10}",
            "histogram", "count", "sum", "p50", "p99"
        );
        for s in histograms {
            println!(
                "{:<24} {:>10} {:>14} {:>10} {:>10}",
                s.name, s.count, s.sum, s.p50, s.p99
            );
        }
    }
}

/// Parses a flag value (the flag-argument counterpart of [`parse`]).
fn parsed<T: std::str::FromStr>(value: &str, name: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid <{name}>: {value}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Campaign runs share the process-global event sink; serialize the
    /// tests that actually run campaigns so one test's epochs cannot
    /// leak into another's event log.
    static CAMPAIGN_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn encode_and_decode_roundtrip() {
        assert!(cmd_encode(&s(&["19", "3", "26"])).is_ok());
        assert!(cmd_decode(&s(&["19", "3", "5", "1484"])).is_ok());
    }

    #[test]
    fn min_a_validates() {
        assert!(cmd_min_a(&s(&["9"])).is_ok());
        assert!(cmd_min_a(&s(&["0"])).is_err());
        assert!(cmd_min_a(&s(&["999"])).is_err());
    }

    #[test]
    fn search_runs() {
        assert!(cmd_search(&s(&["8"])).is_ok());
        assert!(cmd_search(&s(&["8", "6", "0.02"])).is_ok());
        assert!(cmd_search(&s(&["8", "6", "2.0"])).is_err());
    }

    #[test]
    fn predict_validates_levels() {
        assert!(cmd_predict(&s(&["32", "32", "32", "32"])).is_ok());
        assert!(cmd_predict(&s(&["32", "32", "32"])).is_err());
        assert!(cmd_predict(&s(&[])).is_err());
    }

    #[test]
    fn overheads_and_lifetime() {
        assert!(cmd_overheads(&s(&["9"])).is_ok());
        assert!(cmd_overheads(&s(&["20"])).is_err());
        assert!(cmd_lifetime(&s(&["1.0", "0.001"])).is_ok());
        assert!(cmd_lifetime(&s(&["0", "0.001"])).is_err());
        assert!(cmd_lifetime(&s(&["1.0", "1.5"])).is_err());
    }

    #[test]
    fn missing_args_reported() {
        assert!(cmd_encode(&s(&["19"])).is_err());
        assert!(cmd_decode(&s(&["19", "3"])).is_err());
    }

    #[test]
    fn campaign_validates_arguments() {
        assert!(cmd_campaign(&s(&[])).is_err());
        assert!(cmd_campaign(&s(&["BogusScheme", "2"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC", "2", "--bogus-flag"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC", "2", "--samples"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC", "2", "--samples", "0"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC", "2", "--metrics"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC", "2", "--events"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC", "2", "--batch"])).is_err());
        assert!(cmd_campaign(&s(&["NoECC", "2", "--batch", "zero"])).is_err());
        // --model takes the workload recipe's model list, checked
        // before any training work.
        let bad = cmd_campaign(&s(&["NoECC", "2", "--model", "resnet"]));
        assert!(bad.unwrap_err().contains("cnn1, alexnet"));
        // batch 0 parses but fails AccelConfig validation downstream.
        assert!(cmd_campaign(&s(&["NoECC", "2", "--batch", "0"])).is_err());
        // An unopenable event-log path fails before any training work.
        assert!(cmd_campaign(&s(&[
            "NoECC",
            "2",
            "--events",
            "/nonexistent-dir/events.jsonl"
        ]))
        .is_err());
        // --error-model accepts exactly the three documented labels.
        assert!(cmd_campaign(&s(&["NoECC", "2", "--error-model"])).is_err());
        let bad = cmd_campaign(&s(&["NoECC", "2", "--error-model", "exact"]));
        assert!(bad.unwrap_err().contains("unknown error model"));
        for label in ["analytic", "mc", "auto"] {
            assert!(ErrorModel::from_label(label).is_some(), "{label}");
        }
    }

    #[test]
    fn campaign_writes_metrics_and_events() {
        let _g = CAMPAIGN_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let pid = std::process::id();
        let out = std::env::temp_dir().join(format!("cli-campaign-obs-{pid}.json"));
        let metrics = std::env::temp_dir().join(format!("cli-campaign-obs-{pid}.prom"));
        let events = std::env::temp_dir().join(format!("cli-campaign-obs-{pid}.jsonl"));
        let (out_s, metrics_s, events_s) = (
            out.display().to_string(),
            metrics.display().to_string(),
            events.display().to_string(),
        );
        let args = [
            "NoECC", "2", "--samples", "3", "--train", "40", "--out", &out_s, "--metrics",
            &metrics_s, "--events", &events_s,
        ];
        assert_eq!(cmd_campaign(&s(&args)), Ok(()));
        // This test binary builds accel with the `obs` feature, so the
        // sinks must hold real telemetry.
        let prom = std::fs::read_to_string(&metrics).expect("metrics snapshot written");
        assert!(prom.contains("ecc_clean"), "snapshot:\n{prom}");
        assert!(prom.contains("# TYPE mvm summary"), "snapshot:\n{prom}");
        let log = std::fs::read_to_string(&events).expect("event log written");
        let epoch_lines = log
            .lines()
            .filter(|l| l.contains("\"type\":\"campaign_epoch\""))
            .count();
        assert_eq!(epoch_lines, 2, "log:\n{log}");
        assert!(log.contains("\"type\":\"shard_done\""), "log:\n{log}");
        for path in [&out, &metrics, &events] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn campaign_runs_and_resumes() {
        let _g = CAMPAIGN_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let out = std::env::temp_dir().join(format!("cli-campaign-{}.json", std::process::id()));
        let out_s = out.display().to_string();
        // Tiny run: 2 epochs, 3 samples, 40 training digits.
        let base = ["NoECC", "2", "--samples", "3", "--train", "40", "--out", &out_s];
        assert_eq!(cmd_campaign(&s(&base)), Ok(()));
        assert!(out.exists());
        // Resuming a complete campaign is a no-op that succeeds.
        let mut with_resume: Vec<&str> = base.to_vec();
        with_resume.push("--resume");
        assert_eq!(cmd_campaign(&s(&with_resume)), Ok(()));
        // Resuming under different parameters is rejected.
        let mismatched = [
            "NoECC", "2", "--samples", "3", "--train", "40", "--out", &out_s, "--resume",
            "--seed", "99",
        ];
        assert!(cmd_campaign(&s(&mismatched)).is_err());
        let _ = std::fs::remove_file(&out);
    }
}
