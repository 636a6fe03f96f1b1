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
//! - `campaign <spec.json> [cell-id] [flags]` — run one cell of a grid
//!   spec: a lifetime fault-injection campaign (per-epoch
//!   misclassification as stuck-at faults accumulate) that resumes
//!   whatever of its checkpoint verifies. The grid's process workers
//!   run exactly this.
//! - `campaign-grid <spec.json> [flags]` — expand a JSON grid spec into
//!   cells (models × schemes × cell-bits × fault-rates × seeds), fan
//!   them across worker processes through the crash-safe checkpoint
//!   substrate, and merge a columnar `grid_summary.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use accel::grid::{self, GridSpec};
use ancode::data_aware::DataAwareConfig;
use ancode::{AbnCode, CorrectionPolicy, RowError, RowErrorModel};
use neural::workload::{train_or_load, Workload};
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
  reram-ecc campaign <spec.json> [<cell-id>] [--dir D] [--metrics PATH]
             [--chaos-seed S]
  reram-ecc campaign-grid <spec.json> [--dir D] [--workers N]
             [--in-process] [--merge-only] [--chaos-seed S]
             [--max-lost-cells N] [--cell-retries N]
             [--watchdog-ms MS] [--events PATH]

grid specs (see DESIGN.md, grid campaigns; README, Grid campaigns):
  The spec JSON lists every axis explicitly: models, schemes,
  cell_bits, writes_per_epoch, seeds, plus scalar epochs/samples/
  train/threads/checkpoint_every/initial_writes/error_model
  (mc or analytic), and optionally variants: a list of
  {name, set: {KNOB: VALUE, ...}}, the innermost axis. The knobs are
  device.rlo_delta_r, device.rtn_state_probability,
  device.rtn_offset, policy (revert or keep-corrected), max_retries,
  group_operands, error_list.max_rows_per_event and remap.

campaign: run one cell of a spec
  Runs the cell named <cell-id> (the spec's only cell when omitted)
  in the grid directory D (default results/grid): final artifact
  D/cells/<id>.json, its .a/.b checkpoint slots, and the event log
  D/cells/<id>.events.jsonl. It pins D/manifest.json to the spec and
  always resumes whatever of the cell verifies, so re-running the
  same command after a failure or a kill finishes byte-identical to
  a clean run. campaign-grid's process workers run exactly this.
  --metrics PATH   write a final metric snapshot (Prometheus text, or
                   JSON when PATH ends in .json)
  --chaos-seed S   inject the standard deterministic fault mix at
                   every I/O and worker seam, seeded by S. I/O faults
                   are absorbed; an injected worker panic fails the
                   run naming the shard, and a rerun without chaos
                   finishes it

campaign-grid: run every cell of a spec
  The driver spawns one `campaign` worker per cell attempt (or a
  thread with --in-process); a cell is done when its final artifact
  verifies, and the driver merges D/grid_summary.json. SIGKILL
  workers or the driver at will: re-running the same command resumes
  and the merged summary is byte-identical to an uninterrupted run.
  Run one driver per directory. --max-lost-cells N drops at most N
  unrecoverable cells (marked cells/<id>.lost, recorded in
  lost_cells); --merge-only aggregates an already-finished directory
  without running anything
";

/// The grid directory `campaign` and `campaign-grid` use without
/// `--dir`.
const DEFAULT_DIR: &str = "results/grid";

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
    let rows: u32 = if args.len() > 1 {
        parse(args, 1, "rows")?
    } else {
        9
    };
    let p: f64 = if args.len() > 2 {
        parse(args, 2, "p_err")?
    } else {
        0.05
    };
    if !(0.0..=1.0).contains(&p) {
        return Err("p_err must be in [0, 1]".into());
    }
    let model = RowErrorModel::new(
        (0..rows)
            .map(|r| RowError::symmetric(r * 2, p * (r + 1) as f64 / rows as f64))
            .collect(),
        16,
    );
    let result =
        ancode::search::select_a_full(check_bits, 3, 16, &DataAwareConfig::default(), |_| {
            Ok(model.clone())
        })
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
    let bits = (composition.len() as u32)
        .next_power_of_two()
        .trailing_zeros();
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
    println!(
        "table: {:.4} mm²  {:.2} mW",
        r.table.area_mm2, r.table.power_mw
    );
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

/// Reads and validates the grid spec at `path`.
fn read_spec(path: &str) -> Result<GridSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    GridSpec::from_json(&text).map_err(|e| e.to_string())
}

/// Runs one cell of a grid spec: the campaign a `campaign-grid`
/// process worker runs, through [`accel::grid::worker::run_cell`].
///
/// Pins the grid directory's manifest to the spec, opens the cell's
/// event log (appending after a crash-truncated line), trains or loads
/// the cell's model (see [`workload`]), then resumes whatever of the
/// cell's checkpoint verifies and runs the remaining epochs. On a
/// mid-campaign error the finished epochs stay in the checkpoint
/// slots, and re-running the same command resumes them.
fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let spec_path = args.first().ok_or("missing argument <spec.json>")?;
    let mut cell_id: Option<&str> = None;
    let mut dir = PathBuf::from(DEFAULT_DIR);
    let mut metrics: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |name: &str| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag {
            "--dir" => dir = PathBuf::from(value("--dir")?),
            "--metrics" => metrics = Some(value("--metrics")?.clone()),
            "--chaos-seed" => chaos_seed = Some(parsed(value("--chaos-seed")?, "chaos-seed")?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            id if cell_id.is_none() => {
                cell_id = Some(id);
                i += 1;
                continue;
            }
            extra => return Err(format!("unexpected argument {extra}")),
        }
        i += 2;
    }

    let spec = read_spec(spec_path)?;
    let cell = spec.cell(cell_id).map_err(|e| e.to_string())?;
    grid::pin_manifest(&spec, &dir).map_err(|e| e.to_string())?;
    let events = grid::events_path(&dir, &cell);
    // Append to an interrupted attempt's log, truncating a line a
    // crash left incomplete.
    obs::events::log_to_file_resume(&events)
        .map_err(|e| format!("cannot open event log {}: {e}", events.display()))?;
    let chaos = chaos_seed.map(chaos::ChaosSchedule::standard);
    if let Some(schedule) = chaos {
        // Chaos covers the event-log seam too: inject line-write
        // faults from the same deterministic schedule.
        obs::events::set_write_fault_hook(Some(Box::new(move |index| {
            match schedule.io_fault(chaos::Seam::EventWrite, index) {
                Some(chaos::IoFault::Error(_)) => Some(obs::events::WriteFault::Error),
                Some(chaos::IoFault::Torn { roll }) => Some(obs::events::WriteFault::Torn { roll }),
                Some(chaos::IoFault::BitFlip { .. }) | None => None,
            }
        })));
    }

    let wl = workload(&cell.model, spec.train as usize, spec.samples as usize)?;
    let problem = (wl.quantized, wl.test.images, wl.test.labels);
    let outcome = grid::worker::run_cell(&spec, &cell, &dir, &problem, chaos);
    write_metrics_snapshot(metrics.as_deref());
    obs::events::stop_logging();
    let artifact = grid::artifact_path(&dir, &cell);
    let state = outcome.map_err(|e| {
        eprintln!(
            "[campaign] cell {} failed; its finished epochs stay in the checkpoint slots \
             next to {} (rerun the same command to resume)",
            cell.id,
            artifact.display()
        );
        e.to_string()
    })?;

    println!(
        "{:>5} {:>12} {:>10} {:>10} {:>8} {:>11} {:>14}",
        "epoch", "writes", "faults", "misclass", "flips", "corrected", "uncorrectable"
    );
    for r in &state.completed {
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
    println!("artifact:   {}", artifact.display());
    println!("event log:  {}", events.display());
    print_metrics_summary();
    Ok(())
}

/// Runs (or merges) a sharded campaign grid: expand the spec, fan the
/// cells across workers through the crash-safe checkpoint substrate,
/// and merge the columnar summary. Killing this driver —
/// or any of its workers — at any point is recoverable by re-running
/// the same command.
fn cmd_campaign_grid(args: &[String]) -> Result<(), String> {
    use accel::grid::{Grid, GridOptions, Launcher};

    let spec_path = args.first().ok_or("missing argument <spec.json>")?;
    let mut dir = PathBuf::from(DEFAULT_DIR);
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

    let spec = read_spec(spec_path)?;
    let cells = spec.cells();
    eprintln!(
        "[grid] {} cells ({} models × {} schemes × {} cell-bits × {} write rates × {} seeds \
         × {} variants), {} workers{}",
        cells.len(),
        spec.models.len(),
        spec.schemes.len(),
        spec.cell_bits.len(),
        spec.writes_per_epoch.len(),
        spec.seeds.len(),
        spec.variants.len().max(1),
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
            let mut wl = workload(model, spec.train as usize, spec.samples as usize)?;
            eprintln!(
                "[grid] {model}: software misclassification {:.2}% (top-5 {:.2}%) over {} samples",
                wl.software_error * 100.0,
                software_top5_error(&mut wl) * 100.0,
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
        Launcher::Process {
            program,
            spec: PathBuf::from(spec_path),
        }
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

/// Top-5 misclassification of the float network on its test set, one
/// example at a time: with [`Workload::software_error`], Table III's
/// Software row.
fn software_top5_error(wl: &mut Workload) -> f64 {
    let shape = wl.test.images.shape();
    let per = shape[1..].iter().product::<usize>();
    let mut misses = 0usize;
    for (i, &label) in wl.test.labels.iter().enumerate() {
        let mut one = shape.to_vec();
        one[0] = 1;
        let image =
            neural::Tensor::from_vec(one, wl.test.images.data()[i * per..(i + 1) * per].to_vec());
        let logits = wl.network.forward(&image);
        let top = neural::Tensor::from_vec(vec![logits.len()], logits.into_data()).top_k(5);
        misses += usize::from(!top.contains(&label));
    }
    misses as f64 / wl.test.len() as f64
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

    /// A one-cell spec: 2 epochs of NoECC on mlp2, 3 samples, 40
    /// training digits, seed `seed`.
    fn tiny_spec(seed: u64) -> String {
        format!(
            r#"{{"version": 1, "models": ["mlp2"], "schemes": ["NoECC"], "cell_bits": [2],
"writes_per_epoch": [200000.0], "seeds": [{seed}], "epochs": 2, "samples": 3, "train": 40,
"threads": 1, "checkpoint_every": 1, "initial_writes": 1000000.0, "error_model": "mc"}}"#
        )
    }

    /// A fresh scratch directory holding `tiny_spec(seed)` as
    /// `spec.json`; returns the directory and the spec path.
    fn scratch(name: &str, seed: u64) -> (PathBuf, String) {
        let dir = std::env::temp_dir().join(format!("cli-campaign-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = dir.join("spec.json");
        std::fs::write(&spec, tiny_spec(seed)).expect("write spec");
        (dir, spec.display().to_string())
    }

    #[test]
    fn campaign_validates_arguments() {
        let (dir, spec) = scratch("args", 7);
        let grid = dir.join("grid").display().to_string();
        let run = |extra: &[&str]| {
            let mut args = vec![spec.as_str()];
            args.extend(extra);
            cmd_campaign(&s(&args)).unwrap_err()
        };
        assert!(cmd_campaign(&s(&[])).unwrap_err().contains("<spec.json>"));
        let missing = dir.join("missing.json").display().to_string();
        assert!(cmd_campaign(&s(&[&missing]))
            .unwrap_err()
            .contains("cannot read spec"));
        assert!(run(&["--dir"]).contains("needs a value"));
        assert!(run(&["--metrics"]).contains("needs a value"));
        assert!(run(&["--chaos-seed", "x"]).contains("invalid"));
        assert!(run(&["a", "b"]).contains("unexpected argument b"));
        assert!(run(&["no-such-cell", "--dir", &grid]).contains("no cell no-such-cell"));
        // Everything about a cell comes from its spec: the flags that
        // used to set it, and the shard-supervisor flags before them,
        // are refused.
        for flag in [
            "--samples",
            "--train",
            "--seed",
            "--threads",
            "--batch",
            "--cell-bits",
            "--model",
            "--error-model",
            "--writes-per-epoch",
            "--initial-writes",
            "--checkpoint-every",
            "--set",
            "--out",
            "--events",
            "--resume",
            "--resume-or-new",
            "--shard-retries",
            "--watchdog-ms",
            "--max-lost-shards",
        ] {
            let refused = run(&[flag, "1"]);
            assert!(
                refused.contains(&format!("unknown flag {flag}")),
                "{refused}"
            );
        }
        // A spec with more than one cell needs a cell id.
        let two = tiny_spec(7).replace("[\"NoECC\"]", "[\"NoECC\", \"ABN-9\"]");
        std::fs::write(&spec, two).expect("write spec");
        assert!(run(&["--dir", &grid]).contains("has 2 cells; name one"));
        // The directory is pinned to the spec that first ran in it.
        std::fs::write(&spec, tiny_spec(7)).expect("write spec");
        let cell = GridSpec::from_json(&tiny_spec(7)).expect("spec").cells()[0]
            .id
            .clone();
        accel::grid::pin_manifest(&read_spec(&spec).expect("spec"), &dir.join("grid"))
            .expect("pin");
        std::fs::write(&spec, tiny_spec(8)).expect("write spec");
        let other = GridSpec::from_json(&tiny_spec(8)).expect("spec").cells()[0]
            .id
            .clone();
        assert_ne!(cell, other);
        assert!(run(&[&other, "--dir", &grid]).contains("refusing to mix two sweeps"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_writes_metrics_and_events() {
        let _g = CAMPAIGN_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let (dir, spec) = scratch("obs", 7);
        let grid = dir.join("grid");
        let metrics = dir.join("metrics.prom");
        let args = [
            spec.as_str(),
            "--dir",
            &grid.display().to_string(),
            "--metrics",
            &metrics.display().to_string(),
        ]
        .map(String::from);
        assert_eq!(cmd_campaign(&args), Ok(()));
        // This test binary builds accel with the `obs` feature, so the
        // sinks must hold real telemetry.
        let prom = std::fs::read_to_string(&metrics).expect("metrics snapshot written");
        assert!(prom.contains("ecc_clean"), "snapshot:\n{prom}");
        assert!(prom.contains("# TYPE mvm summary"), "snapshot:\n{prom}");
        let cell = read_spec(&spec).expect("spec").cell(None).expect("cell");
        let log = std::fs::read_to_string(grid::events_path(&grid, &cell)).expect("event log");
        let epoch_lines = log
            .lines()
            .filter(|l| l.contains("\"type\":\"campaign_epoch\""))
            .count();
        assert_eq!(epoch_lines, 2, "log:\n{log}");
        assert!(log.contains("\"type\":\"shard_done\""), "log:\n{log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_runs_and_resumes() {
        let _g = CAMPAIGN_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        let (dir, spec) = scratch("run", 7);
        let grid = dir.join("grid").display().to_string();
        let args = s(&[&spec, "--dir", &grid]);
        assert_eq!(cmd_campaign(&args), Ok(()));
        let cell = read_spec(&spec).expect("spec").cell(None).expect("cell");
        let artifact = grid::artifact_path(Path::new(&grid), &cell);
        let done = std::fs::read(&artifact).expect("artifact written");
        // Re-running a complete cell resumes it: nothing to run, and
        // the artifact's bytes do not move.
        assert_eq!(cmd_campaign(&args), Ok(()));
        assert_eq!(std::fs::read(&artifact).expect("artifact"), done);
        // Another seed is another sweep, refused in this directory.
        std::fs::write(&spec, tiny_spec(99)).expect("write spec");
        assert!(cmd_campaign(&args).unwrap_err().contains("refusing to mix"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
