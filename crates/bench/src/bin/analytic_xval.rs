//! Cross-validates the analytic error model against the Monte-Carlo
//! harness on the Figure 10/11 grid and measures its speedup.
//!
//! For every cell of the committed Fig 10 and Fig 11 specs
//! (`results/specs/fig10.json`, `fig11.json`: workload × scheme ×
//! cell-bits, no faults or 0.1 % stuck-at) the cell is evaluated
//! twice: once by `accel::sim::evaluate` at the spec's seed, threads and
//! epoch-0 fault rate, exactly as the spec's one-epoch campaign runs
//! it, and once by `accel::analytic::predict`. Per-cell
//! agreement (absolute misclassification / flip-rate difference) and
//! wall-clock times land in `results/analytic_xval.json`; the summary —
//! worst-case agreement, per-cell speedup distribution — is recorded in
//! `BENCH_analytic.json` at the repo root, which EXPERIMENTS.md quotes.
//!
//! Usage: `cargo run --release -p bench --bin analytic_xval [-- --smoke]`
//! Knob: `REPRO_SAMPLES` (the specs pin training size and threads; the
//! `--gate` cell also reads `REPRO_TRAIN` and `REPRO_THREADS`).
//!
//! `--smoke` restricts the grid to MLP1 × 2-bit × {NoECC, Static16,
//! ABN-9} × both fault regimes.
//!
//! `--gate` runs the single pinned cell `scripts/check.sh` gates on —
//! MLP1 × 2-bit × ABN-9 × 0.1 % stuck-at — writes nothing, and exits
//! non-zero unless both agreement deltas stay within `GATE_TOLERANCE`.

use std::collections::HashMap;
use std::time::Instant;

use accel::grid::GridSpec;
use accel::{AccelConfig, ProtectionScheme};
use bench::{results_dir, samples, threads, workload, write_json, Workload};
use serde::Serialize;

/// The specs whose cells the grid cross-checks.
const SPECS: [&str; 2] = [
    include_str!("../../../../results/specs/fig10.json"),
    include_str!("../../../../results/specs/fig11.json"),
];

/// One grid cell's cross-validation record.
///
/// Besides the wall-clock times at the configured sample count, each
/// path is also timed on a single sample so the per-cell cost splits
/// into a one-time model/programming cost and a marginal per-sample
/// cost.  `projected_paper_cell_speedup` extrapolates both cost models
/// to the paper's 1000-sample protocol — the figure EXPERIMENTS.md
/// quotes as the per-grid-cell speedup at full fidelity.
#[derive(Serialize)]
struct XvalRow {
    network: String,
    cell_bits: u32,
    scheme: String,
    fault_rate: f64,
    samples: usize,
    mc_misclassification: f64,
    analytic_misclassification: f64,
    mc_flip_rate: f64,
    analytic_flip_rate: f64,
    abs_diff_misclassification: f64,
    abs_diff_flip_rate: f64,
    mc_ms: f64,
    analytic_ms: f64,
    speedup: f64,
    mc_marginal_ms_per_sample: f64,
    analytic_marginal_ms_per_sample: f64,
    marginal_speedup: f64,
    projected_paper_cell_speedup: f64,
}

#[derive(Serialize)]
struct Summary {
    cells: usize,
    samples_per_cell: usize,
    max_abs_diff_misclassification: f64,
    mean_abs_diff_misclassification: f64,
    max_abs_diff_flip_rate: f64,
    mean_mc_ms: f64,
    mean_analytic_ms: f64,
    min_speedup: f64,
    median_speedup: f64,
    max_speedup: f64,
    min_marginal_speedup: f64,
    median_marginal_speedup: f64,
    min_projected_paper_cell_speedup: f64,
    median_projected_paper_cell_speedup: f64,
}

/// Extrapolated per-cell cost at `samples` given a one-sample and an
/// n-sample wall time: one-time cost + marginal per-sample cost.
fn projected_ms(t1_ms: f64, tn_ms: f64, n: usize, samples: f64) -> (f64, f64) {
    let marginal = if n > 1 {
        ((tn_ms - t1_ms) / (n as f64 - 1.0)).max(0.0)
    } else {
        tn_ms / n.max(1) as f64
    };
    let one_time = (t1_ms - marginal).max(0.0);
    (marginal, one_time + marginal * samples)
}

fn xval(wl: &Workload, config: &AccelConfig, seed: u64, threads: usize) -> XvalRow {
    let mc_start = Instant::now();
    let mc = accel::sim::evaluate(
        &wl.quantized,
        &wl.test.images,
        &wl.test.labels,
        config,
        seed,
        threads,
    )
    .expect("mc evaluation failed");
    let mc_ms = mc_start.elapsed().as_secs_f64() * 1e3;

    let an_start = Instant::now();
    let an = accel::analytic::predict_threaded(
        &wl.quantized,
        &wl.test.images,
        &wl.test.labels,
        config,
        threads,
    )
    .expect("analytic prediction failed");
    let analytic_ms = an_start.elapsed().as_secs_f64() * 1e3;

    // Single-sample timings isolate the one-time cost (engine
    // programming on the MC side, model construction on the analytic
    // side) from the marginal per-sample cost.
    let dim: usize = wl.test.images.shape()[1..].iter().product();
    let one_image = neural::Tensor::from_vec(vec![1, dim], wl.test.images.data()[..dim].to_vec());
    let one_label = &wl.test.labels[..1];
    let mc1_start = Instant::now();
    accel::sim::evaluate(&wl.quantized, &one_image, one_label, config, seed, threads)
        .expect("mc single-sample evaluation failed");
    let mc1_ms = mc1_start.elapsed().as_secs_f64() * 1e3;
    let an1_start = Instant::now();
    accel::analytic::predict_threaded(&wl.quantized, &one_image, one_label, config, threads)
        .expect("analytic single-sample prediction failed");
    let an1_ms = an1_start.elapsed().as_secs_f64() * 1e3;

    const PAPER_SAMPLES: f64 = 1000.0;
    let (mc_marginal, mc_paper_ms) = projected_ms(mc1_ms, mc_ms, mc.samples, PAPER_SAMPLES);
    let (an_marginal, an_paper_ms) = projected_ms(an1_ms, analytic_ms, mc.samples, PAPER_SAMPLES);

    let row = XvalRow {
        network: wl.name.to_string(),
        cell_bits: config.device.bits_per_cell,
        scheme: config.scheme.label(),
        fault_rate: config.device.fault_rate,
        samples: mc.samples,
        mc_misclassification: mc.misclassification,
        analytic_misclassification: an.misclassification,
        mc_flip_rate: mc.flip_rate,
        analytic_flip_rate: an.flip_rate,
        abs_diff_misclassification: (mc.misclassification - an.misclassification).abs(),
        abs_diff_flip_rate: (mc.flip_rate - an.flip_rate).abs(),
        mc_ms,
        analytic_ms,
        speedup: mc_ms / analytic_ms.max(1e-9),
        mc_marginal_ms_per_sample: mc_marginal,
        analytic_marginal_ms_per_sample: an_marginal,
        marginal_speedup: mc_marginal / an_marginal.max(1e-9),
        projected_paper_cell_speedup: mc_paper_ms / an_paper_ms.max(1e-9),
    };
    eprintln!(
        "[{}] {} {}b fault {:.0e}: mc {:.3} an {:.3} (Δ {:.3}) flips mc {:.3} an {:.3} — {:.0} ms vs {:.1} ms ({:.0}x wall, {:.0}x marginal, {:.0}x @1000)",
        row.network,
        row.scheme,
        row.cell_bits,
        row.fault_rate,
        row.mc_misclassification,
        row.analytic_misclassification,
        row.abs_diff_misclassification,
        row.mc_flip_rate,
        row.analytic_flip_rate,
        row.mc_ms,
        row.analytic_ms,
        row.speedup,
        row.marginal_speedup,
        row.projected_paper_cell_speedup,
    );
    row
}

/// Agreement bound for the `--gate` cell, matching the tier-1 pin in
/// `crates/accel/tests/analytic.rs` (one 24-sample MC flip ≈ 0.042).
const GATE_TOLERANCE: f64 = 0.05;

fn main() {
    if std::env::args().any(|a| a == "--gate") {
        let wl = workload("mlp1");
        let config = AccelConfig::new(ProtectionScheme::data_aware(9))
            .with_cell_bits(2)
            .with_fault_rate(1e-3);
        let row = xval(&wl, &config, 2002, threads());
        if row.abs_diff_misclassification > GATE_TOLERANCE
            || row.abs_diff_flip_rate > GATE_TOLERANCE
        {
            eprintln!(
                "FAIL: analytic-vs-MC gate cell disagrees beyond {GATE_TOLERANCE}: \
                 |Δmis| {:.4}, |Δflip| {:.4}",
                row.abs_diff_misclassification, row.abs_diff_flip_rate,
            );
            std::process::exit(1);
        }
        println!(
            "analytic gate cell agrees: |Δmis| {:.4}, |Δflip| {:.4} (tolerance {GATE_TOLERANCE})",
            row.abs_diff_misclassification, row.abs_diff_flip_rate,
        );
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut workloads: HashMap<String, Workload> = HashMap::new();
    let mut rows: Vec<XvalRow> = Vec::new();
    for text in SPECS {
        let spec = GridSpec::from_json(text).expect("committed spec");
        for cell in spec.cells() {
            if smoke
                && (cell.model != "mlp1"
                    || cell.cell_bits != 2
                    || !matches!(cell.scheme.as_str(), "NoECC" | "Static16" | "ABN-9"))
            {
                continue;
            }
            // The spec's own network, seed, threads and epoch-0 fault
            // rate: the MC side is the cell the spec's campaign runs,
            // on the first REPRO_SAMPLES of its test set.
            let wl = workloads.entry(cell.model.clone()).or_insert_with(|| {
                neural::workload::train_or_load(
                    &cell.model,
                    spec.train as usize,
                    samples(),
                    &results_dir().join("weights"),
                )
                .unwrap_or_else(|e| panic!("workload {}: {e}", cell.model))
            });
            let campaign = spec.cell_config(&cell).expect("cell config");
            let config = campaign
                .base
                .clone()
                .with_fault_rate(campaign.fault_rate_at(0));
            rows.push(xval(wl, &config, cell.seed, spec.threads as usize));
        }
    }

    let n = rows.len() as f64;
    let mut speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    speedups.sort_by(|a, b| a.total_cmp(b));
    let mut marginal: Vec<f64> = rows.iter().map(|r| r.marginal_speedup).collect();
    marginal.sort_by(|a, b| a.total_cmp(b));
    let mut projected: Vec<f64> = rows
        .iter()
        .map(|r| r.projected_paper_cell_speedup)
        .collect();
    projected.sort_by(|a, b| a.total_cmp(b));
    let summary = Summary {
        cells: rows.len(),
        samples_per_cell: rows.first().map(|r| r.samples).unwrap_or(0),
        max_abs_diff_misclassification: rows
            .iter()
            .map(|r| r.abs_diff_misclassification)
            .fold(0.0, f64::max),
        mean_abs_diff_misclassification: rows
            .iter()
            .map(|r| r.abs_diff_misclassification)
            .sum::<f64>()
            / n,
        max_abs_diff_flip_rate: rows
            .iter()
            .map(|r| r.abs_diff_flip_rate)
            .fold(0.0, f64::max),
        mean_mc_ms: rows.iter().map(|r| r.mc_ms).sum::<f64>() / n,
        mean_analytic_ms: rows.iter().map(|r| r.analytic_ms).sum::<f64>() / n,
        min_speedup: *speedups.first().unwrap_or(&0.0),
        median_speedup: speedups.get(speedups.len() / 2).copied().unwrap_or(0.0),
        max_speedup: *speedups.last().unwrap_or(&0.0),
        min_marginal_speedup: *marginal.first().unwrap_or(&0.0),
        median_marginal_speedup: marginal.get(marginal.len() / 2).copied().unwrap_or(0.0),
        min_projected_paper_cell_speedup: *projected.first().unwrap_or(&0.0),
        median_projected_paper_cell_speedup: projected
            .get(projected.len() / 2)
            .copied()
            .unwrap_or(0.0),
    };

    println!(
        "analytic vs MC over {} cells: worst |Δmisclass| {:.4}, worst |Δflip| {:.4}, \
         median speedup {:.0}x wall / {:.0}x marginal / {:.0}x projected @1000 samples \
         (min {:.0}x wall)",
        summary.cells,
        summary.max_abs_diff_misclassification,
        summary.max_abs_diff_flip_rate,
        summary.median_speedup,
        summary.median_marginal_speedup,
        summary.median_projected_paper_cell_speedup,
        summary.min_speedup,
    );

    write_json("analytic_xval", &rows);
    let bench = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write("BENCH_analytic.json", bench + "\n").expect("write BENCH_analytic.json");
    eprintln!("wrote results/analytic_xval.json and BENCH_analytic.json");
}
