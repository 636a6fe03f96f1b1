//! Shared experiment harness for the table/figure regenerators.
//!
//! Every binary in `src/bin/` reproduces one table, figure or ablation
//! of the paper (see DESIGN.md §2 for the index; Figures 10 and 11 and
//! the lifetime campaign are `campaign-grid` specs under
//! `results/specs/` instead). This library holds what the binaries
//! share: the environment knobs, the workload recipe sized by them,
//! the scheme grid, and JSON emission into `results/`.
//!
//! # Environment knobs
//!
//! - `REPRO_SAMPLES` — Monte-Carlo test examples per configuration
//!   (default 24; the paper uses 1000 — set `REPRO_SAMPLES=1000` for a
//!   full run).
//! - `REPRO_THREADS` — worker threads (default: available parallelism).
//! - `REPRO_TRAIN` — training examples per workload (default 4000).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Instant;

use accel::{AccelConfig, ProtectionScheme};
use serde::Serialize;

pub use neural::workload::Workload;

/// Monte-Carlo samples per configuration.
pub fn samples() -> usize {
    std::env::var("REPRO_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Worker thread count.
pub fn threads() -> usize {
    std::env::var("REPRO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Training-set size per workload.
pub fn train_size() -> usize {
    std::env::var("REPRO_TRAIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000)
}

/// Directory where regenerators drop JSON results.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a JSON result artifact.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, json).expect("write result file");
    println!("[results] wrote {}", path.display());
}

/// Trains (or loads from `results/weights/`) one of the evaluated
/// workloads through [`neural::workload::train_or_load`], sized by the
/// `REPRO_TRAIN` and `REPRO_SAMPLES` knobs.
///
/// # Panics
///
/// Panics on an unknown workload or an unwritable weight cache — the
/// regenerator binaries treat those as fatal.
pub fn workload(name: &str) -> Workload {
    neural::workload::train_or_load(name, train_size(), samples(), &results_dir().join("weights"))
        .unwrap_or_else(|e| panic!("workload {name}: {e}"))
}

/// The scheme grid of Figures 10 and 11, in legend order.
pub fn figure_schemes() -> Vec<ProtectionScheme> {
    vec![
        ProtectionScheme::None,
        ProtectionScheme::Static16,
        ProtectionScheme::Static128,
        ProtectionScheme::data_aware(7),
        ProtectionScheme::data_aware(8),
        ProtectionScheme::data_aware(9),
        ProtectionScheme::data_aware(10),
    ]
}

/// One evaluated configuration's result row.
#[derive(Debug, Clone, Serialize)]
pub struct ResultRow {
    /// Workload name.
    pub network: String,
    /// Bits per cell.
    pub cell_bits: u32,
    /// Scheme legend label.
    pub scheme: String,
    /// Top-1 misclassification rate.
    pub misclassification: f64,
    /// Top-5 misclassification rate.
    pub top5: f64,
    /// Fraction of predictions flipped relative to exact fixed point.
    pub flip_rate: f64,
    /// Samples evaluated.
    pub samples: usize,
    /// ECU decode error rate (fraction of non-clean group-cycles).
    pub decode_error_rate: f64,
}

/// Evaluates one scheme × cell-bits configuration of a workload.
///
/// # Panics
///
/// Panics on evaluation errors (bad config, repeated worker panic) —
/// the regenerator binaries treat those as fatal.
pub fn evaluate_config(workload: &Workload, config: &AccelConfig, seed: u64) -> ResultRow {
    let started = Instant::now();
    let result = accel::sim::evaluate(
        &workload.quantized,
        &workload.test.images,
        &workload.test.labels,
        config,
        seed,
        threads(),
    )
    .expect("evaluation failed");
    eprintln!(
        "[{}] {} {}b: misclass {:.3} flips {:.3} ({} samples, {:.1?})",
        workload.name,
        config.scheme.label(),
        config.device.bits_per_cell,
        result.misclassification,
        result.flip_rate,
        result.samples,
        started.elapsed()
    );
    ResultRow {
        network: workload.name.to_string(),
        cell_bits: config.device.bits_per_cell,
        scheme: config.scheme.label(),
        misclassification: result.misclassification,
        top5: result.top5_misclassification,
        flip_rate: result.flip_rate,
        samples: result.samples,
        decode_error_rate: result.stats.error_rate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        assert!(samples() >= 1);
        assert!(threads() >= 1);
        assert!(train_size() >= 1);
    }

    #[test]
    fn scheme_grid_matches_figures() {
        let schemes = figure_schemes();
        assert_eq!(schemes.len(), 7);
        assert_eq!(schemes[0].label(), "NoECC");
        assert_eq!(schemes[6].label(), "ABN-10");
    }
}
