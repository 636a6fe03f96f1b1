//! Shared harness for the regenerators that are not Monte-Carlo sweeps.
//!
//! Every binary in `src/bin/` reproduces one table, figure or ablation
//! of the paper that is not a sweep of accelerator configurations:
//! Fig 7's transient, Table IV's overheads, the resource table, the
//! multiresidue ablation and the analytic cross-check (see DESIGN.md
//! §2 for the index). Every Monte-Carlo sweep — Figures 10–12, Table
//! III, the lifetime campaign and the §IV–§VI ablations — is a
//! `campaign-grid` spec under `results/specs/` instead. This library
//! holds what the binaries share: the environment knobs, the workload
//! recipe sized by them, and JSON emission into `results/`.
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
    neural::workload::train_or_load(
        name,
        train_size(),
        samples(),
        &results_dir().join("weights"),
    )
    .unwrap_or_else(|e| panic!("workload {name}: {e}"))
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
}
