//! Columnar aggregation of a finished grid into `grid_summary.json`.
//!
//! The merge is deliberately a **pure function** of (spec, verified
//! cell artifacts): it holds no state of its own, reads no result the
//! driver has not already verified, and writes its one output
//! atomically with read-back. That purity is what makes it resumable
//! by construction — kill the merging driver at any instant and
//! re-running produces the identical bytes, because there is no
//! partial progress to corrupt and no wall-clock or randomness in the
//! output. Everything non-deterministic (driver token, attempt
//! counts, event-log line counts) goes to a best-effort
//! `grid_telemetry.json` sidecar that is explicitly excluded from byte
//! comparison.

use std::path::{Path, PathBuf};

use chaos::Seam;
use serde::{Deserialize, Serialize};

use super::{ChaosDice, GridCell, GridSpec};
use crate::campaign::CampaignState;
use crate::{envelope, AccelError};

/// Summary format version.
pub const GRID_SUMMARY_VERSION: u64 = 1;

/// Per-cell metadata, struct-of-arrays: element `i` of every column
/// describes cell `i` in spec-expansion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellColumns {
    /// Cell index (equals position; kept explicit for self-description).
    pub index: Vec<u64>,
    /// Stable cell ids.
    pub id: Vec<String>,
    /// Workload model labels.
    pub model: Vec<String>,
    /// Protection scheme labels.
    pub scheme: Vec<String>,
    /// Bits per memristor cell.
    pub cell_bits: Vec<u64>,
    /// Full-array rewrites per epoch.
    pub writes_per_epoch: Vec<f64>,
    /// Base RNG seeds.
    pub seed: Vec<u64>,
    /// Variant names; empty, and left out of the JSON, when the spec
    /// has no variants.
    #[serde(default)]
    pub variant: Vec<String>,
    /// `done` or `lost`.
    pub status: Vec<String>,
}

/// Per-epoch results, struct-of-arrays: element `j` of every column is
/// one (cell, epoch) row, ordered by cell index then epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochColumns {
    /// Owning cell's index.
    pub cell_index: Vec<u64>,
    /// Epoch index within the cell.
    pub epoch: Vec<u64>,
    /// Full-array writes absorbed before the epoch.
    pub writes: Vec<f64>,
    /// Stuck-cell fraction at those writes.
    pub fault_rate: Vec<f64>,
    /// Top-1 misclassification rate.
    pub misclassification: Vec<f64>,
    /// Top-5 misclassification rate.
    pub top5_misclassification: Vec<f64>,
    /// Fraction of predictions flipped vs the exact result.
    pub flip_rate: Vec<f64>,
    /// Evaluated examples.
    pub samples: Vec<u64>,
    /// ECU group-cycles decoded clean.
    pub clean: Vec<u64>,
    /// ECU group-cycles corrected by a table hit.
    pub corrected: Vec<u64>,
    /// ECU group-cycles with no table entry.
    pub uncorrectable: Vec<u64>,
    /// ECU group-cycles flagged by the `B` check.
    pub miscorrected: Vec<u64>,
    /// ECU group-cycles whose error was a multiple of `A`.
    pub silent_a: Vec<u64>,
    /// ECU read retries.
    pub retries: Vec<u64>,
    /// Group-cycles evaluated without any code.
    pub uncoded: Vec<u64>,
    /// Samples dropped by shard-level graceful degradation.
    pub lost_samples: Vec<u64>,
}

/// The merged, byte-stable grid summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSummary {
    /// Summary format version ([`GRID_SUMMARY_VERSION`]).
    pub version: u64,
    /// [`GridSpec::digest`] of the producing spec.
    pub spec_digest: u64,
    /// Per-cell metadata columns.
    pub cells: CellColumns,
    /// Per-epoch result columns.
    pub rows: EpochColumns,
    /// Ids of cells dropped under the loss budget — the explicit
    /// record of what this summary does *not* cover.
    pub lost_cells: Vec<String>,
}

/// Per-cell operational numbers (non-deterministic; sidecar only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTelemetry {
    /// Cell id.
    pub id: String,
    /// Worker attempts this driver run spent on the cell.
    pub attempts: u64,
    /// Lines in the cell's event log (all runs to date).
    pub event_lines: u64,
}

/// The `grid_telemetry.json` sidecar: everything a human wants and a
/// byte-comparison must not see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridTelemetry {
    /// Token of the driver that wrote this merge
    /// ([`GridOptions::owner`](super::GridOptions::owner)).
    pub driver: String,
    /// Per-cell operational numbers.
    pub cells: Vec<CellTelemetry>,
}

/// Merges a finished grid into `<dir>/grid_summary.json` (returned
/// path), plus the telemetry sidecar.
///
/// `states[i]` is cell `i`'s verified final artifact, or `None` for a
/// cell dropped under the `max_lost_cells` budget (its rows are absent
/// and its id is listed in [`GridSummary::lost_cells`]). The summary
/// write is atomic with read-back and unfaulted, so a concurrent kill
/// leaves either the previous summary or none, never a torn one.
///
/// # Errors
///
/// Returns [`AccelError::Grid`] (stage `merge`) when the summary cannot
/// be durably written.
pub fn merge(
    dir: &Path,
    spec: &GridSpec,
    cells: &[GridCell],
    states: &[Option<CampaignState>],
    attempts: &[u64],
    driver: &str,
) -> Result<PathBuf, AccelError> {
    let mut summary = GridSummary {
        version: GRID_SUMMARY_VERSION,
        spec_digest: spec.digest()?,
        cells: CellColumns {
            index: Vec::new(),
            id: Vec::new(),
            model: Vec::new(),
            scheme: Vec::new(),
            cell_bits: Vec::new(),
            writes_per_epoch: Vec::new(),
            seed: Vec::new(),
            variant: Vec::new(),
            status: Vec::new(),
        },
        rows: EpochColumns {
            cell_index: Vec::new(),
            epoch: Vec::new(),
            writes: Vec::new(),
            fault_rate: Vec::new(),
            misclassification: Vec::new(),
            top5_misclassification: Vec::new(),
            flip_rate: Vec::new(),
            samples: Vec::new(),
            clean: Vec::new(),
            corrected: Vec::new(),
            uncorrectable: Vec::new(),
            miscorrected: Vec::new(),
            silent_a: Vec::new(),
            retries: Vec::new(),
            uncoded: Vec::new(),
            lost_samples: Vec::new(),
        },
        lost_cells: Vec::new(),
    };
    let mut telemetry = GridTelemetry {
        driver: driver.to_string(),
        cells: Vec::new(),
    };

    for (i, cell) in cells.iter().enumerate() {
        let state = states.get(i).and_then(Option::as_ref);
        summary.cells.index.push(cell.index);
        summary.cells.id.push(cell.id.clone());
        summary.cells.model.push(cell.model.clone());
        summary.cells.scheme.push(cell.scheme.clone());
        summary.cells.cell_bits.push(cell.cell_bits);
        summary.cells.writes_per_epoch.push(cell.writes_per_epoch);
        summary.cells.seed.push(cell.seed);
        if let Some(variant) = &cell.variant {
            summary.cells.variant.push(variant.name.clone());
        }
        summary
            .cells
            .status
            .push(if state.is_some() { "done" } else { "lost" }.to_string());
        let events_path = dir.join("cells").join(format!("{}.events.jsonl", cell.id));
        let event_lines = chaos::fs::read(&events_path, None)
            .map(|bytes| bytes.iter().filter(|&&b| b == b'\n').count() as u64)
            .unwrap_or(0);
        telemetry.cells.push(CellTelemetry {
            id: cell.id.clone(),
            attempts: attempts.get(i).copied().unwrap_or(0),
            event_lines,
        });
        match state {
            None => summary.lost_cells.push(cell.id.clone()),
            Some(state) => {
                for record in &state.completed {
                    summary.rows.cell_index.push(cell.index);
                    summary.rows.epoch.push(record.epoch);
                    summary.rows.writes.push(record.writes);
                    summary.rows.fault_rate.push(record.fault_rate);
                    summary
                        .rows
                        .misclassification
                        .push(record.misclassification);
                    summary
                        .rows
                        .top5_misclassification
                        .push(record.top5_misclassification);
                    summary.rows.flip_rate.push(record.flip_rate);
                    summary.rows.samples.push(record.samples);
                    summary.rows.clean.push(record.clean);
                    summary.rows.corrected.push(record.corrected);
                    summary.rows.uncorrectable.push(record.uncorrectable);
                    summary.rows.miscorrected.push(record.miscorrected);
                    summary.rows.silent_a.push(record.silent_a);
                    summary.rows.retries.push(record.retries);
                    summary.rows.uncoded.push(record.uncoded);
                    summary.rows.lost_samples.push(record.lost_samples);
                }
            }
        }
    }

    let summary_path = dir.join("grid_summary.json");
    let json = serde_json::to_string_pretty(&summary).map_err(|e| AccelError::Grid {
        stage: "merge".into(),
        message: format!("serialize summary: {e:?}"),
    })?;
    envelope::write(
        &summary_path,
        json.as_bytes(),
        &mut ChaosDice::new(None),
        Seam::FinalWrite,
    )
    .map_err(|message| AccelError::Grid {
        stage: "merge".into(),
        message: format!("summary write failed: {message}"),
    })?;

    // Telemetry is best-effort: losing it loses nothing reproducible.
    if let Ok(json) = serde_json::to_string_pretty(&telemetry) {
        let _ = chaos::fs::write_atomic(&dir.join("grid_telemetry.json"), json.as_bytes(), None);
    }
    Ok(summary_path)
}
