//! Crash-safe sharded campaign grid runner.
//!
//! Expands a JSON grid spec — (models × schemes × cell-bits ×
//! fault-rates × seeds × variants) — into cells, fans the cells across
//! worker processes (or in-process worker threads), and keeps no
//! coordination state beyond the cells' own artifacts: each cell is an
//! ordinary [`crate::campaign`] with CRC'd A/B checkpoint slots, and a
//! cell is done if and only if its final artifact verifies. There is nothing
//! to lose: SIGKILL any worker, or the driver itself, at any moment,
//! and re-running the driver resumes to a merged `grid_summary.json`
//! that is byte-identical to the fault-free run (`tests/grid_soak.rs`
//! proves exactly that under seeded chaos injection). The operator
//! contract is one live driver per grid directory.
//!
//! The division of trust, bottom to top:
//!
//! - **cell artifacts** (final JSON + checkpoint slots) are the truth;
//!   a retried cell resumes its own slots via
//!   [`Campaign::open`](crate::campaign::Campaign::open);
//! - **lost-cell markers** (`cells/<id>.lost`) record the cells
//!   dropped under the `max_lost_cells` budget, so a later
//!   [`Grid::merge_only`] can tell a deliberate gap from unfinished
//!   work;
//! - **the manifest** pins the spec digest so two different sweeps
//!   cannot interleave in one directory; it is derivable and is
//!   rewritten if corrupt;
//! - **the merge** ([`merge`]) is a pure function of spec + verified
//!   artifacts, written atomically with read-back — killing it
//!   mid-write and re-running lands the identical bytes.
//!
//! Every durable read and write goes through the verified I/O of
//! `accel::envelope`, under the same deterministic chaos injection
//! the campaign substrate absorbs: artifact and manifest reads roll
//! [`Seam::CheckpointRead`], manifest and marker writes roll
//! [`Seam::FinalWrite`], and worker spawns roll [`Seam::ProcessSpawn`].
//! DESIGN.md "Failure model & recovery" carries the recovery matrix.

pub mod merge;
pub mod worker;

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use chaos::{ChaosSchedule, Seam};
use serde::{Deserialize, Serialize, Value};

use crate::analytic::ErrorModel;
use crate::campaign::{self, CampaignConfig, CampaignState, ChaosDice};
use crate::envelope::{self, ReadError};
use crate::{AccelConfig, AccelError, ProtectionScheme};

pub use merge::GridSummary;
pub use worker::Launcher;

/// Grid spec format version.
pub const GRID_SPEC_VERSION: u64 = 1;

/// Manifest format version.
pub const GRID_MANIFEST_VERSION: u64 = 1;

/// A grid sweep specification, parsed from JSON on disk.
///
/// Every axis is explicit and every field but `variants` is required —
/// a spec that omits an axis is rejected at parse time rather than
/// silently defaulted, because the spec digest pins the sweep's
/// identity. `variants` defaults to none and is then left out of the
/// canonical JSON, so a spec without variants keeps its digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Spec format version ([`GRID_SPEC_VERSION`]).
    pub version: u64,
    /// Workload models (any of [`neural::workload::MODELS`]); one axis
    /// of the sweep.
    pub models: Vec<String>,
    /// Protection scheme labels (`NoECC`, `Static16`, `ABN-9`, …).
    pub schemes: Vec<String>,
    /// Bits per memristor cell.
    pub cell_bits: Vec<u64>,
    /// Full-array rewrites per epoch — the wear schedule that sweeps
    /// the fault-rate axis (via the endurance model).
    pub writes_per_epoch: Vec<f64>,
    /// Base RNG seeds.
    pub seeds: Vec<u64>,
    /// Lifetime epochs per cell.
    pub epochs: u64,
    /// Test samples per evaluation.
    pub samples: u64,
    /// Training examples for the workload recipe.
    pub train: u64,
    /// Worker threads per cell evaluation.
    pub threads: u64,
    /// Checkpoint cadence within each cell (0 = final only).
    pub checkpoint_every: u64,
    /// Writes absorbed before epoch 0.
    pub initial_writes: f64,
    /// Error model for every cell: `mc` or `analytic`.
    pub error_model: String,
    /// Named knob-override sets, the innermost axis: every other axis
    /// point runs once per variant. Empty (the default) runs the
    /// unmodified configuration once.
    #[serde(default)]
    pub variants: Vec<Variant>,
}

/// One point on the `variants` axis: a name (part of the cell id and
/// so of artifact file names) and the knobs it overrides, as an
/// ordered JSON object of knob → value applied by
/// [`AccelConfig::apply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variant {
    /// Variant name, `[A-Za-z0-9_.-]+`, unique within the spec.
    pub name: String,
    /// Knob overrides, e.g. `{"device.rtn_state_probability": 0.22}`;
    /// `{}` is the unmodified configuration.
    pub set: Value,
}

impl GridSpec {
    /// Parses and validates a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] (stage `spec`) on malformed JSON
    /// or any validation failure.
    pub fn from_json(text: &str) -> Result<GridSpec, AccelError> {
        let spec: GridSpec = serde_json::from_str(text).map_err(|e| AccelError::Grid {
            stage: "spec".into(),
            message: format!("parse: {e:?}"),
        })?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec canonically (compact JSON, struct field
    /// order) — the form the digest is computed over.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] if serialization fails.
    pub fn to_json(&self) -> Result<String, AccelError> {
        serde_json::to_string(self).map_err(|e| AccelError::Grid {
            stage: "spec".into(),
            message: format!("serialize: {e:?}"),
        })
    }

    /// Validates the spec: a spec is valid when every cell's
    /// configuration is ([`CampaignConfig::validate`], after
    /// [`GridSpec::cell_config`]), so the ranges of cell bits, schemes,
    /// seeds, wear rates, threads, knobs and the analytic envelope are
    /// the config's. Checked here are only what no cell config can
    /// check: the version, non-empty axes, model names, `epochs`,
    /// `samples` and `train`, variant names and `set` objects, and
    /// scheme labels written as the scheme writes itself (`ABN-9`, not
    /// `ABN-09`), which the artifacts record.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] (stage `spec`) naming the first
    /// offending field, and the cell for a refused cell config.
    pub fn validate(&self) -> Result<(), AccelError> {
        let fail = |message: String| {
            Err(AccelError::Grid {
                stage: "spec".into(),
                message,
            })
        };
        if self.version != GRID_SPEC_VERSION {
            return fail(format!(
                "spec version {} but this binary reads {GRID_SPEC_VERSION}",
                self.version
            ));
        }
        if self.models.is_empty()
            || self.schemes.is_empty()
            || self.cell_bits.is_empty()
            || self.writes_per_epoch.is_empty()
            || self.seeds.is_empty()
        {
            return fail("every axis (models, schemes, cell_bits, writes_per_epoch, seeds) must be non-empty".into());
        }
        for model in &self.models {
            if !neural::workload::MODELS.contains(&model.as_str()) {
                return fail(format!(
                    "unknown model {model} (try {})",
                    neural::workload::MODELS.join(", ")
                ));
            }
        }
        for label in &self.schemes {
            if let Some(scheme) = ProtectionScheme::from_label(label) {
                if scheme.label() != *label {
                    return fail(format!("scheme {label} must be written {}", scheme.label()));
                }
            }
        }
        if self.epochs == 0 {
            return fail("epochs must be positive".into());
        }
        if self.samples == 0 || self.train == 0 {
            return fail("samples and train must be positive".into());
        }
        for (i, variant) in self.variants.iter().enumerate() {
            let name = &variant.name;
            let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
            if name.is_empty() || !name.chars().all(legal) {
                return fail(format!("variant name {name:?} must match [A-Za-z0-9_.-]+"));
            }
            if self.variants[..i].iter().any(|v| &v.name == name) {
                return fail(format!("variant name {name} is used twice"));
            }
            if variant.set.as_object().is_none() {
                return fail(format!("variant {name}: set must be a knob → value object"));
            }
        }
        for cell in self.cells() {
            if let Err(e) = self.cell_config(&cell)?.validate() {
                return fail(format!("cell {}: {e}", cell.id));
            }
        }
        Ok(())
    }

    /// CRC-32 digest of the canonical serialization — the sweep's
    /// identity, pinned in the manifest and the merged summary.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] if canonical serialization fails.
    pub fn digest(&self) -> Result<u64, AccelError> {
        Ok(u64::from(chaos::crc::crc32(self.to_json()?.as_bytes())))
    }

    /// Expands the spec into its cells, in the canonical order
    /// (models → schemes → cell_bits → writes_per_epoch → seeds →
    /// variants). A cell of a variant has `_<variant>` appended to its
    /// id.
    pub fn cells(&self) -> Vec<GridCell> {
        let variants: Vec<Option<&Variant>> = if self.variants.is_empty() {
            vec![None]
        } else {
            self.variants.iter().map(Some).collect()
        };
        let mut out = Vec::new();
        for model in &self.models {
            for scheme in &self.schemes {
                for &bits in &self.cell_bits {
                    for &wpe in &self.writes_per_epoch {
                        for &seed in &self.seeds {
                            for &variant in &variants {
                                let index = out.len() as u64;
                                let mut id =
                                    format!("{index:03}_{model}_{scheme}_{bits}b_w{wpe}_s{seed}");
                                if let Some(v) = variant {
                                    id = format!("{id}_{}", v.name);
                                }
                                out.push(GridCell {
                                    index,
                                    id,
                                    model: model.clone(),
                                    scheme: scheme.clone(),
                                    cell_bits: bits,
                                    writes_per_epoch: wpe,
                                    seed,
                                    variant: variant.cloned(),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The cell named `id`, or the spec's only cell when `id` is
    /// `None`.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] (stage `spec`) when no cell has that
    /// id, or when `id` is `None` and the spec has more than one cell.
    pub fn cell(&self, id: Option<&str>) -> Result<GridCell, AccelError> {
        let mut cells = self.cells();
        let found = match id {
            Some(id) => cells.iter().position(|c| c.id == id),
            None => (cells.len() == 1).then_some(0),
        };
        match found {
            Some(i) => Ok(cells.swap_remove(i)),
            None => Err(AccelError::Grid {
                stage: "spec".into(),
                message: match id {
                    Some(id) => format!("no cell {id} in this spec"),
                    None => format!("the spec has {} cells; name one", cells.len()),
                },
            }),
        }
    }

    /// Builds the campaign configuration for one cell, its variant's
    /// knobs applied through [`CampaignConfig::apply`]. It is not
    /// validated here: [`GridSpec::validate`] validates every cell's,
    /// and [`Campaign::new`](crate::campaign::Campaign::new) validates
    /// the one it runs.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] (stage `spec`) when the cell's
    /// labels or knobs fail to parse (impossible for cells produced by
    /// [`GridSpec::cells`] on a validated spec).
    pub fn cell_config(&self, cell: &GridCell) -> Result<CampaignConfig, AccelError> {
        let fail = |message: String| AccelError::Grid {
            stage: "spec".into(),
            message,
        };
        let scheme = ProtectionScheme::from_label(&cell.scheme).ok_or_else(|| {
            fail(format!(
                "unknown scheme {} (try NoECC, Static16, Static128, ABN-7..ABN-10)",
                cell.scheme
            ))
        })?;
        let error_model = ErrorModel::from_label(&self.error_model).ok_or_else(|| {
            fail(format!(
                "unknown error_model {} (try analytic, mc)",
                self.error_model
            ))
        })?;
        let bits = u32::try_from(cell.cell_bits).map_err(|_| {
            fail(format!(
                "cell_bits {} does not fit in 32 bits",
                cell.cell_bits
            ))
        })?;
        let base = AccelConfig::new(scheme).with_cell_bits(bits);
        let mut config = CampaignConfig::new(base, self.epochs, cell.seed);
        config.threads = self.threads as usize;
        config.writes_per_epoch = cell.writes_per_epoch;
        config.initial_writes = self.initial_writes;
        config.checkpoint_every = self.checkpoint_every;
        config.error_model = error_model;
        for (knob, value) in cell.knobs() {
            config
                .apply(knob, value)
                .map_err(|e| fail(format!("cell {}: {e}", cell.id)))?;
        }
        Ok(config)
    }

    /// Accepts `state` as `cell`'s complete record: recorded under the
    /// cell's configuration ([`CampaignConfig::check`], the comparison
    /// a resume makes) with every epoch present. What "a cell is done"
    /// means.
    fn check_done(&self, cell: &GridCell, state: &CampaignState) -> Result<(), String> {
        self.cell_config(cell)
            .and_then(|config| config.check(state))
            .map_err(|e| e.to_string())?;
        if state.completed.len() as u64 != state.epochs {
            return Err(format!(
                "epochs: {} of {} completed",
                state.completed.len(),
                state.epochs
            ));
        }
        Ok(())
    }
}

/// One expanded grid cell: a point on every axis plus its stable id.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Position in spec-expansion order (stable for a given spec).
    pub index: u64,
    /// Stable id: index + every axis value, used in artifact names.
    pub id: String,
    /// Workload model label.
    pub model: String,
    /// Protection scheme label.
    pub scheme: String,
    /// Bits per memristor cell.
    pub cell_bits: u64,
    /// Full-array rewrites per epoch.
    pub writes_per_epoch: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// The variant this cell runs, when the spec has variants.
    pub variant: Option<Variant>,
}

impl GridCell {
    /// The knob overrides this cell runs under, in order (none without
    /// a variant).
    pub fn knobs(&self) -> &[(String, Value)] {
        self.variant
            .as_ref()
            .and_then(|v| v.set.as_object())
            .unwrap_or_default()
    }
}

/// The derivable manifest pinning a grid directory to one spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    /// Manifest format version ([`GRID_MANIFEST_VERSION`]).
    version: u64,
    /// [`GridSpec::digest`] of the owning spec.
    spec_digest: u64,
    /// Cell count (redundant with the digest; a human-readable check).
    cells: u64,
}

/// Driver knobs for one grid run.
#[derive(Debug, Clone)]
pub struct GridOptions {
    /// Concurrent worker slots.
    pub workers: usize,
    /// Extra attempts per cell beyond the first (seed-stable: attempt
    /// `k` of a cell derives the same worker chaos stream every run).
    /// The grid's one retry loop: a worker that panics, exits non-zero,
    /// or trips the watchdog is retried here, resuming from the cell's
    /// checkpoint slots.
    pub cell_retries: u32,
    /// Cells that may be dropped with explicit gaps before the grid
    /// fails outright (graceful degradation).
    pub max_lost_cells: usize,
    /// Per-worker watchdog in milliseconds (0 = off). Process
    /// launchers kill and retry a worker past its deadline; in-process
    /// launchers cannot kill a thread and ignore it.
    pub watchdog_ms: u64,
    /// Driver-side chaos schedule; also seeds each worker's derived
    /// chaos stream.
    pub chaos: Option<ChaosSchedule>,
    /// Driver token (e.g. `driver-<pid>`), recorded as `driver` in
    /// `grid_telemetry.json`. Never enters byte-compared artifacts.
    pub owner: String,
}

impl Default for GridOptions {
    fn default() -> GridOptions {
        GridOptions {
            workers: 2,
            cell_retries: 2,
            max_lost_cells: 0,
            watchdog_ms: 0,
            chaos: None,
            owner: "driver".into(),
        }
    }
}

/// What one grid run did.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Cells verified complete (including ones done before this run).
    pub done: usize,
    /// Cells dropped under the `max_lost_cells` budget, by id.
    pub lost: Vec<String>,
    /// Cells whose artifacts were already complete when this run
    /// started (a resume skipping work).
    pub skipped: usize,
    /// Path of the merged columnar summary.
    pub summary_path: PathBuf,
}

/// The `cells/<id>.lost` marker: a cell that exhausted its retries
/// under the loss budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LostMarker {
    /// Id of the lost cell (defense against a misplaced file).
    cell: String,
    /// Worker attempts burned on it.
    attempts: u64,
    /// The last attempt's failure (`spawn`/`exit`/`watchdog`/`verify`).
    reason: String,
}

/// One occupied worker slot.
struct RunningCell {
    idx: usize,
    attempt: u32,
    started_ns: u64,
    deadline: Option<std::time::Instant>,
    handle: worker::Handle,
}

/// The dispatch loop's bookkeeping.
struct Dispatch {
    /// Per cell: its verified artifact once done; `None` until then
    /// (and for lost cells).
    states: Vec<Option<CampaignState>>,
    /// Per cell: worker attempts spent this run.
    attempts: Vec<u64>,
    /// `(cell, attempt)` pairs waiting for a worker slot.
    queue: VecDeque<(usize, u32)>,
    running: Vec<RunningCell>,
    lost: Vec<String>,
    skipped: usize,
}

/// The grid driver: spec + directory + launcher + options.
pub struct Grid {
    spec: GridSpec,
    dir: PathBuf,
    launcher: Launcher,
    options: GridOptions,
    /// The driver's dice before any roll: every [`Grid::run`] and
    /// [`Grid::merge_only`] rolls a fresh copy, so each sees the same
    /// fault script.
    dice: ChaosDice,
}

/// Derives the chaos seed a worker runs under: a splitmix-style hash
/// of (grid seed, cell index, attempt), so retries of a cell draw a
/// fresh fault stream (a fixed stream could fail deterministically
/// forever) while staying fully replayable.
fn worker_chaos_seed(grid_seed: u64, cell_index: u64, attempt: u32) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(grid_seed ^ cell_index.wrapping_mul(0x632B_E59B_D9B4_E019)) ^ (u64::from(attempt) + 1))
}

/// Path of a cell's final artifact inside the grid directory; its
/// checkpoint slots sit beside it as `.a` and `.b`.
pub fn artifact_path(dir: &Path, cell: &GridCell) -> PathBuf {
    dir.join("cells").join(format!("{}.json", cell.id))
}

/// Path of a cell worker's event log inside the grid directory.
pub fn events_path(dir: &Path, cell: &GridCell) -> PathBuf {
    dir.join("cells").join(format!("{}.events.jsonl", cell.id))
}

/// Creates the grid layout in `dir` and pins it to `spec` through the
/// driver's manifest check. A process worker calls this before it runs
/// its cell, so a worker started by hand cannot write into another
/// sweep's directory. The check rolls no chaos, so it leaves the
/// worker's fault script as it is.
///
/// # Errors
///
/// Returns [`AccelError::Grid`] when the directory cannot be created,
/// or its manifest pins another spec or cannot be read or written.
pub fn pin_manifest(spec: &GridSpec, dir: &Path) -> Result<(), AccelError> {
    ensure_dirs(dir)?;
    ensure_manifest(spec, dir, &mut ChaosDice::new(None))
}

/// Creates the cells/ directory.
fn ensure_dirs(dir: &Path) -> Result<(), AccelError> {
    let cells = dir.join("cells");
    // lint: allow(chaos_seam_coverage, idempotent mkdir -p of the grid layout; it leaves no partial artifact to tear and its failures surface as typed Grid errors)
    std::fs::create_dir_all(&cells).map_err(|e| AccelError::Grid {
        stage: "layout".into(),
        message: format!("create {}: {e}", cells.display()),
    })
}

/// Validates (or writes) the manifest: a digest mismatch means the
/// directory belongs to a different sweep and the run is refused;
/// a missing or corrupt manifest is rewritten, because it is
/// derivable from the spec.
fn ensure_manifest(spec: &GridSpec, dir: &Path, dice: &mut ChaosDice) -> Result<(), AccelError> {
    let path = dir.join("manifest.json");
    let digest = spec.digest()?;
    let fail = |message: String| AccelError::Grid {
        stage: "manifest".into(),
        message,
    };
    match envelope::read(&path, dice, envelope::parse_json::<Manifest>) {
        Ok(existing) if existing.spec_digest == digest => return Ok(()),
        Ok(existing) => {
            return Err(fail(format!(
                "{} pins spec digest {:#010x}, but this spec digests to {:#010x}: \
                 refusing to mix two sweeps in one directory",
                path.display(),
                existing.spec_digest,
                digest
            )))
        }
        Err(ReadError::Missing | ReadError::Corrupt(_)) => {}
        // Unreadable: the directory's identity is unknown, and
        // overwriting could pin a foreign sweep's cells to this spec.
        Err(e) => return Err(fail(format!("{}: {e}", path.display()))),
    }
    let manifest = Manifest {
        version: GRID_MANIFEST_VERSION,
        spec_digest: digest,
        cells: spec.cells().len() as u64,
    };
    let json =
        serde_json::to_string_pretty(&manifest).map_err(|e| fail(format!("serialize: {e:?}")))?;
    envelope::write(&path, json.as_bytes(), dice, Seam::FinalWrite).map_err(fail)
}

impl Grid {
    /// Builds a driver over `spec`, coordinating in `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] when the spec fails validation.
    pub fn new(
        spec: GridSpec,
        dir: PathBuf,
        launcher: Launcher,
        options: GridOptions,
    ) -> Result<Grid, AccelError> {
        spec.validate()?;
        Ok(Grid {
            spec,
            dir,
            launcher,
            dice: ChaosDice::new(options.chaos),
            options,
        })
    }

    fn lost_path(&self, cell: &GridCell) -> PathBuf {
        self.dir.join("cells").join(format!("{}.lost", cell.id))
    }

    /// The cell's final artifact, when it verifies as the cell's
    /// complete record (see [`GridSpec::check_done`]).
    fn verified_artifact(&self, cell: &GridCell, dice: &mut ChaosDice) -> Option<CampaignState> {
        envelope::read(&artifact_path(&self.dir, cell), dice, |bytes| {
            let state = campaign::parse_state(bytes)?;
            self.spec.check_done(cell, &state)?;
            Ok(state)
        })
        .ok()
    }

    /// Runs the whole grid: dispatch, retry, degrade, merge. Safe to
    /// re-run at any time; completed cells are skipped after artifact
    /// verification.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] when a cell exhausts its retries
    /// past the `max_lost_cells` budget, the directory belongs to a
    /// different spec, or a manifest, marker or summary write cannot
    /// complete.
    pub fn run(&mut self) -> Result<GridReport, AccelError> {
        let cells = self.spec.cells();
        ensure_dirs(&self.dir)?;
        let mut dice = self.dice.clone();
        ensure_manifest(&self.spec, &self.dir, &mut dice)?;

        let n = cells.len();
        let mut d = Dispatch {
            states: vec![None; n],
            attempts: vec![0; n],
            queue: (0..n).map(|i| (i, 0)).collect(),
            running: Vec::new(),
            lost: Vec::new(),
            skipped: 0,
        };
        let outcome = self.drive(&cells, &mut dice, &mut d);
        // Whatever happened, never leak live workers past the driver.
        for slot in &mut d.running {
            slot.handle.kill();
        }
        outcome?;

        let summary_path = merge::merge(
            &self.dir,
            &self.spec,
            &cells,
            &d.states,
            &d.attempts,
            &self.options.owner,
        )?;
        Ok(GridReport {
            done: d.states.iter().filter(|s| s.is_some()).count(),
            lost: d.lost,
            skipped: d.skipped,
            summary_path,
        })
    }

    /// Merges without running any cells: every cell must already be
    /// complete (a verified artifact) or marked lost.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] (stage `merge`) naming the first
    /// cell that is neither.
    pub fn merge_only(&mut self) -> Result<GridReport, AccelError> {
        let cells = self.spec.cells();
        ensure_dirs(&self.dir)?;
        let mut dice = self.dice.clone();
        ensure_manifest(&self.spec, &self.dir, &mut dice)?;
        let mut states = Vec::with_capacity(cells.len());
        let mut lost = Vec::new();
        for cell in &cells {
            if let Some(state) = self.verified_artifact(cell, &mut dice) {
                states.push(Some(state));
                continue;
            }
            let marked = envelope::read(&self.lost_path(cell), &mut dice, |bytes| {
                let marker: LostMarker = envelope::parse_json(bytes)?;
                if marker.cell == cell.id {
                    Ok(())
                } else {
                    Err(format!("marker names cell {}", marker.cell))
                }
            });
            if marked.is_err() {
                return Err(AccelError::Grid {
                    stage: "merge".into(),
                    message: format!(
                        "cell {} is neither complete nor recorded lost; run the \
                         grid (not --merge-only) to finish it",
                        cell.id
                    ),
                });
            }
            lost.push(cell.id.clone());
            states.push(None);
        }
        let attempts = vec![0u64; cells.len()];
        let summary_path = merge::merge(
            &self.dir,
            &self.spec,
            &cells,
            &states,
            &attempts,
            &self.options.owner,
        )?;
        Ok(GridReport {
            done: states.iter().filter(|s| s.is_some()).count(),
            lost,
            skipped: 0,
            summary_path,
        })
    }

    /// The dispatch loop, extracted so [`Grid::run`] can kill leftover
    /// workers on any error path.
    fn drive(
        &self,
        cells: &[GridCell],
        dice: &mut ChaosDice,
        d: &mut Dispatch,
    ) -> Result<(), AccelError> {
        while !d.queue.is_empty() || !d.running.is_empty() {
            // Fill free slots from the queue.
            while d.running.len() < self.options.workers.max(1) {
                let Some((idx, attempt)) = d.queue.pop_front() else {
                    break;
                };
                let cell = &cells[idx];
                let started_ns = obs::now_ns();

                // Fast path: the artifact is already complete (a
                // previous driver finished the cell, or this run did
                // before a failed verification requeued it).
                if let Some(state) = self.verified_artifact(cell, dice) {
                    if attempt == 0 {
                        d.skipped += 1;
                    }
                    self.cell_done(cell, idx, state, started_ns, d);
                    continue;
                }

                // Worker spawn, under the ProcessSpawn seam: a fault
                // here is a failed attempt that never launched.
                d.attempts[idx] += 1;
                if dice.fault(Seam::ProcessSpawn).is_some() {
                    self.attempt_failed(cell, idx, attempt, "spawn", d, dice)?;
                    continue;
                }
                let chaos_seed = self
                    .options
                    .chaos
                    .map(|s| worker_chaos_seed(s.seed(), cell.index, attempt));
                match self
                    .launcher
                    .launch(&self.spec, cell, &self.dir, chaos_seed)
                {
                    Ok(handle) => {
                        let deadline = (self.options.watchdog_ms > 0
                            && matches!(self.launcher, Launcher::Process { .. }))
                        .then(|| {
                            std::time::Instant::now()
                                + std::time::Duration::from_millis(self.options.watchdog_ms)
                        });
                        d.running.push(RunningCell {
                            idx,
                            attempt,
                            started_ns,
                            deadline,
                            handle,
                        });
                    }
                    Err(e) => {
                        self.attempt_failed(cell, idx, attempt, &format!("spawn: {e}"), d, dice)?;
                    }
                }
            }

            // Poll the running slots.
            let mut finished: Vec<usize> = Vec::new();
            for (slot_i, slot) in d.running.iter_mut().enumerate() {
                match slot.handle.poll() {
                    worker::Poll::Running => {
                        if let Some(deadline) = slot.deadline {
                            if std::time::Instant::now() >= deadline {
                                slot.handle.kill();
                                finished.push(slot_i);
                            }
                        }
                    }
                    worker::Poll::Exited { .. } => finished.push(slot_i),
                }
            }
            // Resolve finished slots, highest index first so removal
            // does not shift the rest.
            finished.sort_unstable_by(|a, b| b.cmp(a));
            for slot_i in finished {
                let mut slot = d.running.remove(slot_i);
                let cell = &cells[slot.idx];
                let timed_out = slot
                    .deadline
                    .map(|t| std::time::Instant::now() >= t)
                    .unwrap_or(false);
                let (ok, detail) = match slot.handle.poll() {
                    worker::Poll::Exited { ok, detail } => (ok, detail),
                    worker::Poll::Running => (false, "killed by watchdog".into()),
                };
                let verified = if ok {
                    self.verified_artifact(cell, dice)
                } else {
                    None
                };
                if let Some(state) = verified {
                    self.cell_done(cell, slot.idx, state, slot.started_ns, d);
                } else {
                    let reason = if timed_out {
                        "watchdog".to_string()
                    } else if ok {
                        "verify".to_string()
                    } else {
                        format!("exit: {detail}")
                    };
                    self.attempt_failed(cell, slot.idx, slot.attempt, &reason, d, dice)?;
                }
            }
            if !d.running.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// Records a verified cell and announces it.
    fn cell_done(
        &self,
        cell: &GridCell,
        idx: usize,
        state: CampaignState,
        started_ns: u64,
        d: &mut Dispatch,
    ) {
        obs::events::emit(
            obs::Event::new("grid_cell_done")
                .str("cell", &cell.id)
                .u64("index", cell.index)
                .u64("attempts", d.attempts[idx])
                .u64("epochs", state.completed.len() as u64)
                .u64("duration_ns", obs::now_ns().saturating_sub(started_ns)),
        );
        d.states[idx] = Some(state);
    }

    /// Books one failed attempt: requeue while retries remain, then
    /// spend the `max_lost_cells` budget (writing the cell's lost
    /// marker), then fail the grid.
    fn attempt_failed(
        &self,
        cell: &GridCell,
        idx: usize,
        attempt: u32,
        reason: &str,
        d: &mut Dispatch,
        dice: &mut ChaosDice,
    ) -> Result<(), AccelError> {
        if attempt < self.options.cell_retries {
            d.queue.push_back((idx, attempt + 1));
            return Ok(());
        }
        let attempts = u64::from(attempt) + 1;
        let fail = |message: String| AccelError::Grid {
            stage: "cells".into(),
            message,
        };
        if d.lost.len() >= self.options.max_lost_cells {
            return Err(fail(format!(
                "cell {} failed after {attempts} attempt(s) ({reason}) and the \
                 --max-lost-cells budget is exhausted",
                cell.id
            )));
        }
        let marker = LostMarker {
            cell: cell.id.clone(),
            attempts,
            reason: reason.to_string(),
        };
        let json = serde_json::to_string_pretty(&marker)
            .map_err(|e| fail(format!("serialize lost marker: {e:?}")))?;
        envelope::write(
            &self.lost_path(cell),
            json.as_bytes(),
            dice,
            Seam::FinalWrite,
        )
        .map_err(fail)?;
        d.lost.push(cell.id.clone());
        obs::events::emit(
            obs::Event::new("grid_cell_lost")
                .str("cell", &cell.id)
                .u64("index", cell.index)
                .u64("attempts", attempts)
                .str("reason", reason),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// A spec mutation and the text its validation error must name.
    type SpecCase = (Box<dyn Fn(&mut GridSpec)>, &'static str);
    /// An artifact-state mutation and the field the done-check names.
    type StateCase = (fn(&mut CampaignState), &'static str);

    fn spec_2x1() -> GridSpec {
        GridSpec {
            version: GRID_SPEC_VERSION,
            models: vec!["mlp2".into()],
            schemes: vec!["NoECC".into(), "ABN-9".into()],
            cell_bits: vec![2],
            writes_per_epoch: vec![2e5],
            seeds: vec![41],
            epochs: 2,
            samples: 8,
            train: 400,
            threads: 2,
            checkpoint_every: 0,
            initial_writes: 0.0,
            // Analytic: fast enough for unit tests, and resumable like
            // any other campaign (the checkpoint records the estimator).
            error_model: "analytic".into(),
            variants: Vec::new(),
        }
    }

    fn tiny_problems() -> HashMap<String, Arc<worker::Problem>> {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = neural::models::mlp2(&mut rng);
        let mut train = neural::data::digits(400, 1);
        neural::data::shuffle(&mut train, 2);
        for _ in 0..3 {
            net.train_epoch(&train.images, &train.labels, 32, 0.1);
        }
        let test = neural::data::digits(8, 99);
        let qnet = neural::QuantizedNetwork::from_network(&net);
        let mut problems = HashMap::new();
        problems.insert(
            "mlp2".to_string(),
            Arc::new((qnet, test.images, test.labels)),
        );
        problems
    }

    fn temp_grid_dir(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("grid-{}-{name}", std::process::id()))
    }

    fn in_process(
        spec: &GridSpec,
        dir: &Path,
        problems: &HashMap<String, Arc<worker::Problem>>,
        options: GridOptions,
    ) -> Grid {
        let launcher = Launcher::InProcess {
            problems: problems.clone(),
        };
        Grid::new(spec.clone(), dir.to_path_buf(), launcher, options).expect("grid")
    }

    /// Runs `spec` fault-free into a fresh directory; returns the
    /// directory and its summary bytes.
    fn clean_run(
        spec: &GridSpec,
        problems: &HashMap<String, Arc<worker::Problem>>,
        name: &str,
    ) -> (PathBuf, Vec<u8>) {
        let dir = temp_grid_dir(name);
        let _ = std::fs::remove_dir_all(&dir);
        let report = in_process(spec, &dir, problems, GridOptions::default())
            .run()
            .expect("clean run");
        let summary = std::fs::read(&report.summary_path).expect("summary");
        (dir, summary)
    }

    /// Dice that flip bit `roll` of the first of every three reads.
    /// Wherever a verified read starts in that cycle, two consecutive
    /// clean reads follow within four, so every read still converges;
    /// most see the flipped bytes first.
    fn every_third_read_flipped(roll: u64) -> ChaosDice {
        let flip = chaos::IoFault::BitFlip { roll };
        ChaosDice::scripted(
            (0..600)
                .step_by(3)
                .map(|index| (Seam::CheckpointRead, index, flip))
                .collect(),
        )
    }

    fn attempts_in_telemetry(dir: &Path) -> Vec<u64> {
        let text = std::fs::read_to_string(dir.join("grid_telemetry.json")).expect("telemetry");
        let telemetry: merge::GridTelemetry = serde_json::from_str(&text).expect("parse");
        telemetry.cells.iter().map(|c| c.attempts).collect()
    }

    #[test]
    fn spec_validation_names_the_offending_field() {
        let good = spec_2x1();
        assert!(good.validate().is_ok());

        let cases: Vec<SpecCase> = vec![
            (Box::new(|s| s.version = 99), "version"),
            (Box::new(|s| s.models.clear()), "non-empty"),
            (
                Box::new(|s| s.models = vec!["resnet".into()]),
                "unknown model",
            ),
            (
                Box::new(|s| s.schemes = vec!["bogus".into()]),
                "unknown scheme",
            ),
            (Box::new(|s| s.cell_bits = vec![9]), "cell_bits"),
            (Box::new(|s| s.cell_bits = vec![6]), "cell_bits"),
            (Box::new(|s| s.cell_bits = vec![2, 0]), "cell_bits"),
            (Box::new(|s| s.cell_bits = vec![1 << 32]), "cell_bits"),
            (
                Box::new(|s| s.schemes = vec!["ABN-6".into()]),
                "scheme ABN-6",
            ),
            (
                Box::new(|s| s.schemes = vec!["NoECC".into(), "ABN-11".into()]),
                "scheme ABN-11",
            ),
            (
                Box::new(|s| s.schemes = vec!["ABN-09".into()]),
                "scheme ABN-09",
            ),
            (
                Box::new(|s| s.writes_per_epoch = vec![-1.0]),
                "writes_per_epoch",
            ),
            (Box::new(|s| s.seeds = vec![1u64 << 53]), "2^53"),
            (Box::new(|s| s.epochs = 0), "epochs"),
            (Box::new(|s| s.threads = 0), "threads"),
            (
                Box::new(|s| s.error_model = "psychic".into()),
                "error_model",
            ),
            (
                Box::new(|s| s.error_model = "auto".into()),
                "error_model auto (try analytic, mc)",
            ),
        ];
        for (mutate, needle) in cases {
            let mut bad = good.clone();
            mutate(&mut bad);
            match bad.validate() {
                Err(AccelError::Grid { stage, message }) => {
                    assert_eq!(stage, "spec");
                    assert!(message.contains(needle), "{message:?} missing {needle:?}");
                }
                other => panic!("expected Grid error for {needle}, got {other:?}"),
            }
        }
    }

    fn variant(name: &str, set: &str) -> Variant {
        Variant {
            name: name.into(),
            set: serde_json::from_str(set).expect("set json"),
        }
    }

    #[test]
    fn variant_validation_refuses_bad_names_knobs_and_analytic_misuse() {
        let mut mc = spec_2x1();
        mc.error_model = "mc".into();
        mc.variants = vec![
            variant("base", "{}"),
            variant("p_rtn_0.22", r#"{"device.rtn_state_probability": 0.22}"#),
            variant(
                "retry-2",
                r#"{"policy": "revert", "max_retries": 2, "remap": true}"#,
            ),
        ];
        assert!(mc.validate().is_ok());

        let cases: Vec<(GridSpec, Vec<Variant>, &str)> = vec![
            (mc.clone(), vec![variant("", "{}")], "variant name \"\""),
            (mc.clone(), vec![variant("../x", "{}")], "must match"),
            (mc.clone(), vec![variant("a b", "{}")], "must match"),
            (
                mc.clone(),
                vec![variant("a", "{}"), variant("a", "{}")],
                "used twice",
            ),
            (mc.clone(), vec![variant("a", "[]")], "must be a knob"),
            (
                mc.clone(),
                vec![variant("a", r#"{"fault_rate": 0.1}"#)],
                "unknown knob",
            ),
            (
                mc.clone(),
                vec![variant("a", r#"{"remap": 1}"#)],
                "expected bool",
            ),
            (
                mc.clone(),
                vec![variant("a", r#"{"max_retries": -1}"#)],
                "out of range",
            ),
            (
                mc.clone(),
                vec![variant("a", r#"{"remap": true, "remap": false}"#)],
                "set twice",
            ),
            (
                spec_2x1(),
                vec![variant("a", r#"{"remap": true}"#)],
                "analytic",
            ),
            (
                spec_2x1(),
                vec![variant("a", r#"{"max_retries": 1}"#)],
                "analytic",
            ),
        ];
        for (mut bad, variants, needle) in cases {
            bad.variants = variants;
            match bad.validate() {
                Err(AccelError::Grid { stage, message }) => {
                    assert_eq!(stage, "spec");
                    assert!(message.contains(needle), "{message:?} missing {needle:?}");
                }
                other => panic!("expected Grid error for {needle}, got {other:?}"),
            }
        }
        // Knobs inside the analytic envelope stay legal under it.
        let mut analytic = spec_2x1();
        analytic.variants = vec![variant("a", r#"{"max_retries": 0, "group_operands": 4}"#)];
        assert!(analytic.validate().is_ok());
    }

    #[test]
    fn variants_are_the_innermost_axis_and_reach_config_and_artifact_checks() {
        let plain = spec_2x1();
        let json = plain.to_json().expect("json");
        assert!(!json.contains("variants"), "{json}");

        let mut spec = plain.clone();
        spec.variants = vec![
            variant("base", "{}"),
            variant("p22", r#"{"device.rtn_state_probability": 0.22}"#),
        ];
        assert_ne!(
            spec.digest().expect("digest"),
            plain.digest().expect("digest")
        );
        let reparsed = GridSpec::from_json(&spec.to_json().expect("json")).expect("reparse");
        assert_eq!(reparsed, spec);
        let cells = spec.cells();
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "000_mlp2_NoECC_2b_w200000_s41_base",
                "001_mlp2_NoECC_2b_w200000_s41_p22",
                "002_mlp2_ABN-9_2b_w200000_s41_base",
                "003_mlp2_ABN-9_2b_w200000_s41_p22",
            ]
        );
        let base = spec.cell_config(&cells[0]).expect("config");
        let p22 = spec.cell_config(&cells[1]).expect("config");
        assert_eq!(
            base,
            spec_2x1().cell_config(&plain.cells()[0]).expect("plain")
        );
        assert_eq!(p22.base.device.rtn_state_probability, 0.22);
        assert_eq!(p22.set, spec.variants[1].set);

        // An artifact records its overrides, so another variant's
        // artifact is refused before anything else about it is read.
        let state = Campaign::new(p22).expect("campaign").state().clone();
        let refused = spec.check_done(&cells[0], &state).unwrap_err();
        assert!(refused.contains(": set: campaign wants {}"), "{refused}");
        let incomplete = spec.check_done(&cells[1], &state).unwrap_err();
        assert!(incomplete.starts_with("epochs"), "{incomplete}");
    }

    #[test]
    fn expansion_order_ids_and_digest_are_stable() {
        let mut spec = spec_2x1();
        spec.seeds = vec![41, 42];
        let cells = spec.cells();
        // models × schemes × bits × wpe × seeds, seeds innermost.
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].id, "000_mlp2_NoECC_2b_w200000_s41");
        assert_eq!(cells[1].id, "001_mlp2_NoECC_2b_w200000_s42");
        assert_eq!(cells[2].scheme, "ABN-9");
        assert_eq!(cells[3].seed, 42);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i as u64);
        }
        // The digest survives a JSON round-trip and notices any change.
        let digest = spec.digest().expect("digest");
        let reparsed = GridSpec::from_json(&spec.to_json().expect("json")).expect("reparse");
        assert_eq!(reparsed.digest().expect("digest"), digest);
        let mut other = spec.clone();
        other.epochs += 1;
        assert_ne!(other.digest().expect("digest"), digest);
    }

    #[test]
    fn cell_config_reflects_every_axis() {
        let spec = spec_2x1();
        let cells = spec.cells();
        let config = spec.cell_config(&cells[1]).expect("config");
        assert_eq!(config.base.scheme.label(), "ABN-9");
        assert_eq!(config.base.device.bits_per_cell, 2);
        assert_eq!(config.epochs, 2);
        assert_eq!(config.seed, 41);
        assert_eq!(config.writes_per_epoch, 2e5);
        assert_eq!(config.error_model, ErrorModel::Analytic);
    }

    #[test]
    fn grid_runs_resumes_and_merges_byte_identical_under_chaos() {
        let problems = tiny_problems();
        // Monte-Carlo, so the chaos run injects worker panics too (an
        // analytic cell has no shards to panic), with per-epoch slots
        // to resume from. Chaos seed 7 panics no shard in epochs 0–1 of
        // either cell's first attempt; epoch 2 of cell 1 panics on its
        // first two attempts.
        let mut spec = spec_2x1();
        spec.error_model = "mc".into();
        spec.epochs = 3;
        spec.checkpoint_every = 1;

        // Fault-free reference run.
        let dir_a = temp_grid_dir("ref");
        let _ = std::fs::remove_dir_all(&dir_a);
        let mut grid = Grid::new(
            spec.clone(),
            dir_a.clone(),
            Launcher::InProcess {
                problems: problems.clone(),
            },
            GridOptions::default(),
        )
        .expect("grid");
        let report = grid.run().expect("run");
        assert_eq!(report.done, 2);
        assert!(report.lost.is_empty());
        let reference = std::fs::read(&report.summary_path).expect("summary");

        // Re-running the same directory is a pure resume: every cell
        // skips, and the summary bytes do not move.
        let report2 = grid.run().expect("rerun");
        assert_eq!(report2.skipped, 2);
        assert_eq!(
            std::fs::read(&report2.summary_path).expect("summary"),
            reference
        );

        // Merge-only over the finished directory reproduces the bytes.
        let report3 = grid.merge_only().expect("merge only");
        assert_eq!(report3.done, 2);
        assert_eq!(
            std::fs::read(&report3.summary_path).expect("summary"),
            reference
        );

        // A different spec is refused for the same directory.
        let mut other = spec.clone();
        other.epochs += 1;
        let mut wrong = Grid::new(
            other,
            dir_a.clone(),
            Launcher::InProcess {
                problems: problems.clone(),
            },
            GridOptions::default(),
        )
        .expect("grid");
        match wrong.run() {
            Err(AccelError::Grid { stage, .. }) => assert_eq!(stage, "manifest"),
            other => panic!("expected manifest refusal, got {other:?}"),
        }

        // The same grid under seeded chaos injection — read faults,
        // spawn faults, worker-side write faults, worker panics, cell
        // retries — must land byte-identical results.
        let chaos = |cell_retries, max_lost_cells| GridOptions {
            chaos: Some(ChaosSchedule::standard(7)),
            cell_retries,
            max_lost_cells,
            ..GridOptions::default()
        };
        let dir_b = temp_grid_dir("chaos");
        let _ = std::fs::remove_dir_all(&dir_b);
        let chaos_report = in_process(&spec, &dir_b, &problems, chaos(6, 0))
            .run()
            .expect("chaos run");
        assert_eq!(chaos_report.done, 2);
        assert_eq!(
            std::fs::read(&chaos_report.summary_path).expect("summary"),
            reference,
            "chaos-injected grid diverged from the fault-free bytes"
        );
        let attempts = attempts_in_telemetry(&dir_b);
        assert!(
            attempts.iter().any(|&a| a > 1),
            "no cell retried: {attempts:?}"
        );

        // What the retries absorbed: with no retries and a loss budget
        // for every cell, the same schedule's first attempts are
        // recorded in lost markers, and one failed on an injected
        // worker panic (attempt 0 derives the same worker chaos seed
        // in both runs).
        let dir_c = temp_grid_dir("chaos-once");
        let _ = std::fs::remove_dir_all(&dir_c);
        let mut once = in_process(&spec, &dir_c, &problems, chaos(0, 2));
        let once_report = once.run().expect("no-retry run");
        let reasons: Vec<String> = spec
            .cells()
            .iter()
            .filter(|cell| once_report.lost.contains(&cell.id))
            .map(|cell| {
                let text = std::fs::read_to_string(once.lost_path(cell)).expect("marker");
                serde_json::from_str::<LostMarker>(&text)
                    .expect("parse")
                    .reason
            })
            .collect();
        assert!(
            reasons.iter().any(|r| r.contains("injected worker panic")),
            "no first attempt failed on a worker panic: {reasons:?}"
        );

        for dir in [dir_a, dir_b, dir_c] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn merge_only_refuses_incomplete_cells() {
        let dir = temp_grid_dir("incomplete");
        let _ = std::fs::remove_dir_all(&dir);
        let mut grid = Grid::new(
            spec_2x1(),
            dir.clone(),
            Launcher::InProcess {
                problems: HashMap::new(),
            },
            GridOptions::default(),
        )
        .expect("grid");
        match grid.merge_only() {
            Err(AccelError::Grid { stage, message }) => {
                assert_eq!(stage, "merge");
                assert!(message.contains("neither complete nor recorded lost"));
            }
            other => panic!("expected merge refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_cells_degrade_gracefully_within_budget() {
        // No problem registered for the model: every launch fails, so
        // every cell exhausts its retries. With a budget covering all
        // cells the grid degrades; without one it errors.
        let spec = spec_2x1();
        let dir = temp_grid_dir("lost");
        let _ = std::fs::remove_dir_all(&dir);
        let mut grid = Grid::new(
            spec.clone(),
            dir.clone(),
            Launcher::InProcess {
                problems: HashMap::new(),
            },
            GridOptions {
                cell_retries: 1,
                max_lost_cells: 2,
                ..GridOptions::default()
            },
        )
        .expect("grid");
        let report = grid.run().expect("degraded run");
        assert_eq!(report.done, 0);
        assert_eq!(report.lost.len(), 2);
        let summary = std::fs::read_to_string(&report.summary_path).expect("summary");
        let parsed: merge::GridSummary = serde_json::from_str(&summary).expect("parse");
        assert_eq!(parsed.lost_cells.len(), 2);
        assert!(parsed.rows.cell_index.is_empty());
        assert_eq!(parsed.cells.status, vec!["lost", "lost"]);
        // The lost markers let a merge-only pass accept the gaps.
        let merged = grid.merge_only().expect("merge only over lost cells");
        assert_eq!(merged.lost.len(), 2);
        assert_eq!(
            std::fs::read_to_string(&merged.summary_path).expect("summary"),
            summary
        );
        let _ = std::fs::remove_dir_all(&dir);

        let dir2 = temp_grid_dir("lost-over");
        let _ = std::fs::remove_dir_all(&dir2);
        let mut strict = Grid::new(
            spec,
            dir2.clone(),
            Launcher::InProcess {
                problems: HashMap::new(),
            },
            GridOptions {
                cell_retries: 1,
                max_lost_cells: 1,
                ..GridOptions::default()
            },
        )
        .expect("grid");
        match strict.run() {
            Err(AccelError::Grid { stage, message }) => {
                assert_eq!(stage, "cells");
                assert!(message.contains("--max-lost-cells"));
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir2);
    }

    /// The process watchdog, the only one the grid has: a worker that
    /// never finishes is killed at the deadline and retried, then lost
    /// or fatal by the budget. The worker script `exec`s its sleep so
    /// the SIGKILL reaches the sleeping process itself.
    #[cfg(unix)]
    #[test]
    fn watchdog_kills_hung_workers_and_retries_them() {
        use std::os::unix::fs::PermissionsExt;

        let spec = spec_2x1();
        let dir = temp_grid_dir("watchdog");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let program = dir.join("hang.sh");
        std::fs::write(&program, "#!/bin/sh\nexec sleep 5\n").expect("write script");
        std::fs::set_permissions(&program, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        let grid = |name: &str, max_lost_cells| {
            let cells = dir.join(name);
            let launcher = Launcher::Process {
                program: program.clone(),
                spec: dir.join("spec.json"),
            };
            let options = GridOptions {
                cell_retries: 1,
                max_lost_cells,
                watchdog_ms: 200,
                ..GridOptions::default()
            };
            Grid::new(spec.clone(), cells, launcher, options).expect("grid")
        };

        match grid("strict", 0).run() {
            Err(AccelError::Grid { stage, message }) => {
                assert_eq!(stage, "cells");
                assert!(message.contains("watchdog"), "{message}");
            }
            other => panic!("expected a watchdog failure, got {other:?}"),
        }

        let started = std::time::Instant::now();
        let mut lenient = grid("lenient", 2);
        let report = lenient.run().expect("degraded run");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(4),
            "watchdog took {:?}",
            started.elapsed()
        );
        assert_eq!(report.lost.len(), 2);
        for cell in spec.cells() {
            let text = std::fs::read_to_string(lenient.lost_path(&cell)).expect("marker");
            let marker: LostMarker = serde_json::from_str(&text).expect("parse");
            assert_eq!(marker.reason, "watchdog", "{}", cell.id);
            assert_eq!(marker.attempts, 2, "{}", cell.id);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn process_worker_stderr_reaches_the_lost_marker_and_the_grid_error() {
        // `sh campaign <spec> <cell-id> --dir <dir>` fails at once: sh
        // cannot open a script named `campaign`, and says so on stderr.
        let mut spec = spec_2x1();
        spec.schemes = vec!["NoECC".into()];
        let dir = temp_grid_dir("stderr-tail");
        let _ = std::fs::remove_dir_all(&dir);
        let grid = |name: &str, max_lost_cells| {
            let launcher = Launcher::Process {
                program: "sh".into(),
                spec: dir.join("spec.json"),
            };
            let options = GridOptions {
                cell_retries: 0,
                max_lost_cells,
                ..GridOptions::default()
            };
            Grid::new(spec.clone(), dir.join(name), launcher, options).expect("grid")
        };
        // The exit status alone names neither the script nor the error.
        let says_why = |text: &str| text.contains("campaign") && text.contains("No such file");

        let mut lenient = grid("lenient", 1);
        let report = lenient.run().expect("degraded run");
        assert_eq!(report.lost.len(), 1);
        let text = std::fs::read_to_string(lenient.lost_path(&spec.cells()[0])).expect("marker");
        let marker: LostMarker = serde_json::from_str(&text).expect("parse");
        assert!(marker.reason.starts_with("exit: "), "{}", marker.reason);
        assert!(says_why(&marker.reason), "{}", marker.reason);

        match grid("strict", 0).run() {
            Err(AccelError::Grid { stage, message }) => {
                assert_eq!(stage, "cells");
                assert!(says_why(&message), "{message}");
            }
            other => panic!("expected a lost-cell failure, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The byte-identity contract under the standard fault mix, over
    /// 32 chaos seeds: a run, a rerun of the finished directory, and a
    /// merge-only pass must each land the fault-free summary. The I/O
    /// paths do not depend on the scheme, so one scheme over two seeds
    /// keeps the sweep cheap.
    #[test]
    fn chaos_seeds_keep_run_rerun_and_merge_only_byte_identical() {
        let problems = tiny_problems();
        let mut spec = spec_2x1();
        spec.schemes = vec!["NoECC".into()];
        spec.seeds = vec![41, 42];
        let (clean_dir, reference) = clean_run(&spec, &problems, "prop-clean");
        let _ = std::fs::remove_dir_all(&clean_dir);

        type Step = fn(&mut Grid) -> Result<GridReport, AccelError>;
        let steps: [(&str, Step); 3] = [
            ("run", Grid::run),
            ("rerun", Grid::run),
            ("merge_only", Grid::merge_only),
        ];
        let mut failures = Vec::new();
        for seed in 0..32u64 {
            let dir = temp_grid_dir(&format!("prop-{seed}"));
            let _ = std::fs::remove_dir_all(&dir);
            let options = GridOptions {
                chaos: Some(ChaosSchedule::standard(seed)),
                cell_retries: 6,
                ..GridOptions::default()
            };
            let mut grid = in_process(&spec, &dir, &problems, options);
            for (step, apply) in steps {
                match apply(&mut grid) {
                    Ok(report) => {
                        if std::fs::read(&report.summary_path).ok().as_ref() != Some(&reference) {
                            failures.push(format!("seed {seed}: {step} summary diverged"));
                        }
                    }
                    Err(e) => failures.push(format!("seed {seed}: {step}: {e}")),
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(failures.is_empty(), "{failures:#?}");
    }

    /// A read bit flip that still parses — a digit of a count turned
    /// into another digit — must never reach the summary: only bytes
    /// two consecutive reads agree on are trusted.
    #[test]
    fn read_flip_that_still_parses_never_reaches_the_summary() {
        let problems = tiny_problems();
        let spec = spec_2x1();
        let (dir, reference) = clean_run(&spec, &problems, "flip-parses");
        let cells = spec.cells();
        let artifact = std::fs::read(artifact_path(&dir, &cells[0])).expect("artifact");
        let key = b"\"clean\": ";
        let digit = artifact
            .windows(key.len())
            .position(|w| w == key)
            .expect("clean count")
            + key.len();
        let roll = digit as u64 * 8;
        // The hazard is real: flipping that bit still parses, and
        // changes a count.
        let mut flipped = artifact.clone();
        flipped[digit] ^= 1;
        let parsed = campaign::parse_state(&flipped).expect("flipped artifact still parses");
        assert!(spec.check_done(&cells[0], &parsed).is_ok());
        assert_ne!(flipped, artifact);

        for step in ["merge_only", "rerun"] {
            let mut grid = in_process(&spec, &dir, &problems, GridOptions::default());
            grid.dice = every_third_read_flipped(roll);
            let report = match step {
                "merge_only" => grid.merge_only(),
                _ => grid.run(),
            }
            .expect(step);
            assert_eq!(report.done, 2, "{step}");
            assert_eq!(
                std::fs::read(&report.summary_path).expect("summary"),
                reference,
                "{step} let a flipped read into the summary"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The done-check is the resume comparison: an artifact that
    /// differs from its cell's config in any recorded field is not the
    /// cell's record, even in a field the cell id does not name.
    #[test]
    fn done_check_refuses_an_artifact_of_another_configuration() {
        let problems = tiny_problems();
        let spec = spec_2x1();
        let (dir, _) = clean_run(&spec, &problems, "done-check");
        let cell = &spec.cells()[0];
        let text = std::fs::read(artifact_path(&dir, cell)).expect("artifact");
        let state = campaign::parse_state(&text).expect("artifact parses");
        assert!(spec.check_done(cell, &state).is_ok());

        let cases: [StateCase; 3] = [
            (|s| s.threads += 1, "threads"),
            (|s| s.initial_writes = 1e6, "initial_writes"),
            (|s| s.error_model = "mc".into(), "error_model"),
        ];
        for (mutate, field) in cases {
            let mut other = state.clone();
            mutate(&mut other);
            let refused = spec.check_done(cell, &other).unwrap_err();
            assert!(refused.contains(&format!(": {field}: ")), "{refused}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A read flip that breaks parsing on a done cell (`{` becomes
    /// `z`) is a transient fault, not a verdict: the cell must not
    /// re-run, and a merge-only pass must not refuse it.
    #[test]
    fn read_flip_that_breaks_parsing_neither_reruns_nor_refuses_a_done_cell() {
        let problems = tiny_problems();
        let spec = spec_2x1();
        let (dir, reference) = clean_run(&spec, &problems, "flip-breaks");

        let mut grid = in_process(&spec, &dir, &problems, GridOptions::default());
        grid.dice = every_third_read_flipped(0);
        let rerun = grid.run().expect("rerun");
        assert_eq!(rerun.skipped, 2, "a done cell was re-run");
        assert_eq!(attempts_in_telemetry(&dir), [0, 0]);
        assert_eq!(
            std::fs::read(&rerun.summary_path).expect("summary"),
            reference
        );
        let merged = grid.merge_only().expect("merge only");
        assert_eq!(merged.done, 2);
        assert_eq!(
            std::fs::read(&merged.summary_path).expect("summary"),
            reference
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn final write leaves a strict prefix at the artifact path
    /// of an analytic cell. The cell is not done, and its retry resumes
    /// from the checkpoint slot to the same bytes.
    #[test]
    fn torn_final_write_on_an_analytic_cell_is_retried_to_success() {
        let problems = tiny_problems();
        let spec = spec_2x1();
        let (dir, reference) = clean_run(&spec, &problems, "torn-final");
        let cells = spec.cells();
        let path = artifact_path(&dir, &cells[0]);
        let bytes = std::fs::read(&path).expect("artifact");
        chaos::fs::write_atomic(&path, &bytes, Some(chaos::IoFault::Torn { roll: 977 }))
            .expect_err("a torn write reports failure");
        assert!(std::fs::read(&path).expect("torn").len() < bytes.len());

        let mut grid = in_process(&spec, &dir, &problems, GridOptions::default());
        match grid.merge_only() {
            Err(AccelError::Grid { stage, .. }) => assert_eq!(stage, "merge"),
            other => panic!("a torn artifact counted as done: {other:?}"),
        }
        let report = grid.run().expect("retry");
        assert_eq!((report.done, report.skipped), (2, 1));
        assert_eq!(attempts_in_telemetry(&dir), [1, 0]);
        assert_eq!(std::fs::read(&path).expect("artifact"), bytes);
        assert_eq!(
            std::fs::read(&report.summary_path).expect("summary"),
            reference
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_chaos_seed_varies_by_cell_and_attempt() {
        let base = worker_chaos_seed(7, 0, 0);
        assert_ne!(base, worker_chaos_seed(7, 1, 0));
        assert_ne!(base, worker_chaos_seed(7, 0, 1));
        assert_ne!(base, worker_chaos_seed(8, 0, 0));
        // Replayable: the same coordinates always derive the same seed.
        assert_eq!(base, worker_chaos_seed(7, 0, 0));
    }
}
