//! Lifetime fault-injection campaigns: graceful degradation over wear.
//!
//! The paper argues that data-aware codes let an accelerator "handle
//! faults gracefully" as stuck-at cells accumulate over the device
//! lifetime (§II-C6, §V-B), but evaluates only frozen fault snapshots.
//! This module closes the gap: a [`Campaign`] steps simulated lifetime
//! forward epoch by epoch, mapping accumulated writes to a stuck-cell
//! fraction through the log-uniform endurance model of
//! [`xbar::endurance`], re-programming the accelerator at the epoch's
//! fault rate (re-running the A-search and, when
//! [`AccelConfig::remap`] is set, the fault-aware remap — the
//! post-fabrication test-and-remap flow repeated at field
//! re-calibration), and recording misclassification / flip-rate / ECU
//! statistics per epoch. The result is a degradation curve over
//! lifetime rather than a point estimate.
//!
//! # Crash safety
//!
//! Campaigns are resumable, and the recovery path is hardened against
//! everything the `chaos` crate can throw at it:
//!
//! - **A/B generation slots.** After each epoch (subject to
//!   [`CampaignConfig::checkpoint_every`]) the full state serializes
//!   into a checkpoint *slot*: `<path>.a` for even generations,
//!   `<path>.b` for odd, where the generation is the completed-epoch
//!   count. Each slot is written atomically (temp file + rename) and
//!   carries a one-line envelope header with the payload length and a
//!   CRC-32 checksum, so a torn or bit-flipped slot is *detected*, not
//!   silently resumed from. Because writes alternate slots, the
//!   previous generation always survives a failed write.
//! - **Self-healing resume.** [`Campaign::open`] examines both slots
//!   plus the plain final file and recovers from the newest artifact
//!   that verifies (CRC + parse + version); every corrupt candidate is
//!   surfaced as a `checkpoint_fallback` obs event. When *no* artifact
//!   verifies, it starts over: every epoch is recomputable.
//! - **Verified I/O.** Every slot and final write goes through
//!   `accel::envelope`'s one verified write (atomic, read back and
//!   compared, retried), and every resume read through its one
//!   verified read (reread until two consecutive reads agree). A
//!   periodic slot write that fails every retry emits
//!   `checkpoint_write_failed` and the campaign continues — losing a
//!   checkpoint costs re-computation, not results. Only the *final*
//!   plain-JSON write on completion is load-bearing and fails the run.
//! - **Deterministic chaos.** [`Campaign::open`] installs a
//!   [`chaos::ChaosSchedule`] that injects seeded faults at every seam
//!   (checkpoint writes/reads, the final write, worker shards), so the
//!   whole recovery machinery is exercised reproducibly in tests. An
//!   injected shard panic fails its epoch with
//!   [`AccelError::WorkerPanic`]; the finished epochs stay in the
//!   checkpoint slots, and the grid's cell retry resumes from them.
//!
//! [`Campaign::open`] validates that the checkpoint was recorded
//! under the same campaign parameters and continues from the first
//! missing epoch. Because every epoch is a pure function of
//! `(seed, epoch, config, test set)`, a resumed campaign's final state
//! is **byte-identical** to an uninterrupted run — tested in this
//! module and in `tests/chaos_soak.rs`.
//!
//! Wall-clock timing is deliberately excluded from the state: it would
//! break byte-identical resume. Each epoch's evaluation, programming
//! and checkpoint-write times go to the `campaign_epoch` event instead,
//! which is where the benchmark's traced `campaign.checkpoint_frac`
//! comes from.

use std::path::{Path, PathBuf};

use chaos::{ChaosSchedule, IoFault, Seam};
use neural::{QuantizedNetwork, Tensor};
use serde::{Deserialize, Serialize, Value};
use xbar::endurance::EnduranceParams;

use crate::analytic::{self, ErrorModel};
use crate::envelope::{self, Envelope, ReadError};
use crate::sim::{self, ShardGap, SimResult};
use crate::{AccelConfig, AccelError, ProtectionScheme};

/// Checkpoint format version, bumped on incompatible schema changes.
/// Version 2 added graceful-degradation fields (`lost_samples`,
/// `gaps`) to epoch records and moved periodic checkpoints into
/// CRC-protected A/B generation slots. Version 3 records the resolved
/// estimator (`error_model`), so analytic campaigns resume like
/// Monte-Carlo ones.
pub const CHECKPOINT_VERSION: u64 = 3;

/// Per-epoch seed stride: the 64-bit golden-ratio constant also used
/// for per-matrix seeds, so epoch streams never overlap worker streams.
const EPOCH_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Parameters of a lifetime campaign.
///
/// The epoch schedule models periodic full-array re-programming (model
/// updates / re-calibrations): before epoch `e` the array has absorbed
/// `initial_writes + writes_per_epoch · e` writes, which the endurance
/// distribution converts to a stuck-cell fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Accelerator configuration evaluated at every epoch; its
    /// `fault_rate` is overwritten per epoch from the wear model.
    pub base: AccelConfig,
    /// Number of lifetime epochs to simulate.
    pub epochs: u64,
    /// Writes already absorbed before epoch 0 (default: the weakest
    /// cells' endurance floor, so degradation starts immediately).
    pub initial_writes: f64,
    /// Full-array rewrites added per epoch.
    pub writes_per_epoch: f64,
    /// Endurance distribution mapping writes to stuck-cell fraction.
    pub endurance: EnduranceParams,
    /// Base RNG seed. Keep below 2^53: checkpoints store integers as
    /// JSON numbers, which must round-trip through `f64` exactly.
    pub seed: u64,
    /// Worker threads per evaluation.
    pub threads: usize,
    /// Write a checkpoint every this many epochs (the final epoch is
    /// always checkpointed). 0 disables periodic checkpoints.
    pub checkpoint_every: u64,
    /// Which error model evaluates every epoch. It is recorded in
    /// [`CampaignState::error_model`], and resuming under another one
    /// is refused: one series never mixes estimators.
    pub error_model: ErrorModel,
    /// The knob overrides [`CampaignConfig::apply`] made to `base`, as
    /// an ordered JSON object (empty by default). Recorded in
    /// [`CampaignState::set`], so resuming under other overrides is
    /// refused.
    pub set: Value,
}

impl CampaignConfig {
    /// A campaign over `epochs` epochs with the default wear schedule:
    /// writes start at the endurance floor (1e6) and each epoch adds
    /// 2e4 rewrites, ramping the stuck-cell fraction from 0 to ~1.3 %
    /// over ten epochs — the regime where the paper's codes matter.
    pub fn new(base: AccelConfig, epochs: u64, seed: u64) -> CampaignConfig {
        let endurance = EnduranceParams::default();
        CampaignConfig {
            base,
            epochs,
            initial_writes: endurance.min_writes,
            writes_per_epoch: 2e4,
            endurance,
            seed,
            threads: 1,
            checkpoint_every: 1,
            error_model: ErrorModel::Mc,
            set: Value::default(),
        }
    }

    /// Overrides one knob of `base` through [`AccelConfig::apply`] and
    /// records it in [`CampaignConfig::set`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] for an unknown knob or a
    /// bad value, and for a knob this config already overrides.
    pub fn apply(&mut self, knob: &str, value: &Value) -> Result<(), AccelError> {
        let invalid = |detail: String| Err(AccelError::InvalidConfig(detail));
        let Value::Object(set) = &mut self.set else {
            return invalid("knob overrides must be an object".into());
        };
        if set.iter().any(|(k, _)| k == knob) {
            return invalid(format!("knob {knob} is set twice"));
        }
        self.base.apply(knob, value)?;
        set.push((knob.to_string(), value.clone()));
        Ok(())
    }

    /// Writes absorbed before epoch `epoch`.
    pub fn writes_at(&self, epoch: u64) -> f64 {
        self.initial_writes + self.writes_per_epoch * epoch as f64
    }

    /// Stuck-cell fraction at epoch `epoch`.
    pub fn fault_rate_at(&self, epoch: u64) -> f64 {
        self.endurance.failure_probability(self.writes_at(epoch))
    }

    /// Checks everything a campaign needs of its configuration: the
    /// base accelerator config ([`AccelConfig::validate`]), a scheme
    /// whose label survives the checkpoint round-trip, a seed below
    /// 2^53 (JSON numbers must round-trip through `f64` exactly), a
    /// finite positive wear rate, at least one thread, and, under the
    /// analytic estimator, a base config inside its validity envelope
    /// ([`analytic::supports`]). A grid spec is valid when this passes
    /// for each of its cells.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] naming the first failing
    /// field.
    pub fn validate(&self) -> Result<(), AccelError> {
        self.base.validate()?;
        let invalid = |detail: String| Err(AccelError::InvalidConfig(detail));
        let label = self.base.scheme.label();
        if ProtectionScheme::from_label(&label).as_ref() != Some(&self.base.scheme) {
            return invalid(format!(
                "scheme {label} does not survive a checkpoint label round-trip"
            ));
        }
        if self.seed >= (1u64 << 53) {
            return invalid(format!(
                "seed {} is not below 2^53, so it cannot round-trip through JSON",
                self.seed
            ));
        }
        if !self.writes_per_epoch.is_finite() || self.writes_per_epoch <= 0.0 {
            return invalid(format!(
                "writes_per_epoch {} must be finite and positive",
                self.writes_per_epoch
            ));
        }
        if self.threads == 0 {
            return invalid("threads must be positive".into());
        }
        if self.error_model == ErrorModel::Analytic && !analytic::supports(&self.base) {
            return invalid(
                "error_model analytic is valid only with the revert policy, no retries, \
                 no remap, 16 input bits and no shard chaos"
                    .into(),
            );
        }
        Ok(())
    }

    /// Accepts `state` only when it was recorded under this config:
    /// every field of [`CampaignState`] but `samples` and `completed`
    /// must equal what a fresh campaign records, and the state may
    /// claim no more epochs than it plans. The one identity
    /// comparison: [`Campaign::open`] resumes only what passes it, and
    /// a grid cell is done only when its artifact passes it.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::ResumeMismatch`] naming the first field
    /// that differs.
    pub fn check(&self, state: &CampaignState) -> Result<(), AccelError> {
        let want = self.fresh_state().to_value();
        let got = state.to_value();
        // A key missing from one tree is a `#[serde(default)]` field
        // left at its default, which renders as `{}`.
        let render = |v: Option<&Value>| {
            serde_json::to_string(v.unwrap_or(&Value::default())).unwrap_or_default()
        };
        let fields = want
            .as_object()
            .into_iter()
            .chain(got.as_object())
            .flatten();
        for (key, _) in fields {
            if matches!(key.as_str(), "samples" | "completed") {
                continue;
            }
            let (w, g) = (want.get(key), got.get(key));
            if w != g {
                return Err(AccelError::ResumeMismatch(format!(
                    "{key}: campaign wants {}, checkpoint has {}",
                    render(w),
                    render(g)
                )));
            }
        }
        if state.completed.len() as u64 > state.epochs {
            return Err(AccelError::ResumeMismatch(format!(
                "checkpoint claims {} completed epochs of {}",
                state.completed.len(),
                state.epochs
            )));
        }
        Ok(())
    }

    /// The deterministic evaluation seed for one epoch.
    fn epoch_seed(&self, epoch: u64) -> u64 {
        self.seed
            .wrapping_add(epoch.wrapping_mul(EPOCH_SEED_STRIDE))
    }

    /// The state this config expects to find in a matching checkpoint.
    fn fresh_state(&self) -> CampaignState {
        CampaignState {
            version: CHECKPOINT_VERSION,
            scheme: self.base.scheme.label(),
            cell_bits: self.base.device.bits_per_cell as u64,
            remap: self.base.remap,
            set: self.set.clone(),
            epochs: self.epochs,
            initial_writes: self.initial_writes,
            writes_per_epoch: self.writes_per_epoch,
            min_endurance_writes: self.endurance.min_writes,
            max_endurance_writes: self.endurance.max_writes,
            seed: self.seed,
            threads: self.threads as u64,
            error_model: self.error_model.label().to_string(),
            samples: 0,
            completed: Vec::new(),
        }
    }
}

/// One completed lifetime epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Full-array writes absorbed before this epoch.
    pub writes: f64,
    /// Stuck-cell fraction the wear model assigns to those writes.
    pub fault_rate: f64,
    /// Top-1 misclassification rate.
    pub misclassification: f64,
    /// Top-5 misclassification rate.
    pub top5_misclassification: f64,
    /// Fraction of predictions flipped vs the exact fixed-point result.
    pub flip_rate: f64,
    /// Evaluated examples.
    pub samples: u64,
    /// ECU group-cycles decoded clean.
    pub clean: u64,
    /// ECU group-cycles corrected by a table hit.
    pub corrected: u64,
    /// ECU group-cycles with no table entry.
    pub uncorrectable: u64,
    /// ECU group-cycles flagged by the `B` check.
    pub miscorrected: u64,
    /// ECU group-cycles whose error was a multiple of `A`.
    pub silent_a: u64,
    /// ECU read retries.
    pub retries: u64,
    /// Group-cycles evaluated without any code.
    pub uncoded: u64,
    /// Always 0 (a shard panic fails the epoch instead of dropping
    /// samples). Kept so checkpoint version 3 artifacts stay
    /// byte-identical.
    pub lost_samples: u64,
    /// Always empty, like `lost_samples`.
    pub gaps: Vec<ShardGap>,
}

impl EpochRecord {
    fn from_result(epoch: u64, writes: f64, fault_rate: f64, r: &SimResult) -> EpochRecord {
        EpochRecord {
            epoch,
            writes,
            fault_rate,
            misclassification: r.misclassification,
            top5_misclassification: r.top5_misclassification,
            flip_rate: r.flip_rate,
            samples: r.samples as u64,
            clean: r.stats.clean,
            corrected: r.stats.corrected,
            uncorrectable: r.stats.uncorrectable,
            miscorrected: r.stats.miscorrected,
            silent_a: r.stats.silent_a,
            retries: r.stats.retries,
            uncoded: r.stats.uncoded,
            lost_samples: r.lost_samples as u64,
            gaps: r.gaps.clone(),
        }
    }
}

/// The complete, serializable state of a campaign: the parameters it
/// was launched with (for resume validation) plus every completed
/// epoch. Contains no wall-clock data, so serializing it is
/// deterministic — the basis of the byte-identical-resume guarantee.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignState {
    /// Checkpoint schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Scheme label (`ProtectionScheme::label`).
    pub scheme: String,
    /// Bits per memristor cell.
    pub cell_bits: u64,
    /// Whether fault-aware remapping ran at each re-programming.
    pub remap: bool,
    /// The knob overrides the campaign ran under
    /// ([`CampaignConfig::set`]); left out of the JSON when empty.
    #[serde(default)]
    pub set: Value,
    /// Total epochs the campaign will run.
    pub epochs: u64,
    /// Writes absorbed before epoch 0.
    pub initial_writes: f64,
    /// Writes added per epoch.
    pub writes_per_epoch: f64,
    /// Endurance floor (writes).
    pub min_endurance_writes: f64,
    /// Endurance ceiling (writes).
    pub max_endurance_writes: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads per evaluation.
    pub threads: u64,
    /// Label of the estimator every epoch ran (`mc` or `analytic`).
    pub error_model: String,
    /// Test-set size (0 until the first epoch runs).
    pub samples: u64,
    /// Completed epochs, in order.
    pub completed: Vec<EpochRecord>,
}

impl CampaignState {
    /// Serializes the state to pretty JSON (the checkpoint format).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Checkpoint`] if serialization fails.
    pub fn to_json(&self) -> Result<String, AccelError> {
        serde_json::to_string_pretty(self).map_err(|e| AccelError::Checkpoint {
            path: "<memory>".into(),
            message: format!("serialize: {e:?}"),
        })
    }

    /// Parses a checkpoint JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Checkpoint`] on malformed JSON or a
    /// mismatched schema version.
    pub fn from_json(json: &str) -> Result<CampaignState, AccelError> {
        let state: CampaignState =
            serde_json::from_str(json).map_err(|e| AccelError::Checkpoint {
                path: "<memory>".into(),
                message: format!("parse: {e:?}"),
            })?;
        if state.version != CHECKPOINT_VERSION {
            return Err(AccelError::Checkpoint {
                path: "<memory>".into(),
                message: format!(
                    "checkpoint version {} but this binary writes {}",
                    state.version, CHECKPOINT_VERSION
                ),
            });
        }
        Ok(state)
    }
}

/// A resumable lifetime fault-injection campaign.
///
/// # Examples
///
/// ```
/// use accel::campaign::{Campaign, CampaignConfig};
/// use accel::{AccelConfig, ProtectionScheme};
/// use neural::{Dense, Network, QuantizedNetwork, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let net = Network::new(vec![Box::new(Dense::new(8, 4, &mut rng))]);
/// let qnet = QuantizedNetwork::from_network(&net);
/// let images = Tensor::from_vec(vec![2, 8], vec![0.5; 16]);
/// let labels = vec![0usize, 1];
///
/// let base = AccelConfig::new(ProtectionScheme::None);
/// let mut campaign = Campaign::new(CampaignConfig::new(base, 2, 11))?;
/// let state = campaign.run(&qnet, &images, &labels)?;
/// assert_eq!(state.completed.len(), 2);
/// // Accumulated writes grow the stuck-cell fraction monotonically.
/// assert!(state.completed[1].fault_rate >= state.completed[0].fault_rate);
/// # Ok::<(), accel::AccelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    state: CampaignState,
    checkpoint: Option<PathBuf>,
    /// Deterministic fault injection; with no schedule (the default)
    /// every I/O seam and shard runs clean. Its counters are
    /// process-local, deliberately not part of the serialized state.
    dice: ChaosDice,
}

/// Rolls a chaos schedule at the I/O seams, owning one operation
/// counter per [`Seam`]. Shared by [`Campaign`] (checkpoint and final
/// writes, checkpoint reads) and the [`grid`](crate::grid) driver
/// (worker spawns, manifest and marker writes, artifact reads), through
/// the verified I/O of `accel::envelope`.
///
/// Decisions replay from the schedule's seed and these counters, which
/// start at 0 for every new dice — so each `Campaign` value and each
/// grid driver sees the same fault script on every run. Injected
/// faults are announced as `chaos_fault` obs events, so chaos runs are
/// self-documenting.
#[derive(Debug, Clone)]
pub struct ChaosDice {
    chaos: Option<ChaosSchedule>,
    counters: [u64; 5],
    #[cfg(test)]
    script: Vec<(Seam, u64, IoFault)>,
}

impl ChaosDice {
    /// Dice drawing from `chaos` (or never faulting when `None`).
    pub fn new(chaos: Option<ChaosSchedule>) -> ChaosDice {
        ChaosDice {
            chaos,
            counters: [0; 5],
            #[cfg(test)]
            script: Vec::new(),
        }
    }

    /// Test-only dice that inject exactly the listed faults, each at
    /// one `(seam, operation index)` point, and roll clean elsewhere.
    #[cfg(test)]
    pub(crate) fn scripted(script: Vec<(Seam, u64, IoFault)>) -> ChaosDice {
        ChaosDice {
            script,
            ..ChaosDice::new(None)
        }
    }

    /// The schedule the dice roll, if any.
    pub(crate) fn schedule(&self) -> Option<ChaosSchedule> {
        self.chaos
    }

    /// The fault (if any) for the next operation at `seam`, advancing
    /// that seam's counter. Without a schedule no counter moves.
    pub fn fault(&mut self, seam: Seam) -> Option<IoFault> {
        let slot = match seam {
            Seam::CheckpointWrite => 0,
            Seam::CheckpointRead => 1,
            Seam::FinalWrite => 2,
            Seam::EventWrite => 3,
            Seam::ProcessSpawn => 4,
        };
        #[cfg(test)]
        if !self.script.is_empty() {
            let index = self.counters[slot];
            self.counters[slot] += 1;
            return self
                .script
                .iter()
                .find(|(s, i, _)| *s == seam && *i == index)
                .map(|&(_, _, fault)| fault);
        }
        let schedule = self.chaos?;
        let counter = &mut self.counters[slot];
        let index = *counter;
        *counter += 1;
        let fault = schedule.io_fault(seam, index);
        if let Some(f) = &fault {
            obs::events::emit(
                obs::Event::new("chaos_fault")
                    .str("seam", seam.label())
                    .u64("index", index)
                    .str("fault", f.label()),
            );
        }
        fault
    }
}

/// The checkpoint-slot envelope: a
/// `{"ckpt":3,"generation":G,"len":L,"crc32":C}` header line ahead of
/// the pretty-printed [`CampaignState`]. The generation is the
/// completed-epoch count at write time; resume picks the highest
/// generation that verifies.
pub(crate) const SLOT_ENVELOPE: Envelope = Envelope {
    tag: "ckpt",
    version: CHECKPOINT_VERSION,
};

/// Path of the A/B slot for a generation: `<path>.a` for even
/// generations, `<path>.b` for odd. Alternating means a failed or torn
/// write can only damage the slot being replaced, never the newest
/// surviving generation.
fn slot_path(path: &Path, generation: u64) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let suffix = if generation % 2 == 0 { "a" } else { "b" };
    path.with_file_name(format!("{name}.{suffix}"))
}

/// Opens a slot file (envelope, then the state JSON). Any failure
/// returns a short reason string (surfaced in `checkpoint_fallback`
/// events).
fn parse_slot(bytes: &[u8]) -> Result<(u64, CampaignState), String> {
    let (generation, body) = SLOT_ENVELOPE.open(bytes)?;
    Ok((generation, parse_state(body)?))
}

/// Opens the plain final file, which has no envelope: its generation
/// is its completed-epoch count.
fn parse_final(bytes: &[u8]) -> Result<(u64, CampaignState), String> {
    let state = parse_state(bytes)?;
    Ok((state.completed.len() as u64, state))
}

/// Parses a plain (unenveloped) state file.
pub(crate) fn parse_state(bytes: &[u8]) -> Result<CampaignState, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "payload is not UTF-8")?;
    CampaignState::from_json(text).map_err(|e| e.to_string())
}

impl Campaign {
    /// Starts a fresh campaign.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when
    /// [`CampaignConfig::validate`] refuses the config.
    pub fn new(config: CampaignConfig) -> Result<Campaign, AccelError> {
        config.validate()?;
        let state = config.fresh_state();
        Ok(Campaign {
            config,
            state,
            checkpoint: None,
            dice: ChaosDice::new(None),
        })
    }

    /// Opens the campaign checkpointing to `path` under `chaos` (the
    /// deterministic fault schedule, installed before any artifact is
    /// read; `None` runs every seam clean): resumes from the newest
    /// artifact that verifies, and starts fresh when there is none.
    ///
    /// Recovery examines up to three artifacts — the `.a` and `.b`
    /// generation slots and the plain final file at `path` — each
    /// through the verified read of `accel::envelope` (envelope,
    /// CRC-32, parse). Each rejected candidate is reported as a
    /// `checkpoint_fallback` obs event naming the generation used, 0
    /// when none verified. Starting over is safe because every epoch is
    /// a pure function of the config, so a grid cell whose every
    /// artifact is corrupt recomputes instead of failing.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] as [`Campaign::new`] does,
    /// and [`AccelError::ResumeMismatch`] when [`CampaignConfig::check`]
    /// refuses the verified artifact: it is another campaign's work,
    /// and recomputing would silently overwrite it.
    pub fn open(
        config: CampaignConfig,
        path: &Path,
        chaos: Option<ChaosSchedule>,
    ) -> Result<Campaign, AccelError> {
        let mut campaign = Campaign::new(config)?.with_checkpoint(path.to_path_buf());
        campaign.dice = ChaosDice::new(chaos);
        let any_artifact =
            path.exists() || slot_path(path, 0).exists() || slot_path(path, 1).exists();
        if !any_artifact {
            return Ok(campaign);
        }

        // Collect every candidate artifact: the two generation slots
        // and the plain final file. A missing file is simply not a
        // candidate; a present-but-invalid one is a fallback.
        let mut best: Option<(u64, CampaignState)> = None;
        let mut failures: Vec<(String, String)> = Vec::new();
        type Parse = fn(&[u8]) -> Result<(u64, CampaignState), String>;
        let candidates: [(PathBuf, Parse); 3] = [
            (slot_path(path, 0), parse_slot),
            (slot_path(path, 1), parse_slot),
            (path.to_path_buf(), parse_final),
        ];
        for (candidate, parse) in &candidates {
            match envelope::read(candidate, &mut campaign.dice, parse) {
                Ok((generation, state)) => {
                    if best.as_ref().map_or(true, |(g, _)| generation > *g) {
                        best = Some((generation, state));
                    }
                }
                Err(ReadError::Missing) => {}
                Err(e) => failures.push((candidate.display().to_string(), e.to_string())),
            }
        }
        // Surface each rejected artifact: recovery happened, and the
        // event log should say so (and from which generation).
        let used_generation = best.as_ref().map_or(0, |(g, _)| *g);
        for (p, reason) in &failures {
            obs::events::emit(
                obs::Event::new("checkpoint_fallback")
                    .str("path", p)
                    .str("reason", reason)
                    .u64("used_generation", used_generation),
            );
        }
        let Some((_, state)) = best else {
            // Nothing verified: start over under a fresh fault script,
            // as a new campaign would.
            campaign.dice = ChaosDice::new(chaos);
            return Ok(campaign);
        };
        campaign.config.check(&state)?;
        campaign.state = state;
        Ok(campaign)
    }

    /// Sets the checkpoint path for periodic saves during
    /// [`run`](Campaign::run).
    #[must_use]
    pub fn with_checkpoint(mut self, path: PathBuf) -> Campaign {
        self.checkpoint = Some(path);
        self
    }

    /// The campaign state accumulated so far.
    pub fn state(&self) -> &CampaignState {
        &self.state
    }

    /// Number of epochs already completed.
    pub fn completed_epochs(&self) -> u64 {
        self.state.completed.len() as u64
    }

    /// Whether every epoch has been evaluated.
    pub fn is_complete(&self) -> bool {
        self.completed_epochs() >= self.config.epochs
    }

    /// Runs every remaining epoch, checkpointing per
    /// [`CampaignConfig::checkpoint_every`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors ([`crate::sim::evaluate`]) and
    /// checkpoint I/O failures; returns
    /// [`AccelError::ResumeMismatch`] when the test set's size differs
    /// from the one recorded in a resumed checkpoint. On error the
    /// completed epochs remain in [`state`](Campaign::state) so callers
    /// can dump partial results.
    pub fn run(
        &mut self,
        qnet: &QuantizedNetwork,
        images: &Tensor,
        labels: &[usize],
    ) -> Result<&CampaignState, AccelError> {
        self.run_epochs(qnet, images, labels, self.config.epochs)
    }

    /// Runs remaining epochs up to epoch `limit` (exclusive), capped at
    /// the campaign's epoch count. Used to simulate interrupted runs in
    /// tests and to step campaigns incrementally.
    ///
    /// # Errors
    ///
    /// See [`run`](Campaign::run).
    pub fn run_epochs(
        &mut self,
        qnet: &QuantizedNetwork,
        images: &Tensor,
        labels: &[usize],
        limit: u64,
    ) -> Result<&CampaignState, AccelError> {
        if self.state.samples != 0 && self.state.samples != labels.len() as u64 {
            return Err(AccelError::ResumeMismatch(format!(
                "checkpoint evaluated {} samples, this test set has {}",
                self.state.samples,
                labels.len()
            )));
        }
        let limit = limit.min(self.config.epochs);
        while self.completed_epochs() < limit {
            let epoch = self.completed_epochs();
            let writes = self.config.writes_at(epoch);
            let fault_rate = self.config.fault_rate_at(epoch);
            let mut config = self.config.base.clone().with_fault_rate(fault_rate);
            // Shard chaos comes from the schedule per epoch unless the
            // base config pinned an explicit hook (tests do). Analytic
            // campaigns skip it: shard chaos exercises the MC
            // scheduler's panic path, which the analytic path does not
            // have — drawing it would only force an envelope refusal
            // (`analytic::supports`), not test anything. The I/O seams
            // (checkpoint, final) stay fully injected for analytic
            // cells.
            if let Some(schedule) = self.dice.schedule() {
                if matches!(config.shard_chaos, chaos::ShardChaos::Off)
                    && !matches!(self.config.error_model, ErrorModel::Analytic)
                {
                    config.shard_chaos = schedule.shard_chaos(epoch);
                }
            }
            // Wall timings live only in the event log, never in
            // `CampaignState`: checkpoints must stay byte-identical
            // across re-runs. `span_total_ns("program")` deltas isolate
            // the re-program + A-search share of the evaluation (shard
            // workers flush their metric shards before `evaluate`
            // returns, so the total is current at both reads).
            let eval_start_ns = obs::now_ns();
            let program_ns_before = obs::span_total_ns("program");
            let threads = self.config.threads;
            let result = match self.config.error_model {
                ErrorModel::Mc => sim::evaluate(
                    qnet,
                    images,
                    labels,
                    &config,
                    self.config.epoch_seed(epoch),
                    threads,
                ),
                ErrorModel::Analytic => {
                    analytic::predict_threaded(qnet, images, labels, &config, threads)
                }
            }?;
            let eval_ns = obs::now_ns().saturating_sub(eval_start_ns);
            let program_ns = obs::span_total_ns("program").saturating_sub(program_ns_before);
            self.state.samples = labels.len() as u64;
            let record = EpochRecord::from_result(epoch, writes, fault_rate, &result);
            self.state.completed.push(record.clone());
            let due = self.config.checkpoint_every != 0
                && (epoch + 1) % self.config.checkpoint_every == 0;
            let mut checkpoint_ns = 0u64;
            if due || self.is_complete() {
                let ckpt_start_ns = obs::now_ns();
                if let Err(e) = self.save_checkpoint() {
                    // A lost periodic checkpoint costs re-computation
                    // on resume, never results: report it and keep
                    // going. The newest surviving generation remains
                    // the recovery point.
                    obs::events::emit(
                        obs::Event::new("checkpoint_write_failed")
                            .str(
                                "path",
                                &self
                                    .checkpoint
                                    .as_ref()
                                    .map(|p| p.display().to_string())
                                    .unwrap_or_default(),
                            )
                            .u64("attempts", u64::from(envelope::IO_RETRIES) + 1)
                            .str("error", &e.to_string()),
                    );
                }
                // Only report a write latency when a checkpoint was
                // actually written; with no path configured the save is
                // a no-op and the field stays 0.
                if self.checkpoint.is_some() {
                    checkpoint_ns = obs::now_ns().saturating_sub(ckpt_start_ns);
                }
            }
            obs::events::emit(
                obs::Event::new("campaign_epoch")
                    .str("scheme", &self.state.scheme)
                    .u64("epoch", record.epoch)
                    .f64("writes", record.writes)
                    .f64("fault_rate", record.fault_rate)
                    .f64("misclassification", record.misclassification)
                    .f64("top5_misclassification", record.top5_misclassification)
                    .f64("flip_rate", record.flip_rate)
                    .u64("samples", record.samples)
                    .u64("clean", record.clean)
                    .u64("corrected", record.corrected)
                    .u64("uncorrectable", record.uncorrectable)
                    .u64("miscorrected", record.miscorrected)
                    .u64("silent_a", record.silent_a)
                    .u64("retries", record.retries)
                    .u64("uncoded", record.uncoded)
                    .u64("eval_ns", eval_ns)
                    .u64("program_ns", program_ns)
                    .u64("checkpoint_ns", checkpoint_ns)
                    .u64("lost_samples", record.lost_samples),
            );
            if self.is_complete() {
                // The final results file is load-bearing (it is what
                // the grid merge and downstream tooling read),
                // so unlike the periodic slots its failure fails the
                // run. Written plain (no envelope) and atomically, so
                // completed campaigns keep the stable byte-identical
                // JSON format.
                self.write_final()?;
            }
        }
        Ok(&self.state)
    }

    /// Writes the current state into its generation slot (a no-op if
    /// no checkpoint path is set) through the verified write of
    /// `accel::envelope`. Generations alternate between the `.a` and
    /// `.b` slots, so the previous checkpoint survives any failure here.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Checkpoint`] when every attempt fails.
    /// Callers inside the epoch loop treat that as non-fatal, and so
    /// does [`crate::grid::worker::run_cell`] when it saves a failed
    /// attempt's finished epochs.
    pub fn save_checkpoint(&mut self) -> Result<(), AccelError> {
        let Some(path) = self.checkpoint.clone() else {
            return Ok(());
        };
        let json = self.state.to_json()?;
        let generation = self.state.completed.len() as u64;
        let slot = slot_path(&path, generation);
        let payload = SLOT_ENVELOPE.seal(generation, json.as_bytes());
        self.ensure_parent_dir(&path)?;
        envelope::write(&slot, &payload, &mut self.dice, Seam::CheckpointWrite).map_err(|message| {
            AccelError::Checkpoint {
                path: slot.display().to_string(),
                message,
            }
        })
    }

    /// Rewrites the plain final-results file when the campaign is
    /// complete (a no-op otherwise, and without a checkpoint path).
    ///
    /// [`run`](Campaign::run) writes the final file from the epoch
    /// loop, but a campaign killed between its completing checkpoint
    /// slot and the final write resumes fully complete with *no*
    /// epochs left to execute — `run` returns without touching disk
    /// and the load-bearing final artifact stays missing (or corrupt,
    /// if it was flipped in place). Callers that must guarantee the
    /// final artifact verifies — the grid worker does — call this
    /// after `run`; the rewrite is byte-identical when the file
    /// already exists.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Checkpoint`] when every write attempt
    /// fails read-back verification.
    pub fn finalize(&mut self) -> Result<(), AccelError> {
        if self.is_complete() {
            self.write_final()
        } else {
            Ok(())
        }
    }

    /// Writes the plain final-results JSON to the checkpoint path
    /// itself (no envelope — the stable format every consumer reads)
    /// through the verified write of `accel::envelope`. A no-op
    /// without a checkpoint path.
    fn write_final(&mut self) -> Result<(), AccelError> {
        let Some(path) = self.checkpoint.clone() else {
            return Ok(());
        };
        let json = self.state.to_json()?;
        self.ensure_parent_dir(&path)?;
        envelope::write(&path, json.as_bytes(), &mut self.dice, Seam::FinalWrite).map_err(|e| {
            AccelError::Checkpoint {
                path: path.display().to_string(),
                message: format!("final results write failed: {e}"),
            }
        })
    }

    fn ensure_parent_dir(&self, path: &Path) -> Result<(), AccelError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                // lint: allow(chaos_seam_coverage, idempotent mkdir -p of the artifact directory; it leaves no partial artifact to tear and its ENOSPC/EIO failures surface as typed Checkpoint errors)
                std::fs::create_dir_all(dir).map_err(|e| AccelError::Checkpoint {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtectionScheme;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A tiny trained network and test set (same recipe as the sim
    /// tests, smaller test split: campaigns evaluate it many times).
    fn tiny_problem() -> (QuantizedNetwork, Tensor, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = neural::models::mlp2(&mut rng);
        let mut train = neural::data::digits(400, 1);
        neural::data::shuffle(&mut train, 2);
        for _ in 0..3 {
            net.train_epoch(&train.images, &train.labels, 32, 0.1);
        }
        let test = neural::data::digits(8, 99);
        let qnet = QuantizedNetwork::from_network(&net);
        (qnet, test.images, test.labels)
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("campaign-{}-{name}.json", std::process::id()))
    }

    /// Removes the final file at `path` and both of its slots.
    fn remove_artifacts(path: &Path) {
        for p in [slot_path(path, 0), slot_path(path, 1), path.to_path_buf()] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Opens the campaign at `path` without chaos.
    fn open(config: CampaignConfig, path: &Path) -> Result<Campaign, AccelError> {
        Campaign::open(config, path, None)
    }

    fn small_campaign(scheme: ProtectionScheme, epochs: u64) -> CampaignConfig {
        let mut config = CampaignConfig::new(AccelConfig::new(scheme), epochs, 41);
        config.threads = 2;
        // Steep wear schedule so fault rates move visibly in few epochs.
        config.writes_per_epoch = 2e5;
        config
    }

    #[test]
    fn fault_rate_ramps_with_epochs() {
        let config = small_campaign(ProtectionScheme::None, 8);
        assert_eq!(config.fault_rate_at(0), 0.0);
        let mut prev = -1.0;
        for e in 0..8 {
            let r = config.fault_rate_at(e);
            assert!(r >= prev, "epoch {e}");
            prev = r;
        }
        assert!(prev > 0.0);
    }

    #[test]
    fn resume_after_kill_is_byte_identical() {
        let (qnet, images, labels) = tiny_problem();
        let config = small_campaign(ProtectionScheme::None, 4);

        // Uninterrupted reference run.
        let mut reference = Campaign::new(config.clone()).expect("campaign");
        reference.run(&qnet, &images, &labels).expect("run");
        let reference_json = reference.state().to_json().expect("json");

        // Interrupted run: stop after 2 of 4 epochs ("kill"), then
        // resume from the checkpoint and finish.
        let path = temp_path("resume");
        let mut interrupted = Campaign::new(config.clone())
            .expect("campaign")
            .with_checkpoint(path.clone());
        interrupted
            .run_epochs(&qnet, &images, &labels, 2)
            .expect("partial run");
        assert_eq!(interrupted.completed_epochs(), 2);
        drop(interrupted);

        let mut resumed = open(config, &path).expect("resume");
        assert_eq!(resumed.completed_epochs(), 2);
        resumed.run(&qnet, &images, &labels).expect("resumed run");
        let resumed_json = resumed.state().to_json().expect("json");

        assert_eq!(resumed_json, reference_json);
        // The checkpoint on disk is the final state too.
        let on_disk = std::fs::read_to_string(&path).expect("read checkpoint");
        assert_eq!(on_disk, reference_json);
        remove_artifacts(&path);
    }

    #[test]
    fn shard_panic_fails_its_epoch_and_a_clean_resume_is_byte_identical() {
        let (qnet, images, labels) = tiny_problem();
        let config = small_campaign(ProtectionScheme::None, 4);
        let mut reference = Campaign::new(config.clone()).expect("campaign");
        reference.run(&qnet, &images, &labels).expect("run");
        let reference_json = reference.state().to_json().expect("json");

        // Two clean epochs land in the slots; then shard 1 of epoch 2
        // panics.
        let path = temp_path("panic");
        let mut clean = Campaign::new(config.clone())
            .expect("campaign")
            .with_checkpoint(path.clone());
        clean
            .run_epochs(&qnet, &images, &labels, 2)
            .expect("clean epochs");
        drop(clean);
        let mut panicking = config.clone();
        panicking.base.shard_chaos = chaos::ShardChaos::PanicOn { shard: 1 };
        let mut failed = open(panicking, &path).expect("resume");
        match failed.run(&qnet, &images, &labels) {
            Err(AccelError::WorkerPanic {
                shard,
                seed,
                message,
            }) => {
                assert_eq!(shard, 1);
                assert_eq!(seed, config.epoch_seed(2).wrapping_add(1));
                assert!(message.contains("injected worker panic"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }

        // The finished epochs survive, in memory and in the newest slot.
        assert_eq!(failed.state().completed, reference.state().completed[..2]);
        let slot = std::fs::read(slot_path(&path, 2)).expect("slot");
        let (generation, slotted) = parse_slot(&slot).expect("slot verifies");
        assert_eq!(generation, 2);
        assert_eq!(slotted, *failed.state());
        drop(failed);

        // A resume without chaos finishes byte-identical.
        let mut resumed = open(config, &path).expect("resume");
        assert_eq!(resumed.completed_epochs(), 2);
        resumed.run(&qnet, &images, &labels).expect("resumed run");
        assert_eq!(resumed.state().to_json().expect("json"), reference_json);
        assert_eq!(
            std::fs::read_to_string(&path).expect("final"),
            reference_json
        );
        remove_artifacts(&path);
    }

    #[test]
    fn open_claims_fresh_resumed_and_corrupt_cells() {
        let (qnet, images, labels) = tiny_problem();
        let config = small_campaign(ProtectionScheme::None, 4);
        let path = temp_path("claim");
        remove_artifacts(&path);

        // No artifacts: a fresh campaign, already checkpointing to path.
        let mut fresh = open(config.clone(), &path).expect("fresh claim");
        assert_eq!(fresh.completed_epochs(), 0);
        fresh
            .run_epochs(&qnet, &images, &labels, 2)
            .expect("partial run");
        drop(fresh);

        // Artifacts present: the claim resumes them.
        let resumed = open(config.clone(), &path).expect("resume claim");
        assert_eq!(resumed.completed_epochs(), 2);
        drop(resumed);

        // Every artifact corrupt: the claim degrades to a fresh start
        // (epochs are pure recomputation), never an error.
        for p in [slot_path(&path, 0), slot_path(&path, 1), path.clone()] {
            if p.exists() {
                std::fs::write(&p, b"not a checkpoint").expect("corrupt");
            }
        }
        let recovered = open(config.clone(), &path).expect("corrupt claim");
        assert_eq!(recovered.completed_epochs(), 0);

        // But a genuine mismatch still propagates: the artifacts are
        // someone else's work and must not be silently overwritten.
        let mut fresh = open(config.clone(), &path).expect("fresh claim");
        fresh
            .run_epochs(&qnet, &images, &labels, 1)
            .expect("one epoch");
        drop(fresh);
        let mut other = config;
        other.seed = 999;
        assert!(matches!(
            open(other, &path),
            Err(AccelError::ResumeMismatch(_))
        ));
        remove_artifacts(&path);
    }

    #[test]
    fn resume_rejects_mismatched_campaigns() {
        let (qnet, images, labels) = tiny_problem();
        let config = small_campaign(ProtectionScheme::None, 3);
        let path = temp_path("mismatch");
        let mut campaign = Campaign::new(config.clone())
            .expect("campaign")
            .with_checkpoint(path.clone());
        campaign
            .run_epochs(&qnet, &images, &labels, 1)
            .expect("one epoch");

        // Different scheme.
        let other = small_campaign(ProtectionScheme::Static16, 3);
        assert!(matches!(
            open(other, &path),
            Err(AccelError::ResumeMismatch(_))
        ));
        // Different seed.
        let mut other = config.clone();
        other.seed = 999;
        assert!(matches!(
            open(other, &path),
            Err(AccelError::ResumeMismatch(_))
        ));
        // Different wear schedule.
        let mut other = config.clone();
        other.writes_per_epoch *= 2.0;
        assert!(matches!(
            open(other, &path),
            Err(AccelError::ResumeMismatch(_))
        ));
        // Different knob overrides, even one that changes no recorded
        // field of its own.
        let mut other = config.clone();
        other
            .apply("device.rtn_state_probability", &Value::Number(0.22))
            .expect("knob");
        match open(other, &path) {
            Err(AccelError::ResumeMismatch(m)) => assert!(m.starts_with("set:"), "{m}"),
            other => panic!("expected a set mismatch, got {:?}", other.err()),
        }
        // Matching config resumes fine, but a different test set is
        // rejected at run time.
        let mut resumed = open(config, &path).expect("resume");
        assert!(matches!(
            resumed.run_epochs(&qnet, &images, &labels[..4], 2),
            Err(AccelError::ResumeMismatch(_))
        ));
        remove_artifacts(&path);
    }

    /// Checkpoints record the estimator, so an analytic
    /// campaign resumes like a Monte-Carlo one — but only under the
    /// estimator that produced its epochs: anything else would mix
    /// estimators inside one series.
    #[test]
    fn analytic_campaign_refuses_resume() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = small_campaign(ProtectionScheme::None, 4);
        config.error_model = ErrorModel::Analytic;

        let mut reference = Campaign::new(config.clone()).expect("campaign");
        reference.run(&qnet, &images, &labels).expect("run");
        let reference_json = reference.state().to_json().expect("json");
        assert_eq!(reference.state().error_model, "analytic");

        let path = temp_path("analytic-resume");
        let mut campaign = Campaign::new(config.clone())
            .expect("campaign")
            .with_checkpoint(path.clone());
        campaign
            .run_epochs(&qnet, &images, &labels, 2)
            .expect("partial run");
        drop(campaign);

        // A different estimator is a mismatch.
        let mut other = config.clone();
        other.error_model = ErrorModel::Mc;
        match open(other, &path) {
            Err(AccelError::ResumeMismatch(msg)) => {
                assert!(msg.contains("error_model"), "message: {msg}");
            }
            other => panic!("expected ResumeMismatch, got {other:?}"),
        }
        // The same estimator resumes and finishes byte-identically.
        let mut resumed = open(config, &path).expect("resume");
        assert_eq!(resumed.completed_epochs(), 2);
        resumed.run(&qnet, &images, &labels).expect("resumed run");
        assert_eq!(resumed.state().to_json().expect("json"), reference_json);
        assert_eq!(
            std::fs::read_to_string(&path).expect("final"),
            reference_json
        );
        remove_artifacts(&path);
    }

    /// A corrupt checkpoint parses to a typed error, never a panic, and
    /// `open` degrades it to a fresh start: the epochs are recomputable.
    #[test]
    fn corrupt_checkpoints_are_typed_errors() {
        assert!(matches!(
            CampaignState::from_json("{ not json"),
            Err(AccelError::Checkpoint { .. })
        ));
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ not json").expect("write");
        let config = small_campaign(ProtectionScheme::None, 2);
        let fresh = open(config, &path).expect("fresh start");
        assert_eq!(fresh.completed_epochs(), 0);
        remove_artifacts(&path);
    }

    #[test]
    fn invalid_campaigns_are_rejected() {
        let bad = CampaignConfig::new(
            AccelConfig::new(ProtectionScheme::None).with_fault_rate(2.0),
            2,
            1,
        );
        assert!(matches!(
            Campaign::new(bad),
            Err(AccelError::InvalidConfig(_))
        ));
        let good = CampaignConfig::new(AccelConfig::new(ProtectionScheme::None), 2, 1);
        let cases: Vec<(Box<dyn Fn(&mut CampaignConfig)>, &str)> = vec![
            (Box::new(|c| c.seed = 1u64 << 53), "2^53"),
            (Box::new(|c| c.base.device.bits_per_cell = 6), "cell_bits"),
            (
                Box::new(|c| c.base.scheme = ProtectionScheme::data_aware(11)),
                "ABN-11",
            ),
            (Box::new(|c| c.writes_per_epoch = 0.0), "writes_per_epoch"),
            (
                Box::new(|c| c.writes_per_epoch = f64::INFINITY),
                "writes_per_epoch",
            ),
            (Box::new(|c| c.threads = 0), "threads"),
            (
                Box::new(|c| {
                    c.error_model = ErrorModel::Analytic;
                    c.base.remap = true;
                }),
                "analytic",
            ),
        ];
        for (mutate, needle) in cases {
            let mut bad = good.clone();
            mutate(&mut bad);
            match Campaign::new(bad) {
                Err(AccelError::InvalidConfig(m)) => assert!(m.contains(needle), "{m}"),
                other => panic!("expected InvalidConfig for {needle}, got {other:?}"),
            }
        }
    }

    #[test]
    fn seed_boundary_pins_the_json_f64_limit() {
        // The vendored serde stub stores JSON numbers as f64, and
        // 2^53 - 1 is the largest integer f64 round-trips exactly
        // (see CHANGES.md, PR 2). Pin both sides of the boundary so a
        // future serde swap that lifts the limit shows up here.
        let mut config = CampaignConfig::new(AccelConfig::new(ProtectionScheme::None), 2, 1);
        config.seed = (1u64 << 53) - 1;
        assert!(Campaign::new(config.clone()).is_ok());
        config.seed = 1u64 << 53;
        match Campaign::new(config) {
            Err(AccelError::InvalidConfig(msg)) => {
                assert!(msg.contains("2^53"), "message should name the limit: {msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn slot_paths_alternate_a_and_b() {
        let base = Path::new("/tmp/x/out.json");
        assert_eq!(slot_path(base, 0), Path::new("/tmp/x/out.json.a"));
        assert_eq!(slot_path(base, 1), Path::new("/tmp/x/out.json.b"));
        assert_eq!(slot_path(base, 2), Path::new("/tmp/x/out.json.a"));
        assert_eq!(slot_path(base, 7), Path::new("/tmp/x/out.json.b"));
    }

    #[test]
    fn slot_envelope_roundtrips_and_detects_damage() {
        let config = small_campaign(ProtectionScheme::None, 4);
        let state = config.fresh_state();
        let json = state.to_json().expect("json");
        let bytes = SLOT_ENVELOPE.seal(3, json.as_bytes());

        let (generation, back) = parse_slot(&bytes).expect("intact slot parses");
        assert_eq!(generation, 3);
        assert_eq!(back, state);

        // A torn write (strict prefix) is caught by the length check.
        let torn = parse_slot(&bytes[..bytes.len() - 7]).expect_err("torn");
        assert!(torn.contains("torn write"), "reason: {torn}");

        // A single flipped payload bit is caught by the CRC.
        let mut flipped = bytes.clone();
        let mid = bytes.len() / 2;
        flipped[mid] ^= 0x10;
        let corrupt = parse_slot(&flipped).expect_err("bitflip");
        assert!(corrupt.contains("CRC-32"), "reason: {corrupt}");

        // A foreign envelope version is refused before the payload is
        // trusted.
        let old = String::from_utf8(bytes.clone()).expect("utf8").replacen(
            &format!("\"ckpt\":{CHECKPOINT_VERSION}"),
            "\"ckpt\":1",
            1,
        );
        let version = parse_slot(old.as_bytes()).expect_err("version");
        assert!(version.contains("envelope version 1"), "reason: {version}");

        // No header line at all.
        assert!(parse_slot(b"not a slot file").is_err());
    }

    #[test]
    fn resume_falls_back_to_previous_generation_on_corrupt_slot() {
        let (qnet, images, labels) = tiny_problem();
        let config = small_campaign(ProtectionScheme::None, 4);

        // Uninterrupted reference run.
        let mut reference = Campaign::new(config.clone()).expect("campaign");
        reference.run(&qnet, &images, &labels).expect("run");
        let reference_json = reference.state().to_json().expect("json");

        // Interrupted run: 3 of 4 epochs leaves generation 3 in the
        // `.b` slot and generation 2 in `.a`.
        let path = temp_path("fallback");
        let mut interrupted = Campaign::new(config.clone())
            .expect("campaign")
            .with_checkpoint(path.clone());
        interrupted
            .run_epochs(&qnet, &images, &labels, 3)
            .expect("partial run");
        drop(interrupted);
        let newest = slot_path(&path, 3);
        let older = slot_path(&path, 2);
        assert!(newest.exists() && older.exists());

        // Flip one payload bit in the newest slot: resume must detect
        // the damage and recover from generation 2 instead.
        let mut bytes = std::fs::read(&newest).expect("read slot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).expect("corrupt slot");

        let mut resumed = open(config, &path).expect("resume");
        assert_eq!(
            resumed.completed_epochs(),
            2,
            "resume should fall back to generation 2"
        );
        resumed.run(&qnet, &images, &labels).expect("resumed run");
        assert_eq!(resumed.state().to_json().expect("json"), reference_json);
        let on_disk = std::fs::read_to_string(&path).expect("read final");
        assert_eq!(on_disk, reference_json);
        remove_artifacts(&path);
    }

    /// A slot and the plain file corrupt, the other slot missing: open
    /// starts fresh and reports every rejected artifact as a
    /// `checkpoint_fallback` event with `used_generation` 0. This is
    /// the only unit test that installs an event sink.
    #[test]
    fn resume_with_no_valid_artifact_lists_every_failure() {
        let config = small_campaign(ProtectionScheme::None, 2);
        let path = temp_path("allbad");
        std::fs::write(&path, "{ not json").expect("write");
        std::fs::write(slot_path(&path, 0), "garbage without a header").expect("write");
        obs::events::log_to_memory();
        let fresh = open(config, &path).expect("fresh start");
        let lines = obs::events::take_memory();
        obs::events::stop_logging();
        assert_eq!(fresh.completed_epochs(), 0);
        if obs::enabled() {
            let name = path.display().to_string();
            let fallbacks: Vec<&String> = lines
                .iter()
                .filter(|l| l.contains("\"type\":\"checkpoint_fallback\"") && l.contains(&name))
                .collect();
            assert_eq!(fallbacks.len(), 2, "{lines:#?}");
            for artifact in [format!("{name}.a"), name.clone()] {
                let line = format!("\"path\":\"{artifact}\"");
                assert!(
                    fallbacks.iter().any(|l| l.contains(&line)),
                    "{fallbacks:#?}"
                );
            }
            assert!(
                fallbacks
                    .iter()
                    .all(|l| l.contains("\"used_generation\":0")),
                "{fallbacks:#?}"
            );
        }
        remove_artifacts(&path);
    }

    /// A checkpoint-write seam that always fails must not fail the
    /// campaign: periodic saves are best-effort, and the final write
    /// (a different seam) still lands the results.
    #[test]
    fn hopeless_checkpoint_seam_degrades_to_final_write() {
        let (qnet, images, labels) = tiny_problem();
        let config = small_campaign(ProtectionScheme::None, 2);

        let mut reference = Campaign::new(config.clone()).expect("campaign");
        reference.run(&qnet, &images, &labels).expect("run");
        let reference_json = reference.state().to_json().expect("json");

        let always_fail = ChaosSchedule::new(
            3,
            chaos::ChaosConfig {
                write_error_permille: 1000,
                ..chaos::ChaosConfig::default()
            },
        );
        let path = temp_path("hopeless");
        remove_artifacts(&path);
        let mut campaign = Campaign::open(config, &path, Some(always_fail)).expect("campaign");
        let result = campaign.run(&qnet, &images, &labels);
        // Every write (periodic and final) fails: periodic failures
        // are swallowed, the final write's failure is the one error.
        match result {
            Err(AccelError::Checkpoint { message, .. }) => {
                assert!(
                    message.contains("final results write failed"),
                    "message: {message}"
                );
            }
            other => panic!("expected final-write Checkpoint error, got {other:?}"),
        }
        // All epochs still completed in memory — partial results are
        // dumpable even when the disk is gone.
        assert_eq!(campaign.completed_epochs(), 2);
        assert_eq!(campaign.state().to_json().expect("json"), reference_json);
        remove_artifacts(&path);
    }

    fn arb_gap() -> impl Strategy<Value = ShardGap> {
        (0u64..8, 0u64..1_000, 1u64..200).prop_map(|(shard, lo, width)| ShardGap {
            shard,
            lo,
            hi: lo + width,
        })
    }

    fn arb_record() -> impl Strategy<Value = EpochRecord> {
        (
            (0u64..100, 0.0f64..1e12, 0.0f64..1.0, 0.0f64..1.0),
            (0.0f64..1.0, 0.0f64..1.0, 0u64..10_000),
            proptest::collection::vec(0u64..1_000_000, 7),
            (0u64..200, proptest::collection::vec(arb_gap(), 0..3)),
        )
            .prop_map(
                |((epoch, writes, fault, mis), (top5, flip, samples), counts, (lost, gaps))| {
                    EpochRecord {
                        epoch,
                        writes,
                        fault_rate: fault,
                        misclassification: mis,
                        top5_misclassification: top5,
                        flip_rate: flip,
                        samples,
                        clean: counts[0],
                        corrected: counts[1],
                        uncorrectable: counts[2],
                        miscorrected: counts[3],
                        silent_a: counts[4],
                        retries: counts[5],
                        uncoded: counts[6],
                        lost_samples: lost,
                        gaps,
                    }
                },
            )
    }

    proptest! {
        #[test]
        fn checkpoint_json_roundtrips(
            records in proptest::collection::vec(arb_record(), 0..6),
            seed in 0u64..(1u64 << 53),
            epochs in 0u64..1000,
            threads in 1u64..64,
            initial in 1e5f64..1e7,
            per_epoch in 1.0f64..1e6,
        ) {
            let state = CampaignState {
                version: CHECKPOINT_VERSION,
                scheme: "ABN-9".into(),
                cell_bits: 2,
                remap: true,
                set: Value::default(),
                epochs,
                initial_writes: initial,
                writes_per_epoch: per_epoch,
                min_endurance_writes: 1e6,
                max_endurance_writes: 1e12,
                seed,
                threads,
                error_model: "analytic".into(),
                samples: 20,
                completed: records,
            };
            let json = state.to_json().expect("serialize");
            let back = CampaignState::from_json(&json).expect("parse");
            prop_assert_eq!(&back, &state);
            // Re-serialization is byte-stable (the resume guarantee).
            prop_assert_eq!(back.to_json().expect("serialize"), json);
        }
    }
}
