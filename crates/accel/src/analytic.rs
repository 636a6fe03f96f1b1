//! Analytic error-rate fast path: closed-form moment propagation
//! through the full bit-slice → ADC → column-reduce → ECU pipeline.
//!
//! The Monte-Carlo harness ([`sim::evaluate`](crate::sim::evaluate))
//! estimates misclassification by sampling every noise source of every
//! cell read. This module predicts the same quantities **without
//! sampling**, in the style of MemSE: every stochastic stage of the
//! pipeline is replaced by its effect on the first two moments of the
//! error, and the decode stage by the deterministic transition function
//! of [`ancode::transition`]. One deterministic pass per test sample
//! replaces thousands of noisy inferences, which is what makes
//! whole-design-space sweeps interactive.
//!
//! # The model, stage by stage
//!
//! 1. **Representative fabrication instance** — the mapping (chunking,
//!    code selection, bit-slicing, stuck-cell draw) is built once, from
//!    a fixed seed, exactly as one Monte-Carlo shard would program it.
//!    This matters for the data-aware codes: their `A`-search sees the
//!    *actual* stuck cells and allocates correction-table entries
//!    around them, so fault behaviour can only be predicted against the
//!    same matched code-plus-array pair.
//! 2. **Stuck-at faults are deterministic** — a cell stuck at level
//!    `l′` instead of `l` shifts its row's ADC output by exactly
//!    `l′ − l` counts on the cycles its column is driven, with no
//!    randomness at all. Per stack and cycle the model folds the driven
//!    stuck columns into one composite syndrome and classifies it
//!    *exactly* through [`ancode::transition::classify`]: corrected
//!    syndromes vanish, everything else leaves the ECU's best-effort
//!    residual as a deterministic mean shift with zero variance.
//! 3. **Row mis-quantization (RTN + thermal)** — [`xbar::rowerr`]
//!    predicts, per physical row and per input-bit density, the
//!    probability that the ADC output lands one LSB high or low. The
//!    model tabulates these at a fixed density grid per row and
//!    interpolates at the exact per-cycle bit density of each sample.
//! 4. **ECU decode of row events** — each row error `±2^k` is
//!    classified exactly when it fires alone in a cycle; when several
//!    rows err together (tracked via the no-error product across the
//!    stack's families) the `Revert` policy returns
//!    `round(observed / A·B)`, so each erring row contributes its own
//!    `round(e / A·B)` share of the residual.
//! 5. **Accumulate and split** — residuals are weighted by `2^t` per
//!    input cycle and attributed to output lanes with the same balanced
//!    base-`2^16` digit split the engine applies. RTN trap dwell times
//!    dwarf an inference, so a row's error indicator is modeled as
//!    *comonotone* across the 16 bit-serial cycles (`min(p_t, p_s)`
//!    coupling) rather than independent.
//! 6. **Network propagation** — per-sample error moments ride alongside
//!    the exact fixed-point forward pass: dequantization scales them,
//!    ReLU gates them on the sign of the exact pre-activation, max-pool
//!    forwards the argmax element, and dense/conv layers mix variances
//!    through squared dequantized weights (first order).
//! 7. **Classification** — each final logit is treated as Gaussian
//!    around its exact-plus-shift value; misclassification, top-5, and
//!    flip probabilities come from a Poisson-binomial count of
//!    competitors beating the reference logit.
//!
//! The approximations (one representative fabrication instance instead
//! of the ensemble, per-row residual shares under crowding,
//! independence across rows and logits, first-order activation gating)
//! define a *validity envelope* — see [`supports`] and DESIGN.md §11.
//! Outside it, or for final numbers, use the Monte-Carlo path; a
//! campaign names its estimator in [`ErrorModel`].
//!
//! # Examples
//!
//! ```
//! use accel::{analytic, AccelConfig, ProtectionScheme};
//! use neural::{Dense, Network, QuantizedNetwork, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let net = Network::new(vec![Box::new(Dense::new(8, 4, &mut rng))]);
//! let qnet = QuantizedNetwork::from_network(&net);
//! let images = Tensor::from_vec(vec![3, 8], vec![0.25; 24]);
//! let labels = vec![0usize, 1, 2];
//!
//! let config = AccelConfig::new(ProtectionScheme::data_aware(9));
//! assert!(analytic::supports(&config));
//! let result = analytic::predict(&qnet, &images, &labels, &config)?;
//! assert_eq!(result.samples, 3);
//! assert!(result.misclassification <= 1.0);
//! # Ok::<(), accel::AccelError>(())
//! ```

use std::collections::HashMap;

use ancode::transition::classify;
use ancode::{AbnCode, CorrectionPolicy, DecodeKind, OperandGroup};
use neural::{
    im2col_patch_into, quantize_activations_into, Activation, MvmGeometry, QuantOp,
    QuantizedMatrix, QuantizedNetwork, Tensor, WEIGHT_BIAS,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wideint::I256;
use xbar::rowerr::RowErrorRate;
use xbar::InputMask;

use crate::mapping::{map_matrix_with, RateMemo};
use crate::sim::SimResult;
use crate::{AccelConfig, AccelError, DecodeStats};

/// Which error model evaluates a campaign.
///
/// The string labels (`mc`, `analytic`) are what a grid spec's
/// `error_model` field accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorModel {
    /// Closed-form moment propagation ([`predict`]); milliseconds per
    /// configuration, valid only inside the [`supports`] envelope.
    Analytic,
    /// The Monte-Carlo harness ([`crate::sim::evaluate`]); the ground
    /// truth for final numbers. The default.
    #[default]
    Mc,
}

impl ErrorModel {
    /// The label of this model.
    pub fn label(&self) -> &'static str {
        match self {
            ErrorModel::Analytic => "analytic",
            ErrorModel::Mc => "mc",
        }
    }

    /// Parses a label (`analytic`, `mc`).
    pub fn from_label(label: &str) -> Option<ErrorModel> {
        match label {
            "analytic" => Some(ErrorModel::Analytic),
            "mc" => Some(ErrorModel::Mc),
            _ => None,
        }
    }
}

/// Whether `config` is inside the analytic model's validity envelope.
///
/// The analytic derivation assumes: the `Revert` correction policy (the
/// crowded-cycle residual `round(e/A·B)` is exact only for reverts), no
/// ECU re-read retries (retries resample thermal noise, which the model
/// folds into the row tables), no fault-aware remapping (remap reorders
/// lanes per programmed instance), full 16-bit input streaming, and no
/// injected worker chaos (chaos exercises the scheduler, which the
/// analytic path does not have). Everything else — scheme, cell bits,
/// fault rate, RTN parameters, batching — is covered.
pub fn supports(config: &AccelConfig) -> bool {
    config.policy == CorrectionPolicy::Revert
        && config.max_retries == 0
        && !config.remap
        && config.input_bits == 16
        && config.shard_chaos == chaos::ShardChaos::Off
}

/// Densities at which each row's error table is evaluated (`k/8`);
/// per-cycle probabilities are linearly interpolated between them.
const GRID: usize = 9;

/// Event families with total probability below this are dropped from
/// the moment accumulation (they still influence nothing observable at
/// f64 precision).
const PROB_FLOOR: f64 = 1e-14;

/// Seed of the representative fabrication instance the model is built
/// from (stuck-cell draw + data-aware `A`-search), mirroring what one
/// Monte-Carlo shard would program.
const INSTANCE_SEED: u64 = 0;

/// Largest per-stack stuck-column count for which every driven-subset
/// composite syndrome is pre-classified into a lookup table; stacks
/// with more stuck columns classify per cycle instead (rare — it takes
/// `fault_rate` well past the paper's grid to exceed this).
const MAX_STUCK_TABLE: usize = 10;

/// Per-cycle lane digits of one event's alone/crowd deltas,
/// precomputed at model-build time: the digits depend only on the
/// (fixed) delta, the cycle and the stack geometry — never on the
/// sample — and the balanced-split chains were the hottest per-sample
/// loop before they were hoisted here. `f32` is plenty: non-top digits
/// are ≤ `2^15` (exact), and the top-lane residue only feeds moments.
struct DigitTable {
    da: [[f32; 8]; 16],
    dc: [[f32; 8]; 16],
}

/// Decode outcome of one enumerated ±1-LSB row event.
struct EventDeltas {
    /// Decode outcome when the event fires alone in its cycle.
    kind: Option<DecodeKind>,
    /// Decoded-value delta when alone.
    alone: f64,
    /// This row's share of the best-effort residual when other rows err
    /// in the same cycle (`round(e / A·B)`; `e` itself when uncoded).
    crowd: f64,
    /// Precomputed lane digits; `None` for single-operand stacks
    /// (where the digit is just `delta · 2^t`) and zero-delta events.
    digits: Option<Box<DigitTable>>,
}

/// Analytic model of one physical row: density-tabulated RTN
/// mis-quantization rates plus the two ±1-LSB event classifications.
struct RowModel {
    p_high: [f64; GRID],
    p_low: [f64; GRID],
    high: EventDeltas,
    low: EventDeltas,
}

/// Pre-classified composite syndrome of one driven stuck-column subset.
struct StuckOutcome {
    /// `None` for uncoded stacks (no decode to classify).
    kind: Option<DecodeKind>,
    /// Exact wide decoded-value delta: the deterministic baseline sums
    /// these over cycles and splits the total like the engine does.
    delta: I256,
}

/// Analytic model of one crossbar stack.
struct StackModel {
    row_offset: usize,
    lanes: usize,
    /// The stack's operand group — always the scheme's full layout even
    /// for a partial tail stack (`lanes <` layout operands), exactly as
    /// the engine maps it. The deterministic baseline reuses its
    /// `split_signed_into` so phantom-lane residue is dropped the same
    /// way the engine drops it.
    group: OperandGroup,
    coded: bool,
    rows: Vec<RowModel>,
    /// Chunk-local column indices carrying a nonzero stuck deviation,
    /// aggregated over the stack's physical rows at each row's
    /// significance (`Σ_rows (actual − target) · 2^lsb`).
    stuck_cols: Vec<u32>,
    stuck_devs: Vec<I256>,
    /// Driven-subset bitmask → classified composite syndrome; empty
    /// when the subset count exceeds [`MAX_STUCK_TABLE`].
    stuck_table: Vec<StuckOutcome>,
    /// The stack's code, for the slow-path classify.
    code: Option<AbnCode>,
}

/// Analytic model of one mapped weight matrix.
struct LayerModel {
    chunks: Vec<std::ops::Range<usize>>,
    stacks: Vec<Vec<StackModel>>,
    out_dim: usize,
}

/// Expected decode-statistics accumulator (f64 so fractional
/// expectations add exactly; rounded once at the end).
#[derive(Default, Clone, Copy)]
struct StatsAcc {
    clean: f64,
    corrected: f64,
    uncorrectable: f64,
    miscorrected: f64,
    silent_a: f64,
    uncoded: f64,
}

impl StatsAcc {
    fn tally(&mut self, kind: DecodeKind, weight: f64) {
        match kind {
            DecodeKind::Clean => self.clean += weight,
            DecodeKind::Corrected => self.corrected += weight,
            DecodeKind::Uncorrectable => self.uncorrectable += weight,
            DecodeKind::Miscorrected => self.miscorrected += weight,
            DecodeKind::SilentA => self.silent_a += weight,
            // `DecodeKind` is non-exhaustive; future kinds would need a
            // dedicated counter before the model could book them.
            _ => self.uncorrectable += weight,
        }
    }

    fn merge(&mut self, o: StatsAcc) {
        self.clean += o.clean;
        self.corrected += o.corrected;
        self.uncorrectable += o.uncorrectable;
        self.miscorrected += o.miscorrected;
        self.silent_a += o.silent_a;
        self.uncoded += o.uncoded;
    }

    fn into_stats(self) -> DecodeStats {
        DecodeStats {
            clean: self.clean.round() as u64,
            corrected: self.corrected.round() as u64,
            uncorrectable: self.uncorrectable.round() as u64,
            miscorrected: self.miscorrected.round() as u64,
            silent_a: self.silent_a.round() as u64,
            retries: 0,
            uncoded: self.uncoded.round() as u64,
        }
    }
}

/// Converts a (possibly > 128-bit) signed wide integer to `f64`.
fn i256_to_f64(v: I256) -> f64 {
    let mag = v.magnitude();
    let bits = mag.bits();
    let m = if bits <= 64 {
        mag.to_u64().expect("fits by bit count") as f64
    } else {
        let shift = bits - 53;
        mag.extract_bits(shift, 53) as f64 * (shift as f64).exp2()
    };
    if v.is_negative() {
        -m
    } else {
        m
    }
}

/// Writes the balanced base-`2^operand_bits` lane digits of `v · 2^t`
/// into `out[..lanes]` — the float analogue of
/// [`ancode::OperandGroup::split_signed`] over the layout's full `ops`
/// operand slots. Only the first `lanes` digits are kept: for a partial
/// tail stack (`lanes < ops`) the high digits and the top-slot residue
/// land in phantom zero-padded lanes, which the engine never applies to
/// an output — so the model drops them the same way.
fn lane_digits(v: f64, t: u32, operand_bits: u32, ops: usize, lanes: usize, out: &mut [f64; 8]) {
    let base = (1u64 << operand_bits) as f64;
    let mut w = v * (1u64 << t) as f64;
    for i in 0..lanes.min(ops) {
        out[i] = if i + 1 < ops {
            let carry = (w / base).round();
            let d = w - base * carry;
            w = carry;
            d
        } else {
            // Top layout slot: absorbs the residue, like the engine's
            // saturating fold (reachable only when `lanes == ops`).
            w
        };
    }
    for slot in out.iter_mut().take(8).skip(lanes) {
        *slot = 0.0;
    }
}

/// Precomputes an event's per-cycle lane digits (see [`DigitTable`]).
fn digit_table(
    alone: f64,
    crowd: f64,
    operand_bits: u32,
    ops: usize,
    lanes: usize,
) -> Option<Box<DigitTable>> {
    // lint: allow(float_eq, exact zero sentinel: deltas are assigned literally from decode tables, never computed approximately)
    if ops == 1 || (alone == 0.0 && crowd == 0.0) {
        return None;
    }
    let mut tbl = Box::new(DigitTable {
        da: [[0.0; 8]; 16],
        dc: [[0.0; 8]; 16],
    });
    let mut buf = [0.0f64; 8];
    for t in 0..16u32 {
        lane_digits(alone, t, operand_bits, ops, lanes, &mut buf);
        for l in 0..8 {
            tbl.da[t as usize][l] = buf[l] as f32;
        }
        lane_digits(crowd, t, operand_bits, ops, lanes, &mut buf);
        for l in 0..8 {
            tbl.dc[t as usize][l] = buf[l] as f32;
        }
    }
    Some(tbl)
}

/// Classifies one additive error, keeping the decoded-value delta as a
/// wide integer: the deterministic stuck baseline needs it exact so the
/// summed-then-split total reproduces the engine's lane attribution.
fn classify_wide(
    code: &Option<AbnCode>,
    policy: CorrectionPolicy,
    e: I256,
) -> (Option<DecodeKind>, I256) {
    match code {
        Some(code) => {
            let t = classify(code, policy, e);
            (Some(t.kind), t.delta)
        }
        None => (None, e),
    }
}

/// Classifies one additive error against an optional code: `(kind,
/// alone delta, crowded best-effort share)`. `None` kind ⇔ uncoded.
fn classify_event(
    code: &Option<AbnCode>,
    policy: CorrectionPolicy,
    e: I256,
) -> (Option<DecodeKind>, f64, f64) {
    match code {
        Some(code) => {
            let t = classify(code, policy, e);
            let crowd = e
                .div_round_u64(code.multiplier())
                .expect("multiplier is nonzero");
            (Some(t.kind), i256_to_f64(t.delta), i256_to_f64(crowd))
        }
        None => (None, i256_to_f64(e), i256_to_f64(e)),
    }
}

/// Builds the analytic model of one quantized matrix under `config`.
///
/// The mapping is the representative fabrication instance: a
/// fixed-seed programming pass with the *real* fault rate, so the
/// data-aware `A`-search allocates its correction table against the
/// same stuck cells the model then predicts — exactly what every
/// Monte-Carlo shard does for its own seed.
fn build_layer_model(
    matrix: &QuantizedMatrix,
    config: &AccelConfig,
    rate_memo: &mut RateMemo<'_>,
) -> Result<LayerModel, AccelError> {
    let mut rng = ChaCha8Rng::seed_from_u64(INSTANCE_SEED);
    let mapped =
        map_matrix_with(matrix.rows(), config, &mut rng, rate_memo).map_err(AccelError::Code)?;

    // Density-scaled row-error rates, memoized on the *scaled*
    // composition: rows repeat compositions heavily and low densities
    // collapse them further, so most grid points are cache hits and
    // the expensive binomial tails run once per distinct vector.
    let mut scaled = Vec::new();
    let mut rate_at = |comp: &[u32], g: usize| -> RowErrorRate {
        let density = g as f64 / (GRID - 1) as f64;
        scaled.clear();
        scaled.extend(comp.iter().map(|&c| (c as f64 * density).round() as u32));
        rate_memo.rate(&scaled)
    };

    let mut stacks = Vec::with_capacity(mapped.stacks.len());
    for chunk_stacks in &mapped.stacks {
        let mut out = Vec::with_capacity(chunk_stacks.len());
        for stack in chunk_stacks {
            let mut rows = Vec::with_capacity(stack.array.row_count());
            let mut dev_by_col: HashMap<u32, I256> = HashMap::new();
            for (r, row) in stack.array.rows().iter().enumerate() {
                let lsb = stack.slicer.row_lsb(r as u32);
                let comp = row.active_composition(&InputMask::all_ones(row.width()));
                let mut p_high = [0.0; GRID];
                let mut p_low = [0.0; GRID];
                for g in 1..GRID {
                    let rate = rate_at(&comp, g);
                    p_high[g] = rate.p_high;
                    p_low[g] = rate.p_low;
                }
                let up = I256::from_i128(1).shifted_left(lsb);
                let down = I256::from_i128(-1).shifted_left(lsb);
                let (hk, ha, hc) = classify_event(&stack.code, config.policy, up);
                let (lk, la, lc) = classify_event(&stack.code, config.policy, down);
                let obits = stack.group.layout().operand_bits();
                let ops = stack.group.layout().operands();
                rows.push(RowModel {
                    p_high,
                    p_low,
                    high: EventDeltas {
                        kind: hk,
                        alone: ha,
                        crowd: hc,
                        digits: digit_table(ha, hc, obits, ops, stack.lanes),
                    },
                    low: EventDeltas {
                        kind: lk,
                        alone: la,
                        crowd: lc,
                        digits: digit_table(la, lc, obits, ops, stack.lanes),
                    },
                });
                for &j in row.stuck_columns() {
                    let d = row.actual_level(j) as i128 - row.target_level(j) as i128;
                    if d != 0 {
                        let dev = I256::from_i128(d).shifted_left(lsb);
                        let entry = dev_by_col.entry(j).or_insert_with(|| I256::from_i128(0));
                        *entry = *entry + dev;
                    }
                }
            }
            // One-operand stacks: events whose residuals sit ≥ 2^26
            // below the stack's dominant event cannot move the f64
            // moment sums (the lone lane digit is `delta·2^t`, so the
            // squared contribution is below one ulp of the dominant
            // variance term) — drop their deltas from the moment path.
            // Their decode *kinds* keep tallying. Grouped stacks are
            // exempt: a balanced split smears any delta into ±2^15
            // digits on every lane, so small events still matter.
            if stack.group.layout().operands() == 1 {
                let stack_max = rows
                    .iter()
                    .flat_map(|r| [&r.high, &r.low])
                    .map(|ev| ev.alone.abs().max(ev.crowd.abs()))
                    .fold(0.0f64, f64::max);
                let floor = stack_max * (-26.0f64).exp2();
                for row in &mut rows {
                    for ev in [&mut row.high, &mut row.low] {
                        if ev.alone.abs().max(ev.crowd.abs()) < floor {
                            ev.alone = 0.0;
                            ev.crowd = 0.0;
                            ev.digits = None;
                        }
                    }
                }
            }
            let mut stuck: Vec<(u32, I256)> = dev_by_col
                .into_iter()
                .filter(|&(_, d)| !d.is_zero())
                .collect();
            stuck.sort_by_key(|&(j, _)| j);
            let stuck_cols: Vec<u32> = stuck.iter().map(|&(j, _)| j).collect();
            let stuck_devs: Vec<I256> = stuck.iter().map(|&(_, d)| d).collect();
            let stuck_table = if stuck_cols.len() <= MAX_STUCK_TABLE {
                (0..1usize << stuck_cols.len())
                    .map(|mask| {
                        let mut e = I256::from_i128(0);
                        for (i, &d) in stuck_devs.iter().enumerate() {
                            if mask & (1 << i) != 0 {
                                e = e + d;
                            }
                        }
                        let (kind, delta) = classify_wide(&stack.code, config.policy, e);
                        StuckOutcome { kind, delta }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            out.push(StackModel {
                row_offset: stack.row_offset,
                lanes: stack.lanes,
                group: stack.group,
                coded: stack.code.is_some(),
                rows,
                stuck_cols,
                stuck_devs,
                stuck_table,
                code: stack.code.clone(),
            });
        }
        stacks.push(out);
    }
    Ok(LayerModel {
        chunks: mapped.chunks,
        stacks,
        out_dim: mapped.out_dim,
    })
}

/// Linear interpolation into a density-grid table.
fn interp(table: &[f64; GRID], rho: f64) -> f64 {
    let x = rho.clamp(0.0, 1.0) * (GRID - 1) as f64;
    let i = (x as usize).min(GRID - 2);
    let frac = x - i as f64;
    table[i] * (1.0 - frac) + table[i + 1] * frac
}

/// Scratch for one stack's family probabilities (reused across stacks).
struct FamilyScratch {
    /// Per-cycle firing probability.
    p: [f64; 16],
    alone_delta: f64,
    crowd_delta: f64,
    alone_kind: Option<DecodeKind>,
    /// Source row index within the stack (for the digit-table lookup).
    row: u32,
    /// 0 = high event, 1 = low event.
    dir: u8,
}

/// Accumulates one stack's per-cycle error moments into the raw output
/// moments (`raw_mean`/`raw_var`, indexed by logical output element) and
/// the expected decode statistics.
///
/// `q_chunk` holds the chunk's quantized inputs — bit `t` of
/// `q_chunk[j]` says whether column `j` is driven in cycle `t`, which
/// selects the stuck-column subset for the deterministic baseline.
#[allow(clippy::too_many_arguments)] // private kernel: explicit split borrows of the forward scratch
fn accumulate_stack(
    stack: &StackModel,
    q_chunk: &[u16],
    rho: &[f64],
    cycles: usize,
    raw_mean: &mut [f64],
    raw_var: &mut [f64],
    stats: &mut StatsAcc,
    families: &mut Vec<FamilyScratch>,
) {
    let lanes = stack.lanes;
    let ops = stack.group.layout().operands();
    let mut executed = [false; 16];
    let mut executed_count = 0.0f64;
    for t in 0..cycles {
        executed[t] = rho[t] > 0.0;
        executed_count += executed[t] as u64 as f64;
    }
    // lint: allow(float_eq, exact zero test: executed_count is a sum of 0/1 indicator casts)
    if executed_count == 0.0 {
        return;
    }
    if !stack.coded {
        stats.uncoded += executed_count;
    }

    // Deterministic stuck-fault baseline: per executed cycle, the
    // composite syndrome of the driven stuck columns, classified
    // through the stack's own code. A pure mean shift — zero variance.
    // The per-cycle deltas are summed into one wide total and split
    // through the stack's own `OperandGroup`, exactly mirroring the
    // engine's decode-then-split-the-total order: splitting each cycle
    // separately would mis-attribute balanced-split carries between
    // adjacent lanes and keep phantom-lane residue a partial tail stack
    // must drop.
    let mut baseline_kind = [DecodeKind::Clean; 16];
    let mut base_err = I256::from_i128(0);
    let mut have_base = false;
    for t in 0..cycles {
        if !executed[t] || stack.stuck_cols.is_empty() {
            continue;
        }
        let mut mask = 0usize;
        for (i, &j) in stack.stuck_cols.iter().enumerate() {
            mask |= (((q_chunk[j as usize] >> t) & 1) as usize) << i;
        }
        let (kind, delta) = match stack.stuck_table.get(mask) {
            Some(outcome) => (outcome.kind, outcome.delta),
            None => {
                // Slow path: more stuck columns than the table covers.
                let mut e = I256::from_i128(0);
                for (i, &d) in stack.stuck_devs.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        e = e + d;
                    }
                }
                classify_wide(&stack.code, CorrectionPolicy::Revert, e)
            }
        };
        baseline_kind[t] = kind.unwrap_or(DecodeKind::Clean);
        if !delta.is_zero() {
            base_err = base_err + delta.shifted_left(t as u32);
            have_base = true;
        }
    }
    if have_base {
        let mut lane_err = Vec::with_capacity(ops);
        stack.group.split_signed_into(base_err, &mut lane_err);
        for l in 0..lanes {
            raw_mean[stack.row_offset + l] += lane_err[l] as f64;
        }
    }

    // RTN event families: one per row and direction, probabilities
    // interpolated at each cycle's drive density.
    families.clear();
    for (ri, row) in stack.rows.iter().enumerate() {
        for (dir, (table, ev)) in [(&row.p_high, &row.high), (&row.p_low, &row.low)]
            .into_iter()
            .enumerate()
        {
            let mut p = [0.0f64; 16];
            let mut total = 0.0;
            for t in 0..cycles {
                if executed[t] {
                    p[t] = interp(table, rho[t]);
                    total += p[t];
                }
            }
            if total < PROB_FLOOR {
                continue;
            }
            families.push(FamilyScratch {
                p,
                alone_delta: ev.alone,
                crowd_delta: ev.crowd,
                alone_kind: ev.kind,
                row: ri as u32,
                dir: dir as u8,
            });
        }
    }

    // No-error product per cycle, across every family of the stack.
    let mut noerr = [1.0f64; 16];
    for fam in families.iter() {
        for t in 0..cycles {
            if executed[t] {
                noerr[t] *= 1.0 - fam.p[t];
            }
        }
    }

    // Decode tallies and error moments in one family-outer pass: the
    // alone/crowded split probabilities `pa`/`pc` are shared by both,
    // so they are computed once per (family, cycle) with the division
    // hoisted out of the lane loop. Moments use the comonotone
    // coupling across cycles (min(p_t, p_s) — the frozen-RTN regime),
    // with lane digits from the build-time [`DigitTable`] (or a single
    // multiply for one-operand stacks).
    let mut alone_total = [0.0f64; 16];
    let mut cond_mean = [[0.0f64; 8]; 16];
    let mut p_act = [0.0f64; 16];
    let mut order = [0usize; 16];
    for fam in families.iter() {
        let rowm = &stack.rows[fam.row as usize];
        let ev = if fam.dir == 0 { &rowm.high } else { &rowm.low };
        // lint: allow(float_eq, exact zero sentinel: deltas come straight from the decode table, never from arithmetic)
        let moments = fam.alone_delta != 0.0 || fam.crowd_delta != 0.0;
        let mut k = 0usize;
        let mut mean_l = [0.0f64; 8];
        let mut ex2_l = [0.0f64; 8];
        for t in 0..cycles {
            if fam.p[t] <= 0.0 {
                continue;
            }
            let s = if fam.p[t] < 1.0 {
                (noerr[t] / (1.0 - fam.p[t])).min(1.0)
            } else {
                0.0
            };
            let pa = fam.p[t] * s;
            if stack.coded {
                alone_total[t] += pa;
                if let Some(kind) = fam.alone_kind {
                    stats.tally(kind, pa);
                }
            }
            if !moments {
                continue;
            }
            let pc = fam.p[t] - pa;
            let inv_p = 1.0 / fam.p[t];
            match ev.digits.as_deref() {
                Some(tbl) => {
                    let da = &tbl.da[t];
                    let dc = &tbl.dc[t];
                    // lint: allow(float_eq, exact zero sentinel: alone_delta is a table value, 0.0 means corrected-when-alone)
                    if fam.alone_delta == 0.0 {
                        // Corrected-when-alone events (the common case
                        // for the coded schemes): only the crowded
                        // residual contributes.
                        for l in 0..lanes {
                            let c = dc[l] as f64;
                            let m = pc * c;
                            mean_l[l] += m;
                            ex2_l[l] += pc * c * c;
                            cond_mean[k][l] = m * inv_p;
                        }
                    } else {
                        for l in 0..lanes {
                            let a = da[l] as f64;
                            let c = dc[l] as f64;
                            let m = pa * a + pc * c;
                            mean_l[l] += m;
                            ex2_l[l] += pa * a * a + pc * c * c;
                            cond_mean[k][l] = m * inv_p;
                        }
                    }
                }
                None => {
                    // One-operand stack: the lone digit is `delta·2^t`.
                    let pow = (1u64 << t) as f64;
                    let a = fam.alone_delta * pow;
                    let c = fam.crowd_delta * pow;
                    let m = pa * a + pc * c;
                    mean_l[0] += m;
                    ex2_l[0] += pa * a * a + pc * c * c;
                    cond_mean[k][0] = m * inv_p;
                }
            }
            p_act[k] = fam.p[t];
            order[k] = k;
            k += 1;
        }
        if !moments {
            continue;
        }
        // Off-diagonal comonotone terms: P(err at both t and s) =
        // min(p_t, p_s) for one persistent latent cause. Sorting by p
        // turns the O(k²) pair sum into suffix sums:
        // Σ_{t≠s} min·m_t·m_s = 2·Σ_i p_(i)·m_(i)·(Σ_{j>i} m_(j))
        // over ascending p.
        if k > 1 {
            order[..k].sort_by(|&a, &b| p_act[a].total_cmp(&p_act[b]));
            let mut suffix = [0.0f64; 8];
            for i in (0..k).rev() {
                let s = order[i];
                for l in 0..lanes {
                    ex2_l[l] += 2.0 * p_act[s] * cond_mean[s][l] * suffix[l];
                    suffix[l] += cond_mean[s][l];
                }
            }
        }
        for l in 0..lanes {
            let o = stack.row_offset + l;
            raw_mean[o] += mean_l[l];
            raw_var[o] += (ex2_l[l] - mean_l[l] * mean_l[l]).max(0.0);
        }
    }
    // Baseline outcome when no RTN event fires, and the crowded
    // remainder (≥ 2 events in one cycle), booked as uncorrectable —
    // the dominant true outcome under Revert.
    if stack.coded {
        for t in 0..cycles {
            if executed[t] {
                stats.tally(baseline_kind[t], noerr[t]);
                stats.uncorrectable += (1.0 - noerr[t] - alone_total[t]).max(0.0);
            }
        }
    }
}

/// Standard normal CDF (Zelen–Severo 26.2.17; |ε| < 7.5e-8).
fn phi(x: f64) -> f64 {
    if x < -8.0 {
        return 0.0;
    }
    if x > 8.0 {
        return 1.0;
    }
    let t = 1.0 / (1.0 + 0.231_641_9 * x.abs());
    let poly = t
        * (0.319_381_530
            + t * (-0.356_563_782
                + t * (1.781_477_937 + t * (-1.821_255_978 + t * 1.330_274_429))));
    let tail = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt() * poly;
    if x >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Probability that logit `j` beats the reference logit, given exact
/// values, mean shifts, and variances. Ties at zero variance resolve the
/// way the engine's argmax does (later index wins).
fn beat_probability(
    z_j: f64,
    m_j: f64,
    v_j: f64,
    z_r: f64,
    m_r: f64,
    v_r: f64,
    j_after_ref: bool,
) -> f64 {
    let diff = (z_j + m_j) - (z_r + m_r);
    let var = v_j + v_r;
    if var <= 0.0 {
        // lint: allow(float_eq, exact tie-break in the zero-variance degenerate branch; argmax semantics need the equality case)
        if diff > 0.0 || (diff == 0.0 && j_after_ref) {
            1.0
        } else {
            0.0
        }
    } else {
        phi(diff / var.sqrt())
    }
}

/// `P(X ≥ k)` for a Poisson-binomial count with success probabilities
/// `probs`, by dynamic programming over `min(k, …)` partial counts.
fn poisson_binomial_at_least(probs: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 1.0;
    }
    // dp[c] = P(exactly c successes so far), capped at k (absorbing).
    let mut dp = vec![0.0f64; k + 1];
    dp[0] = 1.0;
    for &p in probs {
        for c in (0..k).rev() {
            let move_up = dp[c] * p;
            dp[c + 1] += move_up;
            dp[c] -= move_up;
        }
    }
    dp[k].clamp(0.0, 1.0)
}

/// Per-sample forward scratch (exact activations + moment side-channel).
#[derive(Default)]
struct Forward {
    x: Vec<f32>,
    mean: Vec<f32>,
    var: Vec<f32>,
    nx: Vec<f32>,
    nmean: Vec<f32>,
    nvar: Vec<f32>,
    q: Vec<u16>,
    patch: Vec<f32>,
    mpatch: Vec<f32>,
    vpatch: Vec<f32>,
    raw_mean: Vec<f64>,
    raw_var: Vec<f64>,
    rho: Vec<f64>,
    families: Vec<FamilyScratch>,
}

/// Runs one MVM's analytic stage: densities per chunk, stack moments,
/// then the exact integer output and float-unit moments for each output
/// element. Returns `(a_scale, sum_q)` for the caller's de-bias.
#[allow(clippy::too_many_arguments)] // private kernel: explicit split borrows of the forward scratch
fn mvm_moments(
    model: &LayerModel,
    matrix: &QuantizedMatrix,
    input: &[f32],
    cycles: usize,
    fwd_q: &mut Vec<u16>,
    rho: &mut Vec<f64>,
    families: &mut Vec<FamilyScratch>,
    raw_mean: &mut Vec<f64>,
    raw_var: &mut Vec<f64>,
    stats: &mut StatsAcc,
) -> f32 {
    let a_scale = quantize_activations_into(input, fwd_q);
    raw_mean.clear();
    raw_mean.resize(model.out_dim, 0.0);
    raw_var.clear();
    raw_var.resize(model.out_dim, 0.0);
    rho.clear();
    rho.resize(cycles, 0.0);
    for (chunk_idx, cols) in model.chunks.iter().enumerate() {
        let q_chunk = &fwd_q[cols.clone()];
        let width = q_chunk.len() as f64;
        for t in 0..cycles {
            let ones = q_chunk.iter().filter(|&&v| (v >> t) & 1 == 1).count();
            rho[t] = ones as f64 / width;
        }
        for stack in &model.stacks[chunk_idx] {
            accumulate_stack(
                stack, q_chunk, rho, cycles, raw_mean, raw_var, stats, families,
            );
        }
    }
    let _ = matrix;
    a_scale
}

/// Predicts the Monte-Carlo harness's [`SimResult`] analytically.
///
/// One deterministic pass per test sample: the exact fixed-point
/// forward computation plus first/second error moments per activation,
/// closed under every stage of the accelerator pipeline. The returned
/// rates are expectations over the noise processes (RTN, thermal) for
/// one representative fabrication instance — the quantities
/// `sim::evaluate` estimates by sampling; `stats` holds the *expected*
/// decode tallies, rounded.
///
/// # Errors
///
/// [`AccelError::InvalidConfig`] when the configuration is outside the
/// [`supports`] envelope (or fails [`AccelConfig::validate`]);
/// [`AccelError::EmptyTestSet`] / [`AccelError::ShapeMismatch`] exactly
/// as the Monte-Carlo path reports them.
pub fn predict(
    qnet: &QuantizedNetwork,
    images: &Tensor,
    labels: &[usize],
    config: &AccelConfig,
) -> Result<SimResult, AccelError> {
    predict_threaded(qnet, images, labels, config, 1)
}

/// [`predict`] with the per-sample passes fanned out over `threads`
/// workers (contiguous sample ranges, merged in range order — the
/// result is bit-identical for every thread count).
pub fn predict_threaded(
    qnet: &QuantizedNetwork,
    images: &Tensor,
    labels: &[usize],
    config: &AccelConfig,
    threads: usize,
) -> Result<SimResult, AccelError> {
    let n = labels.len();
    if n == 0 {
        return Err(AccelError::EmptyTestSet);
    }
    let samples_in_tensor = images.shape().first().copied().unwrap_or(0);
    if samples_in_tensor != n {
        return Err(AccelError::ShapeMismatch {
            detail: format!("{n} labels but the image tensor holds {samples_in_tensor} samples"),
        });
    }
    config.validate()?;
    if !supports(config) {
        return Err(AccelError::InvalidConfig(
            "configuration outside the analytic validity envelope \
             (requires Revert policy, no retries, no remap, 16 input bits, no chaos); \
             use the Monte-Carlo model"
                .to_string(),
        ));
    }

    // One analytic model per MVM op; the row-rate memo is shared
    // across layers (compositions repeat network-wide).
    let mut models = Vec::new();
    let mut rate_memo = RateMemo::new(&config.device);
    for op in qnet.ops() {
        if let QuantOp::Mvm { matrix, .. } = op {
            models.push(build_layer_model(matrix, config, &mut rate_memo)?);
        }
    }

    let cycles = config.input_bits as usize;
    let per_image = images.len() / n;
    let data = images.data();

    // Per-sample results land in a slot vector and are reduced in
    // sample order afterwards, so the totals are bit-identical for
    // every thread count.
    let mut slots: Vec<(f64, f64, f64, StatsAcc)> = vec![(0.0, 0.0, 0.0, StatsAcc::default()); n];
    let threads = threads.clamp(1, n);
    let chunk = n.div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        for (w, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
            let models = &models;
            scope.spawn(move |_| {
                let mut fwd = Forward::default();
                for (k, slot) in slot_chunk.iter_mut().enumerate() {
                    let i = w * chunk + k;
                    let image = &data[i * per_image..(i + 1) * per_image];
                    let mut stats = StatsAcc::default();
                    let (mis, top5, flip) = predict_sample(
                        qnet, models, image, labels[i], cycles, &mut fwd, &mut stats,
                    );
                    *slot = (mis, top5, flip, stats);
                }
            });
        }
    })
    .expect("analytic worker panicked");

    let mut stats = StatsAcc::default();
    let mut mis_sum = 0.0f64;
    let mut top5_sum = 0.0f64;
    let mut flip_sum = 0.0f64;
    for &(mis, top5, flip, s) in &slots {
        mis_sum += mis;
        top5_sum += top5;
        flip_sum += flip;
        stats.merge(s);
    }

    Ok(SimResult {
        misclassification: mis_sum / n as f64,
        top5_misclassification: top5_sum / n as f64,
        flip_rate: flip_sum / n as f64,
        samples: n,
        lost_samples: 0,
        gaps: Vec::new(),
        stats: stats.into_stats(),
    })
}

/// One sample's forward pass and classification probabilities:
/// `(misclassification, top-5 misclassification, flip probability)`.
fn predict_sample(
    qnet: &QuantizedNetwork,
    models: &[LayerModel],
    image: &[f32],
    label: usize,
    cycles: usize,
    fwd: &mut Forward,
    stats: &mut StatsAcc,
) -> (f64, f64, f64) {
    {
        forward_sample(qnet, models, image, cycles, fwd, stats);
        let logits = &fwd.x;
        let means = &fwd.mean;
        let vars = &fwd.var;
        let classes = logits.len();

        // Exact fixed-point prediction (the flip-rate reference):
        // argmax keeping the last maximal index, like the engine.
        let mut exact_best = 0usize;
        for (c, &v) in logits.iter().enumerate() {
            if v >= logits[exact_best] {
                exact_best = c;
            }
        }

        let label = label.min(classes.saturating_sub(1));
        let beats_label: Vec<f64> = (0..classes)
            .filter(|&j| j != label)
            .map(|j| {
                beat_probability(
                    logits[j] as f64,
                    means[j] as f64,
                    vars[j] as f64,
                    logits[label] as f64,
                    means[label] as f64,
                    vars[label] as f64,
                    j > label,
                )
            })
            .collect();
        let mis = poisson_binomial_at_least(&beats_label, 1);
        let top5 = poisson_binomial_at_least(&beats_label, 5.min(classes));

        let beats_exact: Vec<f64> = (0..classes)
            .filter(|&j| j != exact_best)
            .map(|j| {
                beat_probability(
                    logits[j] as f64,
                    means[j] as f64,
                    vars[j] as f64,
                    logits[exact_best] as f64,
                    means[exact_best] as f64,
                    vars[exact_best] as f64,
                    j > exact_best,
                )
            })
            .collect();
        let flip = poisson_binomial_at_least(&beats_exact, 1);
        (mis, top5, flip)
    }
}

/// One sample's exact forward pass with the moment side-channel. On
/// return, `fwd.x` holds the exact logits and `fwd.mean`/`fwd.var` the
/// per-logit error moments in logit units.
fn forward_sample(
    qnet: &QuantizedNetwork,
    models: &[LayerModel],
    image: &[f32],
    cycles: usize,
    fwd: &mut Forward,
    stats: &mut StatsAcc,
) {
    fwd.x.clear();
    fwd.x.extend_from_slice(image);
    fwd.mean.clear();
    fwd.mean.resize(image.len(), 0.0);
    fwd.var.clear();
    fwd.var.resize(image.len(), 0.0);

    let mut model_idx = 0;
    for op in qnet.ops() {
        match op {
            QuantOp::Mvm {
                matrix,
                bias,
                activation,
                geometry,
            } => {
                let model = &models[model_idx];
                model_idx += 1;
                match geometry {
                    MvmGeometry::Dense => {
                        dense_step(model, matrix, bias, *activation, cycles, fwd, stats)
                    }
                    MvmGeometry::Conv(geo) => {
                        conv_step(model, matrix, bias, *activation, geo, cycles, fwd, stats)
                    }
                }
            }
            QuantOp::MaxPool { channels, h, w } => pool_step(*channels, *h, *w, fwd),
        }
        std::mem::swap(&mut fwd.x, &mut fwd.nx);
        std::mem::swap(&mut fwd.mean, &mut fwd.nmean);
        std::mem::swap(&mut fwd.var, &mut fwd.nvar);
    }
}

/// Applies the activation to the exact value and gates the moments
/// (first order): ReLU drops them when the exact pre-activation is
/// negative; sigmoid scales by its derivative at the exact value.
fn activate(activation: Activation, z: f32, mean: f64, var: f64) -> (f32, f64, f64) {
    match activation {
        Activation::None => (z, mean, var),
        Activation::Relu => {
            if z > 0.0 {
                (z, mean, var)
            } else {
                (0.0, 0.0, 0.0)
            }
        }
        Activation::Sigmoid => {
            let s = 1.0 / (1.0 + (-z).exp());
            let d = (s * (1.0 - s)) as f64;
            (s, mean * d, var * d * d)
        }
    }
}

#[allow(clippy::too_many_arguments)] // private helper: explicit stages of one dense op
fn dense_step(
    model: &LayerModel,
    matrix: &QuantizedMatrix,
    bias: &[f32],
    activation: Activation,
    cycles: usize,
    fwd: &mut Forward,
    stats: &mut StatsAcc,
) {
    let Forward {
        x,
        mean,
        var,
        nx,
        nmean,
        nvar,
        q,
        raw_mean,
        raw_var,
        rho,
        families,
        ..
    } = fwd;
    let a_scale = mvm_moments(
        model, matrix, x, cycles, q, rho, families, raw_mean, raw_var, stats,
    );
    let sum_q: i64 = q.iter().map(|&v| v as i64).sum();
    let factor = (matrix.scale() * a_scale) as f64;
    let scale = matrix.scale();
    nx.clear();
    nmean.clear();
    nvar.clear();
    for (o, row) in matrix.rows().iter().enumerate() {
        let raw: i64 = row
            .iter()
            .zip(q.iter())
            .map(|(&w, &v)| w as i64 * v as i64)
            .sum();
        let signed = raw - WEIGHT_BIAS * sum_q;
        let z = signed as f32 * matrix.scale() * a_scale + bias[o];
        // First-order propagation of the *input's* error moments
        // through the dequantized weights, plus this layer's own
        // analog-error moments.
        let mut m_in = 0.0f64;
        let mut v_in = 0.0f64;
        for (j, &w) in row.iter().enumerate() {
            let wd = ((w as i64 - WEIGHT_BIAS) as f32 * scale) as f64;
            m_in += wd * mean[j] as f64;
            v_in += wd * wd * var[j] as f64;
        }
        let m = raw_mean[o] * factor + m_in;
        let v = raw_var[o] * factor * factor + v_in;
        let (out, m, v) = activate(activation, z, m, v);
        nx.push(out);
        nmean.push(m as f32);
        nvar.push(v as f32);
    }
}

#[allow(clippy::too_many_arguments)] // private helper: explicit stages of one conv op
fn conv_step(
    model: &LayerModel,
    matrix: &QuantizedMatrix,
    bias: &[f32],
    activation: Activation,
    geo: &neural::ConvGeometry,
    cycles: usize,
    fwd: &mut Forward,
    stats: &mut StatsAcc,
) {
    let Forward {
        x,
        mean,
        var,
        nx,
        nmean,
        nvar,
        q,
        patch,
        mpatch,
        vpatch,
        raw_mean,
        raw_var,
        rho,
        families,
    } = fwd;
    let (oh, ow) = geo.out_hw();
    let out_c = geo.out_channels;
    nx.clear();
    nx.resize(out_c * oh * ow, 0.0);
    nmean.clear();
    nmean.resize(out_c * oh * ow, 0.0);
    nvar.clear();
    nvar.resize(out_c * oh * ow, 0.0);
    let scale = matrix.scale();
    for p in 0..oh * ow {
        im2col_patch_into(x, geo, p, patch);
        im2col_patch_into(mean, geo, p, mpatch);
        im2col_patch_into(var, geo, p, vpatch);
        let a_scale = mvm_moments(
            model, matrix, patch, cycles, q, rho, families, raw_mean, raw_var, stats,
        );
        let sum_q: i64 = q.iter().map(|&v| v as i64).sum();
        let factor = (scale * a_scale) as f64;
        for (c, row) in matrix.rows().iter().enumerate() {
            let raw: i64 = row
                .iter()
                .zip(q.iter())
                .map(|(&w, &v)| w as i64 * v as i64)
                .sum();
            let signed = raw - WEIGHT_BIAS * sum_q;
            let z = signed as f32 * scale * a_scale + bias[c];
            let mut m_in = 0.0f64;
            let mut v_in = 0.0f64;
            for (j, &w) in row.iter().enumerate() {
                let wd = ((w as i64 - WEIGHT_BIAS) as f32 * scale) as f64;
                m_in += wd * mpatch[j] as f64;
                v_in += wd * wd * vpatch[j] as f64;
            }
            let m = raw_mean[c] * factor + m_in;
            let v = raw_var[c] * factor * factor + v_in;
            let (out, m, v) = activate(activation, z, m, v);
            nx[c * oh * ow + p] = out;
            nmean[c * oh * ow + p] = m as f32;
            nvar[c * oh * ow + p] = v as f32;
        }
    }
}

/// 2×2 max pooling on the exact values, forwarding the moments of the
/// element the exact pool selects.
fn pool_step(c: usize, h: usize, w: usize, fwd: &mut Forward) {
    let Forward {
        x,
        mean,
        var,
        nx,
        nmean,
        nvar,
        ..
    } = fwd;
    let (oh, ow) = (h / 2, w / 2);
    nx.clear();
    nx.resize(c * oh * ow, 0.0);
    nmean.clear();
    nmean.resize(c * oh * ow, 0.0);
    nvar.clear();
    nvar.resize(c * oh * ow, 0.0);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best_idx = 0usize;
                let mut best = f32::NEG_INFINITY;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = ch * h * w + (oy * 2 + dy) * w + (ox * 2 + dx);
                        if x[idx] > best {
                            best = x[idx];
                            best_idx = idx;
                        }
                    }
                }
                let out = ch * oh * ow + oy * ow + ox;
                nx[out] = best;
                nmean[out] = mean[best_idx];
                nvar[out] = var[best_idx];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtectionScheme;
    use neural::{Dense, Network};

    fn tiny() -> (QuantizedNetwork, Tensor, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = Network::new(vec![Box::new(Dense::new(12, 6, &mut rng))]);
        let qnet = QuantizedNetwork::from_network(&net);
        let images = Tensor::from_vec(vec![4, 12], (0..48).map(|i| (i % 7) as f32 / 7.0).collect());
        (qnet, images, vec![0, 1, 2, 3])
    }

    #[test]
    fn noiseless_prediction_matches_exact_inference() {
        let (qnet, images, labels) = tiny();
        let mut config = AccelConfig::new(ProtectionScheme::None);
        config.device.rtn_state_probability = 0.0;
        config.device.programming_tolerance = 0.0;
        config.device.fault_rate = 0.0;
        config.device.bandwidth = 0.0;
        let result = predict(&qnet, &images, &labels, &config).expect("predict");
        // Zero noise: the analytic variance is zero and predictions
        // collapse to the exact fixed-point classifier.
        assert_eq!(result.flip_rate, 0.0);
        let mc = crate::sim::evaluate(&qnet, &images, &labels, &config, 3, 1).expect("mc");
        assert_eq!(result.misclassification, mc.misclassification);
        assert_eq!(result.top5_misclassification, mc.top5_misclassification);
    }

    #[test]
    fn envelope_is_enforced() {
        let (qnet, images, labels) = tiny();
        let mut config = AccelConfig::new(ProtectionScheme::None);
        config.max_retries = 2;
        assert!(!supports(&config));
        assert!(matches!(
            predict(&qnet, &images, &labels, &config),
            Err(AccelError::InvalidConfig(_))
        ));
        let mut config = AccelConfig::new(ProtectionScheme::None);
        config.policy = CorrectionPolicy::KeepCorrected;
        assert!(!supports(&config));
        let mut config = AccelConfig::new(ProtectionScheme::None);
        config.remap = true;
        assert!(!supports(&config));
        assert!(supports(&AccelConfig::new(ProtectionScheme::data_aware(9))));
    }

    #[test]
    fn degenerate_inputs_yield_typed_errors() {
        let (qnet, images, _) = tiny();
        let config = AccelConfig::new(ProtectionScheme::None);
        assert_eq!(
            predict(&qnet, &images, &[], &config),
            Err(AccelError::EmptyTestSet)
        );
        assert!(matches!(
            predict(&qnet, &images, &[0, 1], &config),
            Err(AccelError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn lane_digits_match_operand_group_split() {
        use ancode::GroupLayout;
        let group = OperandGroup::new(GroupLayout::new(16, 4).unwrap());
        let mut buf = [0.0f64; 8];
        for v in [1i128, -1, 3 << 14, -(3 << 14), 5 << 30, 1 << 47] {
            for t in [0u32, 3, 9] {
                let exact = group.split_signed(I256::from_i128(v).shifted_left(t));
                lane_digits(v as f64, t, 16, 4, 4, &mut buf);
                for l in 0..4 {
                    assert!(
                        (buf[l] - exact[l] as f64).abs() < 1e-6,
                        "v={v} t={t} lane {l}: {} vs {}",
                        buf[l],
                        exact[l]
                    );
                }
            }
        }
    }

    #[test]
    fn lane_digits_partial_stack_drops_phantom_residue() {
        use ancode::GroupLayout;
        // A 4-lane tail stack inside an 8-operand layout: the engine
        // splits over all 8 slots and only applies the first 4 digits,
        // so digits beyond lane 3 — including the top-slot residue —
        // must not leak into a real output.
        let group = OperandGroup::new(GroupLayout::new(16, 8).unwrap());
        let mut buf = [0.0f64; 8];
        for v in [1i128, -(3 << 14), 5 << 30, 1 << 47, -(1 << 60)] {
            for t in [0u32, 7, 15] {
                let exact = group.split_signed(I256::from_i128(v).shifted_left(t));
                lane_digits(v as f64, t, 16, 8, 4, &mut buf);
                for l in 0..4 {
                    assert!(
                        (buf[l] - exact[l] as f64).abs() < 1e-6,
                        "v={v} t={t} lane {l}: {} vs {}",
                        buf[l],
                        exact[l]
                    );
                }
                for l in 4..8 {
                    assert_eq!(buf[l], 0.0, "phantom lane {l} leaked");
                }
            }
        }
    }

    #[test]
    fn phi_brackets_known_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((phi(-1.0) - 0.158_655_3).abs() < 1e-6);
        assert!(phi(9.0) == 1.0 && phi(-9.0) == 0.0);
    }

    #[test]
    fn poisson_binomial_matches_binomial() {
        // Equal probabilities reduce to the binomial tail.
        let probs = [0.3f64; 6];
        let expect: f64 = (2..=6)
            .map(|k| {
                let choose = [1.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0][k];
                choose * 0.3f64.powi(k as i32) * 0.7f64.powi((6 - k) as i32)
            })
            .sum();
        assert!((poisson_binomial_at_least(&probs, 2) - expect).abs() < 1e-12);
        assert_eq!(poisson_binomial_at_least(&probs, 0), 1.0);
    }

    #[test]
    fn more_fault_means_more_flips() {
        let (qnet, images, labels) = tiny();
        let mut last = -1.0f64;
        for fault in [0.0, 1e-3, 1e-2, 1e-1] {
            let config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(fault);
            let r = predict(&qnet, &images, &labels, &config).expect("predict");
            assert!(
                r.flip_rate >= last - 1e-12,
                "flip rate not monotone: {} after {last} at fault {fault}",
                r.flip_rate
            );
            last = r.flip_rate;
        }
    }
}
