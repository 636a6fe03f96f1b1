//! The coded crossbar MVM engine: bit-serial input streaming, noisy row
//! reads, shift-and-add reduction, and the per-cycle error correction
//! unit of Figure 9.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ancode::DecodeKind;
use neural::{MvmEngine, MvmEngineProvider, QuantizedMatrix};
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wideint::{I256, U256};
use xbar::InputMask;

use xbar::RtnSnapshot;

use crate::mapping::{map_matrix, MappedMatrix, Stack};
use crate::{AccelConfig, AccelError};

/// Aggregate decode statistics across an engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Group-cycles that decoded with residue 0 and a passing `B` check.
    pub clean: u64,
    /// Group-cycles corrected by a table hit with a passing `B` check.
    pub corrected: u64,
    /// Group-cycles whose residue had no table entry.
    pub uncorrectable: u64,
    /// Group-cycles where the `B` check flagged a miscorrection.
    pub miscorrected: u64,
    /// Group-cycles whose error was a multiple of `A`, caught by `B`.
    pub silent_a: u64,
    /// Retries performed (the §VI-A retry option).
    pub retries: u64,
    /// Group-cycles evaluated without any code (unprotected baseline).
    pub uncoded: u64,
}

impl DecodeStats {
    /// Total decoded group-cycles.
    pub fn total(&self) -> u64 {
        self.clean
            + self.corrected
            + self.uncorrectable
            + self.miscorrected
            + self.silent_a
            + self.uncoded
    }

    /// Fraction of decodes that required any action (not clean).
    pub fn error_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (t - self.clean - self.uncoded) as f64 / t as f64
        }
    }

    fn absorb(&mut self, other: DecodeStats) {
        self.clean += other.clean;
        self.corrected += other.corrected;
        self.uncorrectable += other.uncorrectable;
        self.miscorrected += other.miscorrected;
        self.silent_a += other.silent_a;
        self.retries += other.retries;
        self.uncoded += other.uncoded;
    }

    fn delta_since(&self, earlier: &DecodeStats) -> DecodeStats {
        DecodeStats {
            clean: self.clean - earlier.clean,
            corrected: self.corrected - earlier.corrected,
            uncorrectable: self.uncorrectable - earlier.uncorrectable,
            miscorrected: self.miscorrected - earlier.miscorrected,
            silent_a: self.silent_a - earlier.silent_a,
            retries: self.retries - earlier.retries,
            uncoded: self.uncoded - earlier.uncoded,
        }
    }
}

/// Reusable buffers for one engine's MVM hot path.
///
/// Every `Vec` here is cleared and refilled per use, never dropped, so
/// a steady-state [`CrossbarEngine::mvm_into`] or `mvm_batch_into`
/// call performs zero heap allocation: capacity is reserved once at
/// programming time from the mapping's known dimensions (chunk widths,
/// stack row counts, lane counts) and the configured batch, and only
/// ever reused afterwards. The scratch is taken out of the engine with
/// `std::mem::take` for the duration of a call (the same borrow dance
/// as the stacks) and put back before returning — the *scratch
/// ownership contract*: the engine owns the buffers between calls, the
/// call body owns them exclusively while running, and nothing escapes.
///
/// # Examples
///
/// The scratch is engine-internal; callers only see its effect — a
/// warm engine's MVM allocates nothing and reuses one output buffer:
///
/// ```
/// use accel::{AccelConfig, CrossbarProvider, ProtectionScheme};
/// use neural::{MvmEngineProvider, QuantizedMatrix, Tensor};
///
/// let w = Tensor::from_vec(vec![2, 8], (0..16).map(|i| i as f32 * 0.1).collect());
/// let provider = CrossbarProvider::new(
///     AccelConfig::new(ProtectionScheme::None),
///     7,
/// );
/// let mut engine = provider.build(&QuantizedMatrix::from_tensor(&w));
/// let input = [1u16; 8];
/// let mut out = Vec::new();
/// engine.mvm_into(&input, &mut out); // grows scratch + out once
/// engine.mvm_into(&input, &mut out); // steady state: zero allocation
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MvmScratch {
    /// Input-bit masks for the current chunk, `batch · input_bits`
    /// vector-major.
    masks: Vec<InputMask>,
    /// Ideal digital lane values for the current stack.
    ideal: Vec<i64>,
    /// Balanced-digit lane attribution of the residual error.
    lane_err: Vec<i64>,
    /// Frozen RTN trap state for the current stack.
    rtn: RtnSnapshot,
    /// Staging copy of the output vector while un-permuting a
    /// fault-aware remap (empty and unused when remap is off).
    remapped_out: Vec<i64>,
    /// Widened chunk inputs of *every* vector in the batch, back to
    /// back (`[v · chunk_width + j]`).
    batch_input: Vec<u64>,
    /// Per-bit-plane conductance sums of the current (stack, vector),
    /// t-major (`[t · rows + row]`).
    planes: Vec<f64>,
    /// Sparse hoisted trap table of the current stack:
    /// `trap_offsets[row]..trap_offsets[row + 1]` indexes
    /// `trap_entries`, each a `(Δi, level_mask ∩ traps)` pair of one
    /// non-empty level.
    trap_offsets: Vec<u32>,
    trap_entries: Vec<(f64, u128)>,
    /// The draw-free half of the current (stack, vector)'s row reads:
    /// every bit's current, sigma and low code per row, which bits
    /// straddle, and every bit's clean reduced value.
    brackets: xbar::ReadBrackets,
    /// Paired-Gaussian source for the row reads. Its carry
    /// cache persists across calls, keeping the draw stream a pure
    /// function of the call sequence.
    normals: xbar::stats::NormalSource,
}

impl MvmScratch {
    /// Pre-sizes every buffer for `mapped` so the first MVM call of up
    /// to `batch` vectors (at least one) is already allocation-free.
    fn for_mapped(mapped: &MappedMatrix, input_bits: u32, remap: bool, batch: usize) -> MvmScratch {
        let stacks = mapped.stacks.iter().flatten();
        let max_rows = stacks
            .clone()
            .map(|s| s.array.row_count())
            .max()
            .unwrap_or(0);
        let max_lanes = stacks.clone().map(|s| s.lanes).max().unwrap_or(0);
        let max_trap = stacks
            .map(|s| s.array.row_count() * s.array.rtn_delta_i().len())
            .max()
            .unwrap_or(0);
        let max_chunk = mapped.chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        let batch = batch.max(1);
        MvmScratch {
            masks: Vec::with_capacity(batch * input_bits as usize),
            ideal: Vec::with_capacity(max_lanes),
            lane_err: Vec::with_capacity(max_lanes),
            rtn: RtnSnapshot::with_row_capacity(max_rows),
            remapped_out: Vec::with_capacity(if remap { mapped.out_dim } else { 0 }),
            batch_input: Vec::with_capacity(batch * max_chunk),
            planes: Vec::with_capacity(input_bits as usize * max_rows),
            trap_offsets: Vec::with_capacity(max_rows + 1),
            trap_entries: Vec::with_capacity(max_trap),
            brackets: xbar::ReadBrackets::with_row_capacity(max_rows),
            normals: xbar::stats::NormalSource::new(),
        }
    }
}

/// An [`MvmEngine`] backed by noisy, optionally AN-coded crossbar
/// stacks.
///
/// Each `mvm` call streams the 16-bit inputs bit-serially: for every
/// input bit `t` and every stack, the physical rows are read (with RTN,
/// thermal/shot noise, programming error and stuck-at faults), reduced
/// through the shift-and-add tree, and decoded by the ECU. Corrected
/// per-cycle values accumulate with weight `2^t`; the final group value
/// is split into its logical-row lanes.
///
/// There is one kernel: `mvm_into` is `mvm_batch_into` with a batch of
/// one. Per (chunk, stack) it draws one RTN snapshot shared by the
/// batch. Per vector it brackets every bit's rows without drawing and
/// sums each bit's clean value from the low codes
/// ([`xbar::CrossbarArray::bracket_reads_into`]), then per nonzero
/// input bit walks only the rows whose bracket straddles a code
/// boundary, in ascending order, drawing paired Gaussians for them
/// ([`xbar::CrossbarArray::walk_reads`]). A stack
/// whose group-cycle values provably fit keeps its bookkeeping in
/// `i128`; wider stacks use `U256`/`I256`.
pub struct CrossbarEngine {
    mapped: MappedMatrix,
    /// Biased weights for the ideal digital baseline used in lane
    /// splitting (see DESIGN.md: lane carries make the group total
    /// non-separable, so residual errors are attributed to lanes by
    /// balanced-digit decomposition of `observed − ideal`).
    weights: Vec<Vec<u16>>,
    config: AccelConfig,
    rng: ChaCha8Rng,
    stats: Arc<Mutex<DecodeStats>>,
    local_stats: DecodeStats,
    reported: DecodeStats,
    scratch: MvmScratch,
    /// `order[new_position] = original_row` when fault-aware remapping
    /// is active; `None` leaves the hot path untouched.
    remap_order: Option<Vec<usize>>,
}

impl std::fmt::Debug for CrossbarEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossbarEngine")
            .field("out_dim", &self.mapped.out_dim)
            .field("in_dim", &self.mapped.in_dim)
            .field("scheme", &self.config.scheme.label())
            .finish()
    }
}

impl CrossbarEngine {
    /// Programs an engine for a quantized matrix.
    ///
    /// # Panics
    ///
    /// Panics when the scheme configuration cannot produce a code for
    /// this matrix; [`try_program`](CrossbarEngine::try_program) is the
    /// recoverable variant.
    pub fn program(
        matrix: &QuantizedMatrix,
        config: &AccelConfig,
        seed: u64,
        stats: Arc<Mutex<DecodeStats>>,
    ) -> CrossbarEngine {
        match CrossbarEngine::try_program(matrix, config, seed, stats) {
            Ok(engine) => engine,
            // lint: allow(panic_reachability, adapter for the infallible MvmEngineProvider::build trait signature; a code-construction failure is a configuration bug surfaced by the first build at service startup, and the recoverable paths call try_program directly)
            Err(e) => panic!("{e}"),
        }
    }

    /// Programs an engine for a quantized matrix, reporting code
    /// construction failures as a typed error.
    ///
    /// When `config.remap` is set, a fault-aware row remap is scouted
    /// first with an identically seeded RNG (modeling post-fabrication
    /// test-and-remap: the scouted fault locations match the fabricated
    /// ones), the permuted rows are programmed, and every MVM scatters
    /// its outputs back to the original row order — callers never see
    /// the permutation. With `config.remap` off this is byte-identical
    /// to the pre-remap engine.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Code`] when code construction / A-search
    /// fails for this matrix under the configured scheme.
    pub fn try_program(
        matrix: &QuantizedMatrix,
        config: &AccelConfig,
        seed: u64,
        stats: Arc<Mutex<DecodeStats>>,
    ) -> Result<CrossbarEngine, AccelError> {
        let _span = obs::span!("program");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (weights, remap_order) = if config.remap {
            let mut scout_rng = ChaCha8Rng::seed_from_u64(seed);
            let remap = crate::remap::fault_aware_order(matrix.rows(), config, &mut scout_rng);
            let identity = remap.order.iter().enumerate().all(|(i, &o)| i == o);
            (
                remap.apply(matrix.rows()),
                if identity { None } else { Some(remap.order) },
            )
        } else {
            (matrix.rows().to_vec(), None)
        };
        let mapped = map_matrix(&weights, config, &mut rng)?;
        let scratch = MvmScratch::for_mapped(
            &mapped,
            config.input_bits,
            remap_order.is_some(),
            config.batch,
        );
        Ok(CrossbarEngine {
            mapped,
            weights,
            config: config.clone(),
            rng,
            stats,
            local_stats: DecodeStats::default(),
            reported: DecodeStats::default(),
            scratch,
            remap_order,
        })
    }

    /// The mapping (for storage accounting).
    pub fn mapped(&self) -> &MappedMatrix {
        &self.mapped
    }

    /// Decode statistics accumulated so far by this engine.
    pub fn stats(&self) -> DecodeStats {
        self.local_stats
    }

    /// Reads and decodes one group-cycle value, applying the retry
    /// policy: `read` performs the group read, once and then once per
    /// retry.
    ///
    /// Retries re-read the rows under the *same* RTN snapshot (the trap
    /// state does not change on retry timescales), so retries only
    /// resolve transient thermal/shot borderline cases — exactly the
    /// limitation §VI-A accepts. A re-read walks the same brackets, so
    /// it re-draws exactly the rows whose bracket straddles.
    fn decode_cycle(&mut self, stack: &Stack, mut read: impl FnMut(&mut Self) -> U256) -> I256 {
        let mut observed = read(self);
        let Some(code) = &stack.code else {
            self.local_stats.uncoded += 1;
            return observed.into();
        };
        let (mut value, mut kind) = code.decode_value(observed.into(), self.config.policy);
        let mut attempts = 0;
        while !kind.is_trusted() && attempts < self.config.max_retries {
            attempts += 1;
            self.local_stats.retries += 1;
            observed = read(self);
            (value, kind) = code.decode_value(observed.into(), self.config.policy);
        }
        match kind {
            DecodeKind::Clean => self.local_stats.clean += 1,
            DecodeKind::Corrected => self.local_stats.corrected += 1,
            DecodeKind::Uncorrectable => self.local_stats.uncorrectable += 1,
            DecodeKind::Miscorrected => self.local_stats.miscorrected += 1,
            DecodeKind::SilentA => self.local_stats.silent_a += 1,
            _ => {}
        }
        value
    }

    /// Flushes decode-stat deltas to the observability counters and the
    /// shared provider accumulator — the tail of every MVM call.
    fn report_stats(&mut self) {
        let delta = self.local_stats.delta_since(&self.reported);
        obs::counter!(ecc_clean).add(delta.clean);
        obs::counter!(ecc_corrected).add(delta.corrected);
        obs::counter!(ecc_uncorrectable).add(delta.uncorrectable);
        obs::counter!(ecc_miscorrected).add(delta.miscorrected);
        obs::counter!(ecc_silent_a).add(delta.silent_a);
        obs::counter!(ecc_retries).add(delta.retries);
        obs::counter!(ecc_uncoded).add(delta.uncoded);
        self.stats.lock().absorb(delta);
        self.reported = self.local_stats;
    }
}

impl MvmEngine for CrossbarEngine {
    /// Rewinds the noise RNG to a fresh stream derived from `seed`,
    /// leaving the programmed conductances (and their programming
    /// noise) untouched.
    ///
    /// This makes a long-lived engine's MVM output a pure function of
    /// `(programmed state, seed, input)` instead of its full call
    /// history.
    fn reseed(&mut self, seed: u64) {
        self.rng = ChaCha8Rng::seed_from_u64(seed);
    }

    /// One vector is a batch of one: the same kernel, with the span
    /// recorded as `mvm`.
    fn mvm_into(&mut self, input: &[u16], out: &mut Vec<i64>) {
        self.mvm_batch_into(input, 1, out);
    }

    fn mvm_batch_into(&mut self, inputs: &[u16], batch: usize, out: &mut Vec<i64>) {
        let _span = if batch == 1 {
            obs::span!("mvm")
        } else {
            obs::span!("mvm_batch")
        };
        assert!(batch > 0, "batch must be at least 1");
        assert_eq!(inputs.len() % batch, 0, "inputs not divisible into batch");
        let in_dim = self.mapped.in_dim;
        let out_dim = self.mapped.out_dim;
        assert_eq!(inputs.len() / batch, in_dim, "input length mismatch");
        let input_bits = self.config.input_bits as usize;
        out.clear();
        out.resize(batch * out_dim, 0i64);
        // Borrow dance: the chunk list and the scratch are taken out of
        // `self` for the duration of the call (both are put back below),
        // so `&mut self` methods can run while we hold references into
        // them. Stacks get the same treatment per chunk.
        let chunks = std::mem::take(&mut self.mapped.chunks);
        let mut scratch = std::mem::take(&mut self.scratch);

        for (chunk_idx, cols) in chunks.iter().enumerate() {
            let chunk_w = cols.len();
            // Widen every vector's chunk slice and build all
            // `batch · input_bits` masks up front (vector-major).
            scratch.batch_input.clear();
            scratch.masks.clear();
            for v in 0..batch {
                let start = scratch.batch_input.len();
                scratch.batch_input.extend(
                    inputs[v * in_dim..(v + 1) * in_dim][cols.clone()]
                        .iter()
                        .map(|&x| x as u64),
                );
                let widened = &scratch.batch_input[start..];
                scratch
                    .masks
                    .extend((0..input_bits as u32).map(|t| InputMask::from_bit_of(widened, t)));
            }

            let stacks = std::mem::take(&mut self.mapped.stacks[chunk_idx]);
            for stack in &stacks {
                let narrow = accumulates_in_i128(stack, chunk_w, input_bits as u32);
                // ONE frozen RTN configuration per (chunk, stack),
                // shared by every vector: trap dwell times dwarf the MVM
                // latency, so errors persist across the bit-serial
                // cycles and the batch. The trap ∩ level-mask words are
                // hoisted once against it.
                stack.array.sample_rtn_into(&mut self.rng, &mut scratch.rtn);
                stack.array.trap_level_sparse_into(
                    &scratch.rtn,
                    &mut scratch.trap_offsets,
                    &mut scratch.trap_entries,
                );

                for v in 0..batch {
                    let input = &inputs[v * in_dim..(v + 1) * in_dim];
                    let masks = &scratch.masks[v * input_bits..(v + 1) * input_bits];
                    // One ascending-column pass computes every bit
                    // plane's conductance sum for this vector; the
                    // draw-free pass brackets every bit's rows.
                    stack.array.conductance_planes_into(
                        &scratch.batch_input[v * chunk_w..(v + 1) * chunk_w],
                        input_bits as u32,
                        &mut scratch.planes,
                    );
                    stack.array.bracket_reads_into(
                        masks,
                        &scratch.planes,
                        &scratch.trap_offsets,
                        &scratch.trap_entries,
                        &mut scratch.brackets,
                    );
                    scratch.ideal.clear();
                    scratch.ideal.extend((0..stack.lanes).map(|l| {
                        let w = &self.weights[stack.row_offset + l];
                        cols.clone()
                            .map(|j| w[j] as i64 * input[j] as i64)
                            .sum::<i64>()
                    }));

                    // Only the bits that drive a column are read.
                    let cycles = masks
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.count_ones() != 0)
                        .map(|(t, _)| t);
                    let total = if narrow {
                        let mut total = 0i128;
                        for t in cycles {
                            let mut read = |me: &mut Self| {
                                stack.array.walk_reads_u128(
                                    &scratch.brackets,
                                    t,
                                    &mut scratch.normals,
                                    &mut me.rng,
                                )
                            };
                            let value = match stack.code {
                                None => {
                                    self.local_stats.uncoded += 1;
                                    read(self) as i128
                                }
                                Some(_) => {
                                    narrow_value(self.decode_cycle(stack, |me| read(me).into()))
                                }
                            };
                            total += value << t as u32;
                        }
                        I256::from_i128(total)
                    } else {
                        let mut total = I256::ZERO;
                        for t in cycles {
                            let value = self.decode_cycle(stack, |me| {
                                stack.array.walk_reads(
                                    &scratch.brackets,
                                    t,
                                    &mut scratch.normals,
                                    &mut me.rng,
                                )
                            });
                            total += value.shifted_left(t as u32);
                        }
                        total
                    };
                    let lane_bits = stack.group.layout().operand_bits();
                    let ideal_total: I256 = scratch
                        .ideal
                        .iter()
                        .enumerate()
                        .map(|(l, &y)| {
                            I256::from_i128(y as i128).shifted_left(l as u32 * lane_bits)
                        })
                        .sum();
                    let err = total - ideal_total;
                    stack.group.split_signed_into(err, &mut scratch.lane_err);
                    let out_v = &mut out[v * out_dim..(v + 1) * out_dim];
                    for l in 0..stack.lanes {
                        let lane_err = scratch.lane_err[l];
                        if lane_err != 0 {
                            obs::counter!(lane_error_digits).incr();
                            obs::histogram!(lane_error_magnitude).record(lane_err.unsigned_abs());
                        }
                        out_v[stack.row_offset + l] += scratch.ideal[l] + lane_err;
                    }
                }
            }
            self.mapped.stacks[chunk_idx] = stacks;
        }

        // Un-permute a fault-aware remap, per vector.
        if let Some(order) = &self.remap_order {
            for v in 0..batch {
                let out_v = &mut out[v * out_dim..(v + 1) * out_dim];
                scratch.remapped_out.clear();
                scratch.remapped_out.extend_from_slice(out_v);
                for (new_pos, &orig) in order.iter().enumerate() {
                    out_v[orig] = scratch.remapped_out[new_pos];
                }
            }
        }

        self.mapped.chunks = chunks;
        self.scratch = scratch;
        self.report_stats();
    }
}

/// Whether every group-cycle value of `stack` and the `×2^t` sum of
/// `input_bits` of them fit an `i128`, for a chunk of `columns` inputs.
///
/// With `c`-bit cells over `R` rows (span `R·c`), a row code is at
/// most `columns · max_level < 2^k`, so an observed value
/// `Σ code_r · 2^{r·c}` is below `2^{k + span − c + 1}`. A table
/// syndrome sums terms `±δ · 2^bit` with distinct `bit < span` and
/// `|δ| < 2^7`, so it is below `2^{span + 7}`; a decoded value (an
/// exact or rounded quotient of the observed or corrected value) is at
/// most their sum. Every NoECC and Static16 stack fits; a grouped
/// ABN-k or Static128 stack, spanning 128 bits or more, does not.
fn accumulates_in_i128(stack: &Stack, columns: usize, input_bits: u32) -> bool {
    let bits = |x: u64| u64::BITS - x.leading_zeros();
    let c = stack.slicer.cell_bits();
    let span = stack.slicer.rows_per_word() * c;
    let max_code = columns as u64 * u64::from(stack.array.params().max_level());
    let cycle_bits = (bits(max_code) + span - c + 1).max(span + 7) + 1;
    cycle_bits + input_bits <= 126
}

/// A narrow stack's decoded group-cycle value as an `i128`, which
/// [`accumulates_in_i128`] guarantees it fits.
fn narrow_value(value: I256) -> i128 {
    debug_assert!(value.to_i128().is_some(), "{value:?} exceeds i128");
    value.to_i128().unwrap_or_default()
}

/// Builds [`CrossbarEngine`]s for every matrix of a quantized network,
/// sharing a decode-statistics accumulator.
#[derive(Debug)]
pub struct CrossbarProvider {
    config: AccelConfig,
    base_seed: u64,
    counter: AtomicU64,
    stats: Arc<Mutex<DecodeStats>>,
}

impl CrossbarProvider {
    /// Creates a provider; engines get deterministic per-matrix seeds
    /// derived from `seed`.
    pub fn new(config: AccelConfig, seed: u64) -> CrossbarProvider {
        CrossbarProvider {
            config,
            base_seed: seed,
            counter: AtomicU64::new(0),
            stats: Arc::new(Mutex::new(DecodeStats::default())),
        }
    }

    /// Snapshot of decode statistics across all engines built by this
    /// provider.
    pub fn stats(&self) -> DecodeStats {
        *self.stats.lock()
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }
}

impl MvmEngineProvider for CrossbarProvider {
    fn build(&self, matrix: &QuantizedMatrix) -> Box<dyn MvmEngine> {
        let idx = self.counter.fetch_add(1, Ordering::Relaxed);
        let seed = self
            .base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(idx);
        Box::new(CrossbarEngine::program(
            matrix,
            &self.config,
            seed,
            Arc::clone(&self.stats),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtectionScheme;
    use neural::Tensor;

    fn quantized(out: usize, inp: usize, seed: u64) -> QuantizedMatrix {
        let data: Vec<f32> = (0..out * inp)
            .map(|i| (((i as u64 * 2654435761 + seed) % 1000) as f32 / 500.0) - 1.0)
            .collect();
        QuantizedMatrix::from_tensor(&Tensor::from_vec(vec![out, inp], data))
    }

    fn noiseless_config(scheme: ProtectionScheme) -> AccelConfig {
        let mut c = AccelConfig::new(scheme);
        c.device.rtn_state_probability = 0.0;
        c.device.programming_tolerance = 0.0;
        c.device.fault_rate = 0.0;
        c.device.bandwidth = 0.0;
        c
    }

    fn exact_reference(matrix: &QuantizedMatrix, input: &[u16]) -> Vec<i64> {
        matrix
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .zip(input)
                    .map(|(&w, &x)| w as i64 * x as i64)
                    .sum()
            })
            .collect()
    }

    fn run_engine(matrix: &QuantizedMatrix, config: AccelConfig, input: &[u16]) -> Vec<i64> {
        let provider = CrossbarProvider::new(config, 7);
        let mut engine = provider.build(matrix);
        engine.mvm(input)
    }

    #[test]
    fn noiseless_unprotected_is_exact() {
        let m = quantized(5, 12, 1);
        let input: Vec<u16> = (0..12).map(|i| (i * 37) as u16).collect();
        let out = run_engine(&m, noiseless_config(ProtectionScheme::None), &input);
        assert_eq!(out, exact_reference(&m, &input));
    }

    #[test]
    fn noiseless_static16_is_exact() {
        let m = quantized(3, 9, 2);
        let input: Vec<u16> = (0..9).map(|i| (i * 1001 % 4096) as u16).collect();
        let out = run_engine(&m, noiseless_config(ProtectionScheme::Static16), &input);
        assert_eq!(out, exact_reference(&m, &input));
    }

    #[test]
    fn noiseless_data_aware_is_exact() {
        let m = quantized(10, 8, 3);
        let input: Vec<u16> = (0..8).map(|i| (i * 777 % 65536) as u16).collect();
        let out = run_engine(
            &m,
            noiseless_config(ProtectionScheme::data_aware(9)),
            &input,
        );
        assert_eq!(out, exact_reference(&m, &input));
    }

    #[test]
    fn noiseless_static128_is_exact() {
        let m = quantized(9, 6, 4);
        let input: Vec<u16> = vec![1, 100, 65535, 0, 42, 9999];
        let out = run_engine(&m, noiseless_config(ProtectionScheme::Static128), &input);
        assert_eq!(out, exact_reference(&m, &input));
    }

    #[test]
    fn noiseless_exact_across_cell_bits() {
        let m = quantized(8, 5, 5);
        let input: Vec<u16> = vec![3, 65535, 128, 0, 77];
        for bits in 1..=5 {
            let config = noiseless_config(ProtectionScheme::data_aware(10)).with_cell_bits(bits);
            let out = run_engine(&m, config, &input);
            assert_eq!(out, exact_reference(&m, &input), "cell bits {bits}");
        }
    }

    /// Fewer than 16 input bits leave the upper bracket lanes unused;
    /// noiseless outputs must still be exact for every scheme family.
    #[test]
    fn noiseless_exact_at_narrow_input_width() {
        let m = quantized(9, 20, 13);
        let input: Vec<u16> = (0..20).map(|i| (i * 37 % 256) as u16).collect();
        for scheme in [
            ProtectionScheme::None,
            ProtectionScheme::Static16,
            ProtectionScheme::data_aware(9),
        ] {
            let label = scheme.label();
            let mut config = noiseless_config(scheme);
            config.input_bits = 8;
            let out = run_engine(&m, config, &input);
            assert_eq!(out, exact_reference(&m, &input), "{label}");
        }
    }

    /// With realistic noise, the data-aware engine's outputs must be
    /// closer to the truth than the unprotected engine's by a wide
    /// margin. Uncoded error is heavy-tailed (one flipped high-order
    /// bit dominates a sum), so a single seed's comparison is a coin
    /// flip on a few seeds; the total over the fixed seeds 1..=16 is
    /// not, and coding must cut it more than tenfold.
    #[test]
    fn noisy_coded_is_closer_than_uncoded() {
        let m = quantized(16, 64, 6);
        let input: Vec<u16> = (0..64).map(|i| (i * 523 % 65536) as u16).collect();
        let truth = exact_reference(&m, &input);

        let err_of = |scheme: ProtectionScheme| -> f64 {
            let mut config = AccelConfig::new(scheme).with_fault_rate(0.0);
            config.device.programming_tolerance = 0.0;
            let mut total = 0.0;
            for seed in 1..=16 {
                let provider = CrossbarProvider::new(config.clone(), seed);
                let mut engine = provider.build(&m);
                for _ in 0..3 {
                    let out = engine.mvm(&input);
                    total += out
                        .iter()
                        .zip(&truth)
                        .map(|(&o, &t)| (o - t).abs() as f64)
                        .sum::<f64>();
                }
            }
            total
        };

        let uncoded = err_of(ProtectionScheme::None);
        let coded = err_of(ProtectionScheme::data_aware(10));
        assert!(
            coded * 10.0 < uncoded,
            "coded error {coded} not a tenth of uncoded {uncoded}"
        );
    }

    /// A single-row error that the stack's code corrects must decode to
    /// the clean value and count as corrected, for errors `±2^lsb` too
    /// large (`≥ A·B/2`) for the rounded quotient `observed / (A·B)`
    /// to absorb: only the syndrome table gets those right.
    #[test]
    fn decode_cycle_corrects_row_errors_rounding_cannot_absorb() {
        let m = quantized(8, 16, 9);
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.0);
        let stats = Arc::new(Mutex::new(DecodeStats::default()));
        let mut engine = CrossbarEngine::program(&m, &config, 3, stats);
        let stack = engine.mapped.stacks[0][0].clone();
        let code = stack.code.clone().expect("a data-aware stack is coded");
        let x = I256::from_i128(1).shifted_left(code.data_bits() - 1);
        let clean = I256::from(code.encode(x.magnitude()).expect("x fits the data width"));
        let mut checked = 0;
        for row in 0..stack.array.row_count() as u32 {
            let lsb = stack.slicer.row_lsb(row);
            if lsb < 63 && 2u128 << lsb < u128::from(code.multiplier()) {
                continue;
            }
            for sign in [1, -1] {
                let error = I256::from_i128(sign).shifted_left(lsb);
                let observed = clean + error;
                let table_value = observed
                    .rem_euclid_u64(code.a())
                    .and_then(|residue| code.table().lookup(residue))
                    .map(|entry| entry.syndrome.value());
                if observed.is_negative() || table_value != Some(error) {
                    continue;
                }
                let before = engine.local_stats;
                let value = engine.decode_cycle(&stack, |_| observed.magnitude());
                assert_eq!(value, x, "row {row} error {sign}·2^{lsb}");
                let delta = engine.local_stats.delta_since(&before);
                assert_eq!(
                    (delta.corrected, delta.total()),
                    (1, 1),
                    "row {row} error {sign}·2^{lsb}: {delta:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no correctable row error of at least A·B/2");
    }

    #[test]
    fn stats_accumulate() {
        let m = quantized(8, 16, 7);
        let input: Vec<u16> = (0..16).map(|i| (i * 3000) as u16).collect();
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.0);
        let provider = CrossbarProvider::new(config, 13);
        let mut engine = provider.build(&m);
        engine.mvm(&input);
        let stats = provider.stats();
        assert!(stats.total() > 0);
        assert!(stats.clean > 0);
    }

    #[test]
    fn retry_policy_reduces_uncorrectable_outcomes() {
        let m = quantized(8, 64, 8);
        let input: Vec<u16> = (0..64).map(|i| (65535 - i * 13) as u16).collect();
        let mut config = AccelConfig::new(ProtectionScheme::data_aware(7)).with_fault_rate(0.0);
        // Crank noise so uncorrectable events occur.
        config.device.rtn_state_probability = 0.4;

        let run = |retries: u32, seed: u64| {
            let mut c = config.clone();
            c.max_retries = retries;
            let provider = CrossbarProvider::new(c, seed);
            let mut engine = provider.build(&m);
            for _ in 0..2 {
                engine.mvm(&input);
            }
            provider.stats()
        };
        let without = run(0, 21);
        let with = run(3, 21);
        assert_eq!(without.retries, 0);
        // At this noise level untrusted decodes occur, so retries fire.
        assert!(with.retries > 0, "expected retries at high noise: {with:?}");
    }

    /// The retry policy's *accounting*, pinned. At a fixed noise seed
    /// the decode statistics are a pure function of the retry budget,
    /// so these exact values lock the retry loop's behavior: how many
    /// re-reads fire and how many group-cycles stay untrusted
    /// (uncorrectable / miscorrected) for `max_retries` of 0, 1, and 2.
    /// A change to the retry loop's RNG
    /// draw order, its trust predicate, or its stat bookkeeping moves
    /// these numbers and fails here.
    #[test]
    fn retry_stats_pinned_across_retry_budgets() {
        let m = quantized(8, 64, 8);
        let input: Vec<u16> = (0..64).map(|i| (65535 - i * 13) as u16).collect();
        let mut config = AccelConfig::new(ProtectionScheme::data_aware(7)).with_fault_rate(0.0);
        // The same high-noise regime as the test above: untrusted
        // decodes are common, so every retry budget is exercised.
        config.device.rtn_state_probability = 0.4;

        let run = |retries: u32| {
            let mut c = config.clone();
            c.max_retries = retries;
            let provider = CrossbarProvider::new(c, 21);
            let mut engine = provider.build(&m);
            for _ in 0..2 {
                engine.mvm(&input);
            }
            provider.stats()
        };

        let pinned: [(u32, u64, u64, u64); 3] = [
            // (max_retries, retries, uncorrectable, miscorrected)
            (0, 0, 0, 18),
            (1, 16, 0, 11),
            (2, 26, 0, 10),
        ];
        let mut prev_retries = 0u64;
        for (budget, want_retries, want_uncorrectable, want_miscorrected) in pinned {
            let stats = run(budget);
            assert_eq!(
                (stats.retries, stats.uncorrectable, stats.miscorrected),
                (want_retries, want_uncorrectable, want_miscorrected),
                "max_retries={budget}: {stats:?}"
            );
            // Shape: a larger budget can only add re-reads.
            assert!(stats.retries >= prev_retries, "max_retries={budget}");
            prev_retries = stats.retries;
        }
    }

    /// Full-noise golden outputs of single-vector calls, pinned: two
    /// consecutive calls per scheme on one engine.
    ///
    /// These pin the engine bit-for-bit: the exact RNG draw order (per
    /// stack a bit-sliced RTN snapshot, then per nonzero input bit the
    /// rows in ascending order, each taking a paired Gaussian only when
    /// its `±Z_MAX` bracket straddles a code boundary, then retry
    /// re-reads) and the ascending-column `f64` bit-plane conductance
    /// sums. Any hot-path change that perturbs either — reordering
    /// reads, taking or skipping a different set of draws, resuming
    /// sums in a different order — shifts these values and fails here.
    /// (The name dates from the scratch-buffer refactor; the values
    /// were re-pinned by the draw-on-demand reads and again when
    /// single-vector calls moved onto the batched kernel.)
    #[test]
    fn golden_outputs_unchanged_by_scratch_refactor() {
        let m = quantized(12, 128, 42);
        let input: Vec<u16> = (0..128u64)
            .map(|i| ((i * 2654435761) % 65536) as u16)
            .collect();
        let cases: [(ProtectionScheme, [i64; 12], [i64; 12]); 3] = [
            (
                ProtectionScheme::data_aware(9),
                [
                    127397613401,
                    140241623513,
                    150974893452,
                    145492176081,
                    133099234345,
                    126332532632,
                    134383177134,
                    149614365628,
                    147950518002,
                    140002878073,
                    128593175221,
                    127480534038,
                ],
                [
                    127397579708,
                    140241624298,
                    150974918568,
                    145492187822,
                    133099261188,
                    126332531950,
                    134383160721,
                    150452593003,
                    147950511165,
                    140002864435,
                    128593195512,
                    127480517658,
                ],
            ),
            (
                ProtectionScheme::Static16,
                [
                    127402659951,
                    140241620348,
                    150824310442,
                    145492148092,
                    133099249191,
                    126324868202,
                    134381853124,
                    149486507552,
                    147954179462,
                    140003307914,
                    128092591273,
                    127480509554,
                ],
                [
                    127404727111,
                    140241620348,
                    150849096446,
                    145492156284,
                    133099249191,
                    126307651072,
                    134368996396,
                    149490295168,
                    148378302924,
                    140014033770,
                    128580727905,
                    127480509554,
                ],
            ),
            (
                ProtectionScheme::None,
                [
                    127416618775,
                    140241635686,
                    150976198632,
                    146333526592,
                    133233195190,
                    126388499446,
                    134383400624,
                    149756160928,
                    147979718668,
                    139986167178,
                    128584619103,
                    127475397746,
                ],
                [
                    127397736211,
                    140241892496,
                    150974885864,
                    145492502336,
                    133098898471,
                    126205881086,
                    134383153072,
                    149486511524,
                    147943311988,
                    139982504010,
                    128573241407,
                    127486288143,
                ],
            ),
        ];
        for (scheme, first, second) in cases {
            let label = scheme.label();
            let provider = CrossbarProvider::new(AccelConfig::new(scheme), 1234);
            let mut engine = provider.build(&m);
            assert_eq!(engine.mvm(&input), first, "{label} first call");
            assert_eq!(engine.mvm(&input), second, "{label} second call");
        }
    }

    /// `mvm_into` is a batch of one: it must match `mvm_batch_into`
    /// with `batch = 1` bit for bit — under full noise, across repeated
    /// calls on the same engine. (The name dates from the separate
    /// scalar kernel that single-vector calls once ran.)
    #[test]
    fn batch_of_one_is_bit_identical_to_scalar_kernel() {
        let m = quantized(12, 128, 42);
        let input: Vec<u16> = (0..128u64)
            .map(|i| ((i * 2654435761) % 65536) as u16)
            .collect();
        for scheme in [
            ProtectionScheme::None,
            ProtectionScheme::Static16,
            ProtectionScheme::data_aware(9),
        ] {
            let label = scheme.label();
            let config = AccelConfig::new(scheme);
            let mut scalar = CrossbarProvider::new(config.clone(), 1234).build(&m);
            let mut batched = CrossbarProvider::new(config, 1234).build(&m);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for call in 0..3 {
                scalar.mvm_into(&input, &mut a);
                batched.mvm_batch_into(&input, 1, &mut b);
                assert_eq!(a, b, "{label} call {call}");
            }
        }
    }

    /// With every noise source disabled the batched kernel's outputs
    /// are RNG-independent, so batch-of-N must equal N sequential
    /// batch-of-1 calls integer-for-integer — and both equal the exact
    /// software reference. (Under noise the amortized RTN snapshot
    /// deliberately changes the draws; see the pinned goldens below.)
    #[test]
    fn noiseless_batch_matches_sequential_per_scheme() {
        let m = quantized(12, 64, 17);
        let batch = 8;
        let inputs: Vec<u16> = (0..batch as u64 * 64)
            .map(|i| ((i * 2654435761 + 99) % 65536) as u16)
            .collect();
        for scheme in [
            ProtectionScheme::None,
            ProtectionScheme::Static16,
            ProtectionScheme::data_aware(9),
        ] {
            let label = scheme.label();
            let config = noiseless_config(scheme);
            let mut seq_engine = CrossbarProvider::new(config.clone(), 1234).build(&m);
            let mut batch_engine = CrossbarProvider::new(config, 1234).build(&m);
            let mut batched = Vec::new();
            batch_engine.mvm_batch_into(&inputs, batch, &mut batched);
            let mut tmp = Vec::new();
            for v in 0..batch {
                let input = &inputs[v * 64..(v + 1) * 64];
                seq_engine.mvm_into(input, &mut tmp);
                assert_eq!(&batched[v * 12..(v + 1) * 12], tmp, "{label} vector {v}");
                assert_eq!(tmp, exact_reference(&m, input), "{label} vector {v} exact");
            }
        }
    }

    /// The number of decoded group-cycles is `Σ_v nonzero-bit count` —
    /// a pure function of the inputs, independent of noise draws — so
    /// it must match between batch-of-N and N sequential calls even
    /// under full noise where the outputs themselves differ.
    #[test]
    fn batched_decode_totals_match_sequential_under_noise() {
        let m = quantized(12, 64, 17);
        let batch = 5;
        let inputs: Vec<u16> = (0..batch as u64 * 64)
            .map(|i| ((i * 48271 + 7) % 65536) as u16)
            .collect();
        for scheme in [
            ProtectionScheme::None,
            ProtectionScheme::Static16,
            ProtectionScheme::data_aware(9),
        ] {
            let label = scheme.label();
            let config = AccelConfig::new(scheme);
            let seq_provider = CrossbarProvider::new(config.clone(), 55);
            let mut seq_engine = seq_provider.build(&m);
            let mut tmp = Vec::new();
            for v in 0..batch {
                seq_engine.mvm_into(&inputs[v * 64..(v + 1) * 64], &mut tmp);
            }
            let batch_provider = CrossbarProvider::new(config, 55);
            let mut batch_engine = batch_provider.build(&m);
            batch_engine.mvm_batch_into(&inputs, batch, &mut tmp);
            assert_eq!(
                seq_provider.stats().total(),
                batch_provider.stats().total(),
                "{label}"
            );
        }
    }

    /// Full-noise golden outputs of the batched kernel, pinned.
    ///
    /// These lock the batched draw discipline bit-for-bit: per (chunk,
    /// stack) one RTN snapshot shared by the whole batch, then per
    /// vector per nonzero input bit the rows in ascending order, each
    /// taking a paired Gaussian only when its `±Z_MAX` bracket
    /// straddles, plus retry re-reads, with the single-sqrt sigma and
    /// reciprocal quantize. Any reordering of the amortized reads — or
    /// a change to the paired-normal stream — shifts these values.
    #[test]
    fn batched_golden_outputs_pinned() {
        let m = quantized(12, 128, 42);
        let batch = 3;
        let inputs: Vec<u16> = (0..batch as u64 * 128)
            .map(|i| ((i * 2654435761) % 65536) as u16)
            .collect();
        let cases: [(ProtectionScheme, [i64; 36]); 3] = golden_batched_cases();
        for (scheme, want) in cases {
            let label = scheme.label();
            let provider = CrossbarProvider::new(AccelConfig::new(scheme).with_batch(batch), 1234);
            let mut engine = provider.build(&m);
            let mut out = Vec::new();
            engine.mvm_batch_into(&inputs, batch, &mut out);
            assert_eq!(out, want, "{label}");
        }
    }

    #[test]
    fn batched_remap_scatter_restores_row_order_per_vector() {
        let m = quantized(24, 16, 10);
        let batch = 4;
        let inputs: Vec<u16> = (0..batch as u64 * 16)
            .map(|i| (i * 481 % 65536) as u16)
            .collect();
        let mut config = noiseless_config(ProtectionScheme::data_aware(9));
        config.remap = true;
        let provider = CrossbarProvider::new(config, 7);
        let mut engine = provider.build(&m);
        let mut out = Vec::new();
        engine.mvm_batch_into(&inputs, batch, &mut out);
        for v in 0..batch {
            let input = &inputs[v * 16..(v + 1) * 16];
            assert_eq!(
                &out[v * 24..(v + 1) * 24],
                exact_reference(&m, input),
                "vector {v}"
            );
        }
    }

    #[test]
    fn remap_scatter_restores_row_order() {
        // Noiseless, so every lane is exact regardless of which group it
        // was programmed into — the output must equal the reference even
        // though the rows were permuted internally.
        let m = quantized(24, 16, 10);
        let input: Vec<u16> = (0..16).map(|i| (i * 481) as u16).collect();
        let mut config = noiseless_config(ProtectionScheme::data_aware(9));
        config.remap = true;
        let out = run_engine(&m, config, &input);
        assert_eq!(out, exact_reference(&m, &input));
    }

    #[test]
    fn try_program_accepts_valid_config() {
        let m = quantized(4, 8, 12);
        let config = noiseless_config(ProtectionScheme::data_aware(9));
        let stats = Arc::new(Mutex::new(DecodeStats::default()));
        assert!(CrossbarEngine::try_program(&m, &config, 3, stats).is_ok());
    }

    #[test]
    fn try_program_reports_code_errors() {
        let m = quantized(4, 8, 12);
        // A 5-bit budget admits no hardware divider constant
        // (max A = 31/3 = 10 < 19), so the A-search must fail with a
        // typed error instead of panicking.
        let config = noiseless_config(ProtectionScheme::DataAware {
            check_bits: 5,
            hardware_candidates: true,
        });
        let stats = Arc::new(Mutex::new(DecodeStats::default()));
        let result = CrossbarEngine::try_program(&m, &config, 3, stats);
        assert!(matches!(result, Err(crate::AccelError::Code(_))));
    }

    #[test]
    fn mvm_into_reuses_buffer_and_matches_mvm() {
        let m = quantized(6, 32, 11);
        let input: Vec<u16> = (0..32).map(|i| (i * 999) as u16).collect();
        let config = AccelConfig::new(ProtectionScheme::data_aware(9));
        // Two identically seeded engines: one driven through the
        // allocating wrapper, one through `mvm_into` against a single
        // reused output buffer.
        let mut e1 = CrossbarProvider::new(config.clone(), 77).build(&m);
        let mut e2 = CrossbarProvider::new(config, 77).build(&m);
        let mut out = Vec::new();
        for call in 0..3 {
            let expected = e1.mvm(&input);
            e2.mvm_into(&input, &mut out);
            assert_eq!(out, expected, "call {call}");
        }
    }

    #[test]
    fn uncoded_stats_tracked_separately() {
        let m = quantized(4, 8, 9);
        let input: Vec<u16> = vec![1; 8];
        let config = noiseless_config(ProtectionScheme::None);
        let provider = CrossbarProvider::new(config, 5);
        let mut engine = provider.build(&m);
        engine.mvm(&input);
        let stats = provider.stats();
        assert!(stats.uncoded > 0);
        assert_eq!(stats.clean, 0);
        assert_eq!(stats.error_rate(), 0.0);
    }
    /// Full-noise batched outputs pinned at capture time (12x128 matrix,
    /// seed 42, batch 3, provider seed 1234). A batch shares one RTN
    /// snapshot per stack, so these differ from three sequential
    /// single-vector calls by design; any unintended change to the
    /// batched draw order shows up as a diff here.
    fn golden_batched_cases() -> [(ProtectionScheme, [i64; 36]); 3] {
        [
            (
                ProtectionScheme::data_aware(9),
                [
                    127397613401,
                    140241623513,
                    150974893452,
                    145492176081,
                    133099234345,
                    126332532632,
                    134383177134,
                    149614365628,
                    147950512434,
                    140002895501,
                    128593173074,
                    127480480891,
                    136577065875,
                    144575300764,
                    148474753110,
                    134514142764,
                    125202522581,
                    130106897541,
                    141901532053,
                    151191399323,
                    140157134948,
                    130995887123,
                    126962341212,
                    138183160748,
                    143785116701,
                    142642750140,
                    139708418145,
                    125859684502,
                    128219119360,
                    140499659146,
                    143153705781,
                    145015663490,
                    126097589476,
                    124312365663,
                    136244597395,
                    142619861026,
                ],
            ),
            (
                ProtectionScheme::Static16,
                [
                    127402659951,
                    140240191612,
                    150974885864,
                    145492148092,
                    133102350119,
                    126324885259,
                    134364740640,
                    149488451360,
                    147626251146,
                    140040946058,
                    128761338271,
                    127480509554,
                    136638331727,
                    144575308924,
                    148474306792,
                    134514134652,
                    125247687591,
                    130152057099,
                    141851246528,
                    150179669024,
                    140005054186,
                    130995888138,
                    127068929695,
                    138186996146,
                    143855128175,
                    142642772860,
                    139692251624,
                    125859691900,
                    127609445927,
                    140494130955,
                    143135783872,
                    145086272800,
                    126013784682,
                    124312354442,
                    136502788983,
                    142619771762,
                ],
            ),
            (
                ProtectionScheme::None,
                [
                    127416618775,
                    140260206902,
                    151188729896,
                    145492502592,
                    133169876519,
                    126340144302,
                    134387262892,
                    149486511392,
                    147909454428,
                    139982351754,
                    128593139455,
                    127480509554,
                    136182766999,
                    144589497782,
                    148643729960,
                    134531136832,
                    125190742823,
                    130171743022,
                    141918632620,
                    150134399520,
                    140148730877,
                    131066874122,
                    126962305279,
                    138187516914,
                    143254724631,
                    142643874358,
                    139721033288,
                    125860844096,
                    128365139879,
                    140553615790,
                    143188775340,
                    144589397792,
                    126095460957,
                    124106378890,
                    136244329279,
                    142620098418,
                ],
            ),
        ]
    }
}
