//! Programmed crossbar arrays and Monte-Carlo row readout.

use rand::Rng;

use wideint::U256;

use crate::stats::{sample_binomial, Deferred, NormalSource, Z_MAX};
use crate::{Adc, DeviceParams, InputMask};

/// A programming request the crossbar fabric cannot satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArrayError {
    /// A row held more cells than the 128-column crossbar width.
    RowTooWide {
        /// Index of the offending row.
        row: usize,
        /// Requested cell count.
        width: usize,
    },
    /// A target level exceeded the device's level count.
    LevelOutOfRange {
        /// Index of the offending row.
        row: usize,
        /// Column within the row.
        column: usize,
        /// The requested level.
        level: u32,
        /// Number of levels the device supports.
        levels: u32,
    },
}

impl std::fmt::Display for ArrayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayError::RowTooWide { row, width } => write!(
                f,
                "row {row} holds {width} cells; rows hold at most {} cells",
                InputMask::MAX_WIDTH
            ),
            ArrayError::LevelOutOfRange {
                row,
                column,
                level,
                levels,
            } => write!(
                f,
                "row {row} column {column}: level {level} out of range (device has {levels} levels)"
            ),
        }
    }
}

impl std::error::Error for ArrayError {}

/// One programmed physical row: up to 128 cells, each stored once, as
/// its conductance and a bit in its stored level's column mask.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalRow {
    /// Programmed conductances (S), including the RTN offset and the
    /// static programming error.
    conductance: Vec<f64>,
    /// Column bitmask per level of the *actual* stored data, for fast
    /// per-level active counts.
    level_masks: Vec<u128>,
    /// Columns with stuck-at faults, ascending.
    stuck_columns: Vec<u32>,
    /// Intended levels of the stuck columns, in the same order; every
    /// other column stores its intended level.
    stuck_targets: Vec<u32>,
}

impl PhysicalRow {
    /// Number of cells in the row.
    pub fn width(&self) -> u32 {
        self.conductance.len() as u32
    }

    /// Intended level of column `j`; panics if `j` is out of range.
    pub fn target_level(&self, j: u32) -> u32 {
        match self.stuck_columns.binary_search(&j) {
            Ok(i) => self.stuck_targets[i],
            Err(_) => self.actual_level(j),
        }
    }

    /// Actually stored level of column `j` (differs at stuck cells), the
    /// level whose mask holds bit `j`; panics if `j` is out of range.
    pub fn actual_level(&self, j: u32) -> u32 {
        let bit = 1u128.checked_shl(j).unwrap_or(0);
        let level = self.level_masks.iter().position(|&m| m & bit != 0);
        level.expect("column out of range") as u32
    }

    /// Columns pinned by stuck-at faults.
    pub fn stuck_columns(&self) -> &[u32] {
        &self.stuck_columns
    }

    /// Whether the row contains any stuck cell.
    pub fn has_stuck(&self) -> bool {
        !self.stuck_columns.is_empty()
    }

    /// Count of *driven* cells stored at `level`.
    pub fn active_count_at_level(&self, level: u32, mask: &InputMask) -> u32 {
        (self.level_masks[level as usize] & mask.bits()).count_ones()
    }

    /// Counts of driven cells per level.
    pub fn active_composition(&self, mask: &InputMask) -> Vec<u32> {
        (0..self.level_masks.len() as u32)
            .map(|l| self.active_count_at_level(l, mask))
            .collect()
    }
}

/// A frozen RTN trap configuration: one bit per cell, per row.
///
/// Produced by [`CrossbarArray::sample_rtn`] and consumed by
/// [`CrossbarArray::read_row_frozen`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RtnSnapshot {
    traps: Vec<u128>,
}

impl RtnSnapshot {
    /// An empty snapshot with capacity for `rows` rows, intended as the
    /// reusable target of [`CrossbarArray::sample_rtn_into`].
    pub fn with_row_capacity(rows: usize) -> RtnSnapshot {
        RtnSnapshot {
            traps: Vec::with_capacity(rows),
        }
    }

    /// Number of trapped cells in row `row`.
    pub fn trapped_in_row(&self, row: usize) -> u32 {
        self.traps[row].count_ones()
    }

    /// Number of rows covered by the snapshot.
    pub fn rows(&self) -> usize {
        self.traps.len()
    }
}

/// A programmed crossbar array: a set of physical rows sharing the same
/// column inputs.
///
/// Programming applies, per cell:
///
/// 1. **stuck-at faults** with probability
///    [`fault_rate`](DeviceParams::fault_rate), pinning the cell at a
///    random level;
/// 2. the **RTN offset** (§IV): the target resistance is lowered by
///    `p_RTN · ΔR` so the *time-averaged* current matches the ideal; and
/// 3. the **programming error**: a uniform ±1 % residual on the final
///    resistance.
///
/// Reads sample RTN trap occupancy per level (binomial), thermal and
/// shot noise (Gaussian), and quantize through the shared [`Adc`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarArray {
    rows: Vec<PhysicalRow>,
    params: DeviceParams,
    adc: Adc,
    /// Per-level nominal programmed resistance (after RTN offset).
    r_prog: Vec<f64>,
    /// Per-level current drop (A) when a cell's trap is occupied.
    delta_i: Vec<f64>,
}

impl CrossbarArray {
    /// Programs an array from target cell levels, one inner `Vec` per
    /// physical row.
    ///
    /// # Panics
    ///
    /// Panics if any row is wider than 128 columns or any level exceeds
    /// the device's maximum; [`try_program`](CrossbarArray::try_program)
    /// is the recoverable variant.
    pub fn program<R: Rng + ?Sized>(
        rows: &[Vec<u32>],
        params: &DeviceParams,
        rng: &mut R,
    ) -> CrossbarArray {
        match CrossbarArray::try_program(rows, params, rng) {
            Ok(array) => array,
            Err(e) => panic!("{e}"),
        }
    }

    /// Programs an array from target cell levels, validating the request
    /// before touching the RNG.
    ///
    /// Validation draws nothing from `rng`, so for valid inputs this is
    /// bit-identical to [`program`](CrossbarArray::program) under a
    /// fixed seed.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError`] when a row is wider than 128 columns or a
    /// target level exceeds the device's level count.
    pub fn try_program<R: Rng + ?Sized>(
        rows: &[Vec<u32>],
        params: &DeviceParams,
        rng: &mut R,
    ) -> Result<CrossbarArray, ArrayError> {
        let levels = params.levels();
        for (i, targets) in rows.iter().enumerate() {
            if targets.len() > InputMask::MAX_WIDTH as usize {
                return Err(ArrayError::RowTooWide {
                    row: i,
                    width: targets.len(),
                });
            }
            if let Some((j, &level)) = targets.iter().enumerate().find(|(_, &l)| l >= levels) {
                return Err(ArrayError::LevelOutOfRange {
                    row: i,
                    column: j,
                    level,
                    levels,
                });
            }
        }
        let rtn = params.rtn();

        // Per-level programmed resistance with the RTN offset applied.
        let mut r_prog = Vec::with_capacity(levels as usize);
        let mut delta_i = Vec::with_capacity(levels as usize);
        for level in 0..levels {
            let r_target = 1.0 / params.conductance(level);
            let d_target = rtn.delta_r_over_r(r_target);
            let offset = if params.rtn_offset {
                rtn.state_probability * d_target / (1.0 + d_target)
            } else {
                0.0
            };
            let r = r_target * (1.0 - offset);
            let d = rtn.delta_r_over_r(r);
            r_prog.push(r);
            delta_i.push(params.v_read / r * (d / (1.0 + d)));
        }

        // One pass per row; per cell the fault draw, the stuck level if
        // stuck, then the tolerance draw.
        let tol = params.programming_tolerance;
        let rows = rows
            .iter()
            .map(|targets| {
                let mut row = PhysicalRow {
                    conductance: Vec::with_capacity(targets.len()),
                    level_masks: vec![0u128; levels as usize],
                    stuck_columns: Vec::new(),
                    stuck_targets: Vec::new(),
                };
                for (j, &target) in targets.iter().enumerate() {
                    let actual = if rng.gen::<f64>() < params.fault_rate {
                        row.stuck_columns.push(j as u32);
                        row.stuck_targets.push(target);
                        rng.gen_range(0..levels)
                    } else {
                        target
                    };
                    // Static programming residual: uniform within ±tol of
                    // the offset-adjusted target resistance.
                    let r = r_prog[actual as usize] * (1.0 + rng.gen_range(-tol..=tol));
                    row.level_masks[actual as usize] |= 1 << j;
                    row.conductance.push(1.0 / r);
                }
                row
            })
            .collect();

        Ok(CrossbarArray {
            rows,
            params: params.clone(),
            adc: Adc::new(params),
            r_prog,
            delta_i,
        })
    }

    /// The device parameters the array was programmed with.
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// The shared row ADC.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }

    /// The physical rows.
    pub fn rows(&self) -> &[PhysicalRow] {
        &self.rows
    }

    /// Number of physical rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Per-level RTN current drop when trapped (A).
    pub fn rtn_delta_i(&self) -> &[f64] {
        &self.delta_i
    }

    /// Per-level nominal programmed resistance (Ω), after the RTN
    /// offset.
    pub fn programmed_resistance(&self) -> &[f64] {
        &self.r_prog
    }

    /// The noise-free, fault-free integer output of row `row`:
    /// `Σ_{j driven} target_level[j]`.
    pub fn ideal_row_output(&self, row: usize, mask: &InputMask) -> i64 {
        let r = &self.rows[row];
        mask.iter_ones().map(|j| i64::from(r.target_level(j))).sum()
    }

    /// Samples one noisy readout of row `row` under `mask` and returns
    /// the quantized integer output.
    ///
    /// Stuck-at faults and programming error are static (baked into the
    /// programmed conductances); RTN occupancy and thermal/shot noise
    /// are drawn fresh, modeling an independent read instant. For reads
    /// that are close together relative to the RTN dwell times (e.g. the
    /// 16 bit-serial cycles of one inference), use
    /// [`sample_rtn`](CrossbarArray::sample_rtn) +
    /// [`read_row_frozen`](CrossbarArray::read_row_frozen) instead.
    ///
    /// The Gaussian is drawn only when the code depends on it, as in
    /// [`read_rows_into`](CrossbarArray::read_rows_into).
    pub fn read_row<R: Rng + ?Sized>(&self, row: usize, mask: &InputMask, rng: &mut R) -> i64 {
        let (current, sigma) = self.sample_rtn_current(row, mask, rng);
        i64::from(self.quantize_noisy(current, sigma, mask.count_ones(), rng))
    }

    /// Samples a frozen RTN trap configuration for the whole array.
    ///
    /// RTN dwell times (τ ≈ 0.1 ms) are many orders of magnitude longer
    /// than one inference (µs), so every read within an inference sees
    /// the *same* trap occupancy: errors are few and persistent rather
    /// than independent per cycle — the regime the correction tables
    /// are designed for. Draw one snapshot per inference.
    pub fn sample_rtn<R: Rng + ?Sized>(&self, rng: &mut R) -> RtnSnapshot {
        let mut snapshot = RtnSnapshot { traps: Vec::new() };
        self.sample_rtn_into(rng, &mut snapshot);
        snapshot
    }

    /// Like [`CrossbarArray::sample_rtn`], but refills a caller-provided
    /// snapshot in place, reusing its trap buffer.
    ///
    /// Each cell is trapped iff its 53-bit uniform `K` is below
    /// `T = ⌈p · 2⁵³⌉`, exactly as `rng.gen::<f64>() < p` would decide
    /// (that uniform is `K · 2⁻⁵³`, and `p · 2⁵³` is exact), but the
    /// uniforms are never materialised. A row's cells compare their
    /// `K` against `T` together, most significant bit first: every
    /// round draws one random word whose bit `j` is the next bit of
    /// cell `j`'s `K` — one `u64` for rows up to 64 cells wide, two for
    /// wider rows — and the row stops as soon as no cell is undecided
    /// or `T` has no set bit left. So the
    /// trap distribution is the per-cell Bernoulli(`T · 2⁻⁵³`) it always
    /// was, at a cost set by `T`'s bit pattern rather than the width:
    /// `p = 0.25` costs two rounds per row, `p ≤ 0` or `p ≥ 1` none,
    /// and no row ever takes more than 53. Rows are sampled in order.
    pub fn sample_rtn_into<R: Rng + ?Sized>(&self, rng: &mut R, snapshot: &mut RtnSnapshot) {
        obs::counter!(xbar_rtn_snapshots).incr();
        let threshold = trap_threshold(self.params.rtn_state_probability);
        snapshot.traps.clear();
        snapshot.traps.extend(
            self.rows
                .iter()
                .map(|row| sample_row_traps(row.width(), threshold, rng)),
        );
    }

    /// Reads row `row` under `mask` with the RTN occupancy frozen to
    /// `snapshot`; thermal and shot noise are still drawn fresh, when
    /// the code depends on them
    /// ([`read_rows_into`](CrossbarArray::read_rows_into)).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different array shape.
    pub fn read_row_frozen<R: Rng + ?Sized>(
        &self,
        row: usize,
        mask: &InputMask,
        snapshot: &RtnSnapshot,
        rng: &mut R,
    ) -> i64 {
        let r = &self.rows[row];
        let mut g_total = 0.0;
        for j in mask.iter_ones() {
            g_total += r.conductance[j as usize];
        }
        let code = self.read_frozen(
            r,
            g_total,
            snapshot.traps[row],
            mask.bits(),
            mask.count_ones(),
            self.read_noise(),
            rng,
        );
        i64::from(code)
    }

    /// Reads *every* row under `mask` with the RTN occupancy frozen to
    /// `snapshot`, writing the quantized outputs into `out`.
    ///
    /// `out` is cleared and refilled with one entry per physical row; a
    /// buffer with sufficient capacity is reused without allocating.
    ///
    /// A row draws its Gaussian only when the code depends on it: when
    /// the noisy current at both ends of `±`[`Z_MAX`]`·σ` quantizes to
    /// one code, every admissible draw would give that code, and the
    /// read takes nothing from `rng`. Otherwise it takes one Box–Muller
    /// uniform pair and quantizes the drawn value. So a read takes zero
    /// or one draw, and the codes have the distribution of an eager
    /// read that always draws.
    ///
    /// Rows are read in ascending order and each read consumes `rng`
    /// exactly as [`CrossbarArray::read_row_frozen`] does, so under a
    /// fixed seed the bulk read is bit-identical to `row_count`
    /// individual frozen reads. The driven conductance sums of up to 8
    /// rows are accumulated in one pass over the driven columns, each
    /// row in its own ascending-column order, so they equal the per-row
    /// scans bit for bit. It is the self-contained group read, one call
    /// per bit-serial cycle per stack; the accelerator engine itself
    /// reads through
    /// [`read_rows_amortized_into`](CrossbarArray::read_rows_amortized_into).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different array shape.
    pub fn read_rows_into<R: Rng + ?Sized>(
        &self,
        mask: &InputMask,
        snapshot: &RtnSnapshot,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) {
        obs::counter!(xbar_row_reads).add(self.rows.len() as u64);
        out.clear();
        let mask_bits = mask.bits();
        let active = mask.count_ones();
        let noise = self.read_noise();
        for (block, rows) in self.rows.chunks(READ_BLOCK).enumerate() {
            let g_totals = driven_conductance_sums(rows, mask);
            for (k, (r, &g_total)) in rows.iter().zip(&g_totals).enumerate() {
                let trap_bits = snapshot.traps[block * READ_BLOCK + k];
                let code = self.read_frozen(r, g_total, trap_bits, mask_bits, active, noise, rng);
                out.push(u64::from(code));
            }
        }
    }

    /// The read-noise model of this array's device parameters.
    fn read_noise(&self) -> ReadNoise {
        ReadNoise {
            thermal: 4.0 * crate::device::K_B * self.params.temperature * self.params.bandwidth,
            shot: 2.0 * crate::device::Q_E * self.params.bandwidth,
        }
    }

    /// The frozen-RTN read of one row with driven conductance sum
    /// `g_total`: the one code path behind
    /// [`read_row_frozen`](CrossbarArray::read_row_frozen) and
    /// [`read_rows_into`](CrossbarArray::read_rows_into).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn read_frozen<R: Rng + ?Sized>(
        &self,
        r: &PhysicalRow,
        g_total: f64,
        trap_bits: u128,
        mask_bits: u128,
        active: u32,
        noise: ReadNoise,
        rng: &mut R,
    ) -> u32 {
        let mut current = self.params.v_read * g_total;
        for (&level_mask, &delta_i) in r.level_masks.iter().zip(&self.delta_i) {
            let trapped = (level_mask & trap_bits & mask_bits).count_ones();
            current -= trapped as f64 * delta_i;
        }
        self.quantize_noisy(current, noise.sigma(g_total, current), active, rng)
    }

    /// Quantizes `current + sigma·z` for a standard normal `z` with the
    /// distribution of `adc.quantize(sample_normal(rng, current, sigma),
    /// mask)`, drawing `z` only when the code depends on it
    /// ([`quantize_on_demand`]).
    #[inline]
    fn quantize_noisy<R: Rng + ?Sized>(
        &self,
        current: f64,
        sigma: f64,
        active: u32,
        rng: &mut R,
    ) -> u32 {
        quantize_on_demand(
            current,
            sigma,
            || Deferred::sample(rng),
            |i| self.adc.quantize_active(i, active),
        )
    }

    /// Computes, for every row and every input-bit plane, the driven
    /// conductance sum `Σ_{j : bit t of values[j] set} conductance[j]`,
    /// in one ascending-column pass per row.
    ///
    /// `values` holds one widened input word per column; `out` is
    /// cleared and refilled t-major (`out[t · row_count + row]`), so
    /// the per-bit slice consumed by one bit-serial cycle is
    /// contiguous. Accumulation order is ascending `j` with a
    /// branchless `g · bit` term; since `g · 1.0 = g`, `g · 0.0 = +0.0`
    /// and adding `+0.0` to a non-negative partial sum is an exact
    /// identity, each plane sum is bit-identical to the
    /// [`iter_ones`](InputMask::iter_ones)-order sum the scalar read
    /// path computes. This is the batched kernel's replacement for
    /// per-(bit, row) mask scans: one pass serves all `input_bits`
    /// planes and every vector's reads against them.
    ///
    /// # Panics
    ///
    /// Panics if `input_bits > 16` or `values` is narrower than a row.
    pub fn conductance_planes_into(&self, values: &[u64], input_bits: u32, out: &mut Vec<f64>) {
        assert!(input_bits <= 16, "input_bits {input_bits} > 16");
        let rows = self.rows.len();
        out.clear();
        out.resize(input_bits as usize * rows, 0.0);
        if input_bits == 16 {
            // The production width: a fixed-bound kernel the compiler
            // can unroll. There is one code path; any lane-parallel
            // codegen comes from `target-cpu=native` in
            // `.cargo/config.toml` and keeps every plane's add order.
            // Rows of equal width go [`PLANE_ROWS`] at a time: their
            // add chains are independent, so they overlap instead of
            // each waiting out one add latency per column, and the
            // column's bit masks are built once for all of them.
            // Only columns with a nonzero input word add anything.
            let mut driven = [0u8; InputMask::MAX_WIDTH as usize];
            let mut count = 0;
            for (j, &v) in values.iter().enumerate().take(driven.len()) {
                driven[count] = j as u8;
                count += usize::from(v != 0);
            }
            let driven = &driven[..count];
            let below =
                |width: usize| &driven[..driven.partition_point(|&j| usize::from(j) < width)];
            for (block, group) in self.rows.chunks(PLANE_ROWS).enumerate() {
                for r in group {
                    assert!(
                        values.len() >= r.conductance.len(),
                        "values narrower than row"
                    );
                }
                let width = group[0].conductance.len();
                let same_width = group.iter().all(|r| r.conductance.len() == width);
                match <&[PhysicalRow; PLANE_ROWS]>::try_from(group) {
                    Ok(group) if same_width => {
                        let acc = planes16_rows(
                            group.each_ref().map(|r| &r.conductance[..]),
                            values,
                            below(width),
                        );
                        for (k, acc) in acc.iter().enumerate() {
                            for (t, &a) in acc.iter().enumerate() {
                                out[t * rows + block * PLANE_ROWS + k] = a;
                            }
                        }
                    }
                    _ => {
                        for (k, r) in group.iter().enumerate() {
                            let width = r.conductance.len();
                            let [acc] = planes16_rows([&r.conductance[..]], values, below(width));
                            for (t, &a) in acc.iter().enumerate() {
                                out[t * rows + block * PLANE_ROWS + k] = a;
                            }
                        }
                    }
                }
            }
            return;
        }
        for (row, r) in self.rows.iter().enumerate() {
            assert!(
                values.len() >= r.conductance.len(),
                "values narrower than row"
            );
            let mut acc = [0.0f64; 16];
            for (&g, &v) in r.conductance.iter().zip(values) {
                for (t, a) in acc.iter_mut().take(input_bits as usize).enumerate() {
                    *a += g * ((v >> t) & 1) as f64;
                }
            }
            for (t, &a) in acc.iter().take(input_bits as usize).enumerate() {
                out[t * rows + row] = a;
            }
        }
    }

    /// Intersects a frozen RTN snapshot with every row's per-level
    /// column masks, keeping only the non-empty intersections as a
    /// sparse CSR table: `offsets[row]..offsets[row + 1]` indexes
    /// `entries`, each entry a `(Δi, trapped-column mask)` pair in
    /// ascending-level order.
    ///
    /// The batched kernel hoists this once per (stack, batch). Under
    /// realistic trap occupancy most `(row, level)` intersections are
    /// empty, so each subsequent read walks a handful of entries per
    /// row instead of every level — and an empty level would only have
    /// subtracted an exact `+0.0`, so skipping it leaves the current
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a different array shape.
    pub fn trap_level_sparse_into(
        &self,
        snapshot: &RtnSnapshot,
        offsets: &mut Vec<u32>,
        entries: &mut Vec<(f64, u128)>,
    ) {
        offsets.clear();
        entries.clear();
        offsets.push(0);
        for (row, r) in self.rows.iter().enumerate() {
            let traps = snapshot.traps[row];
            for (level, &m) in r.level_masks.iter().enumerate() {
                let masked = m & traps;
                if masked != 0 {
                    entries.push((self.delta_i[level], masked));
                }
            }
            offsets.push(entries.len() as u32);
        }
    }

    /// The draw-free half of the batched kernel's row reads: brackets
    /// every row under each of `masks` (one bit-serial cycle each, at
    /// most 16), into `out`.
    ///
    /// `planes` holds one `row_count` slice of driven conductance sums
    /// per mask, t-major as
    /// [`conductance_planes_into`](CrossbarArray::conductance_planes_into)
    /// writes them; `trap_offsets` and `trap_entries` are the hoisted
    /// table of
    /// [`trap_level_sparse_into`](CrossbarArray::trap_level_sparse_into).
    ///
    /// Per read this computes exactly the `f64` expressions of a single
    /// read: the noise-free current `v_read · g − Σ trapped · Δi` over
    /// the table's levels in ascending order, the sigma
    /// `sqrt(thermal · g + shot · |current|)`, and the codes at both
    /// ends of `current ± Z_MAX · σ` through `Adc::quantize_fast`. A
    /// row is done for all cycles at once, one cycle per lane, so the
    /// compiler runs the trapped counts, the square roots and the
    /// quantizer over 16 lanes at a time. Nothing here draws, so
    /// bracketing every cycle before walking any changes no draw; a
    /// cycle whose mask drives no column is bracketed too and never
    /// walked.
    ///
    /// The reduce happens here too: each row's low code `lo` is added,
    /// shifted by its row weight `2^{r·c}`, into the cycle's clean
    /// value, and each row records which cycles straddle (`lo ≠ hi`),
    /// so [`walk_reads`](CrossbarArray::walk_reads) only visits the
    /// rows that draw.
    ///
    /// # Panics
    ///
    /// Panics if `masks` holds more than 16 masks, or
    /// `planes` or the trap table do not cover every row of every mask.
    pub fn bracket_reads_into(
        &self,
        masks: &[InputMask],
        planes: &[f64],
        trap_offsets: &[u32],
        trap_entries: &[(f64, u128)],
        out: &mut ReadBrackets,
    ) {
        let rows = self.rows.len();
        let cycles = Cycles::<MAX_CYCLES>::new(masks);
        assert!(
            planes.len() >= masks.len() * rows,
            "planes narrower than masks"
        );
        self.check_trap_offsets(trap_offsets);
        let c = self.params.bits_per_cell as usize;
        out.reset(rows, c, masks);
        // Transpose the t-major plane sums into the sigma slots, one
        // row of lanes each, where the row's pass reads them first.
        if masks.len() < MAX_CYCLES {
            out.sigma.fill(0.0);
        }
        if rows > 0 {
            for (t, plane) in planes.chunks_exact(rows).take(masks.len()).enumerate() {
                for (lanes, &g) in out.sigma.chunks_exact_mut(MAX_CYCLES).zip(plane) {
                    lanes[t] = g;
                }
            }
        }
        let reads = out.current.chunks_exact_mut(MAX_CYCLES);
        let reads = reads.zip(out.sigma.chunks_exact_mut(MAX_CYCLES));
        let reads = reads.zip(out.lo.chunks_exact_mut(MAX_CYCLES));
        let mut straddle_any = 0;
        for (row, ((current, sigma), lo)) in reads.enumerate() {
            let mut g = [0.0f64; MAX_CYCLES];
            g.copy_from_slice(sigma);
            let levels = trap_levels(trap_offsets, trap_entries, row);
            let bracket = self.bracket_row(&cycles, &g, levels);
            current.copy_from_slice(&bracket.current);
            sigma.copy_from_slice(&bracket.sigma);
            lo.copy_from_slice(&bracket.lo);
            let shift = row * c;
            let digit = &mut out.digits[shift / DIGIT_BITS * MAX_CYCLES..][..MAX_CYCLES];
            let mut straddle = 0u16;
            for (k, d) in digit.iter_mut().enumerate() {
                *d += u64::from(bracket.lo[k]) << (shift % DIGIT_BITS);
                straddle |= u16::from(bracket.lo[k] != bracket.hi[k]) << k;
            }
            out.straddle[row] = straddle;
            straddle_any |= straddle;
        }
        out.straddle_any = straddle_any;
    }

    /// The sequential half of the batched kernel's row reads: the
    /// reduced value `Σ_r code_r · 2^{r·c}` of bracketed cycle `cycle`,
    /// as [`BitSlicer::reduce`](crate::BitSlicer::reduce) sums the
    /// codes of the rows in ascending order.
    ///
    /// It starts from the clean value that
    /// [`bracket_reads_into`](CrossbarArray::bracket_reads_into) summed
    /// from every row's low code and returns it at once if no row
    /// straddles. Otherwise it visits, in ascending order, only the rows
    /// whose bracket straddles: each takes one [`Deferred`] normal from
    /// `normals` ([`NormalSource::next_deferred`]), brackets again at
    /// the draw's own bound, evaluates it only if that straddles too,
    /// and adds `(code − lo) · 2^{r·c}`. A row whose bracket agrees
    /// takes nothing from the stream, so the draws are the ones a walk
    /// of every row would take. Walking the same cycle again — a decode
    /// retry — re-draws exactly the straddling rows, as a full re-read
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is not a cycle of `brackets`.
    pub fn walk_reads<R: Rng + ?Sized>(
        &self,
        brackets: &ReadBrackets,
        cycle: usize,
        normals: &mut NormalSource,
        rng: &mut R,
    ) -> U256 {
        self.walk(brackets, cycle, normals, rng)
    }

    /// [`walk_reads`](CrossbarArray::walk_reads) in one `u128`, for
    /// stacks whose cycle values provably fit, as
    /// [`BitSlicer::reduce_u128`](crate::BitSlicer::reduce_u128): the
    /// caller bounds the codes so that the value is below `2¹²⁸`. Then
    /// it equals `walk_reads` exactly, draws included.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is not a cycle of `brackets`.
    pub fn walk_reads_u128<R: Rng + ?Sized>(
        &self,
        brackets: &ReadBrackets,
        cycle: usize,
        normals: &mut NormalSource,
        rng: &mut R,
    ) -> u128 {
        self.walk(brackets, cycle, normals, rng)
    }

    /// The one walk behind [`walk_reads`](CrossbarArray::walk_reads) and
    /// [`walk_reads_u128`](CrossbarArray::walk_reads_u128).
    #[inline]
    fn walk<V: CycleValue, R: Rng + ?Sized>(
        &self,
        brackets: &ReadBrackets,
        cycle: usize,
        normals: &mut NormalSource,
        rng: &mut R,
    ) -> V {
        assert!(cycle < brackets.active.len(), "cycle {cycle} not bracketed");
        obs::counter!(xbar_row_reads).add(brackets.rows as u64);
        // This cycle's clean digits; a straddling row adds its
        // correction to its own digit, and the digits become one value
        // at the end. Digits from 2²⁵⁶ up are dropped, as a `U256`
        // shift drops them.
        let mut digits = [0u64; MAX_DIGITS];
        let clean = brackets.digits.get(cycle..).unwrap_or_default();
        let clean = clean.iter().step_by(MAX_CYCLES);
        let count = clean.len().min(MAX_DIGITS);
        for (d, &clean) in digits.iter_mut().zip(clean) {
            *d = clean;
        }
        let lane = 1u16 << cycle;
        if brackets.straddle_any & lane != 0 {
            let active = brackets.active[cycle];
            let c = self.params.bits_per_cell as usize;
            for (row, &straddle) in brackets.straddle.iter().enumerate() {
                if straddle & lane == 0 {
                    continue;
                }
                let i = row * MAX_CYCLES + cycle;
                let code =
                    self.draw_read(active, brackets.current[i], brackets.sigma[i], normals, rng);
                // The draw lies within `±Z_MAX`, so its code lies within
                // the bracket (`quantize_deferred`'s monotonicity): code ≥ lo.
                let shift = row * c;
                if let Some(d) = digits.get_mut(shift / DIGIT_BITS) {
                    *d += u64::from(code - brackets.lo[i]) << (shift % DIGIT_BITS);
                }
            }
        }
        digits[..count]
            .iter()
            .enumerate()
            .map(|(d, &digit)| V::shifted(digit, (d * DIGIT_BITS) as u32))
            .sum()
    }

    /// Asserts that a trap table's offsets cover every row.
    fn check_trap_offsets(&self, trap_offsets: &[u32]) {
        assert!(
            trap_offsets.len() > self.rows.len(),
            "trap_offsets narrower than array"
        );
    }

    /// Brackets one row under every cycle of `cycles`, one cycle per
    /// lane: the per-read expressions of
    /// [`bracket_reads_into`](CrossbarArray::bracket_reads_into). Lanes
    /// past the real cycles compute on `g = 0` and an empty mask, and
    /// are never walked.
    #[inline(always)]
    fn bracket_row<const N: usize>(
        &self,
        cycles: &Cycles<N>,
        g: &[f64; N],
        levels: &[(f64, u128)],
    ) -> RowBracket<N> {
        let mut current = [0.0f64; N];
        for (c, &g) in current.iter_mut().zip(g) {
            *c = self.params.v_read * g;
        }
        for &(delta_i, word) in levels {
            let (low, high) = (word as u64, (word >> 64) as u64);
            let mut trapped = [0u32; N];
            for (k, t) in trapped.iter_mut().enumerate() {
                *t = (cycles.low[k] & low).count_ones();
            }
            if cycles.wide {
                for (k, t) in trapped.iter_mut().enumerate() {
                    *t += (cycles.high[k] & high).count_ones();
                }
            }
            for (c, &t) in current.iter_mut().zip(&trapped) {
                *c -= t as f64 * delta_i;
            }
        }
        let noise = self.read_noise();
        let mut bracket = RowBracket {
            current,
            sigma: [0.0; N],
            lo: [0; N],
            hi: [0; N],
        };
        for k in 0..N {
            let (current, active) = (current[k], cycles.active[k]);
            let sigma = noise.sigma(g[k], current);
            bracket.sigma[k] = sigma;
            bracket.lo[k] = self.adc.quantize_fast(current + sigma * -Z_MAX, active);
            bracket.hi[k] = self.adc.quantize_fast(current + sigma * Z_MAX, active);
        }
        bracket
    }

    /// One straddling read's code: one deferred normal from `normals`,
    /// quantized.
    #[inline]
    fn draw_read<R: Rng + ?Sized>(
        &self,
        active: u32,
        current: f64,
        sigma: f64,
        normals: &mut NormalSource,
        rng: &mut R,
    ) -> u32 {
        obs::counter!(xbar_noise_evaluated).incr();
        quantize_deferred(current, sigma, normals.next_deferred(rng), |i| {
            self.adc.quantize_fast(i, active)
        })
    }

    /// Reads every row for one bit-serial cycle of the *batched*
    /// kernel, using precomputed per-row conductance sums
    /// (`g_totals`, one bit-plane slice of
    /// [`conductance_planes_into`](CrossbarArray::conductance_planes_into))
    /// and the hoisted trap table
    /// ([`trap_level_sparse_into`](CrossbarArray::trap_level_sparse_into)).
    ///
    /// This is the one-cycle call of the engine's two-pass read
    /// ([`bracket_reads_into`](CrossbarArray::bracket_reads_into), then
    /// [`walk_reads`](CrossbarArray::walk_reads)): the same per-row
    /// bracket and draw, one lane wide and a row at a time, which draws
    /// exactly what the two passes draw, since bracketing draws nothing.
    /// Its codes reduce
    /// ([`BitSlicer::reduce`](crate::BitSlicer::reduce)) to the walk's
    /// value. Differences from
    /// [`read_rows_into`](CrossbarArray::read_rows_into), all invisible
    /// when every noise source is disabled and pinned by the engine
    /// goldens otherwise:
    ///
    /// - Gaussian noise comes from the paired [`NormalSource`] (a
    ///   different — equally valid — stream than the single-draw
    ///   sampler; rows take their draws in ascending order);
    /// - quantization divides by precomputed reciprocal
    ///   (`Adc::quantize_fast`).
    ///
    /// Like the scalar reads, a row takes a normal from `normals` only
    /// when its code differs at the two ends of `±`[`Z_MAX`]`·σ`. The
    /// normal is taken as a [`Deferred`] draw
    /// ([`NormalSource::next_deferred`]) and evaluated only when the
    /// code also differs at the ends of the draw's own
    /// [`bound`](Deferred::bound); otherwise no `ln`/`sqrt`/`sin`/`cos`
    /// runs.
    ///
    /// With noise off, every difference collapses: `σ = 0` exactly,
    /// and the current equals the scalar path's bitwise, so outputs
    /// match [`read_rows_into`](CrossbarArray::read_rows_into)
    /// integer-for-integer.
    ///
    /// # Panics
    ///
    /// Panics if `g_totals` or the trap table do not cover every row.
    #[allow(clippy::too_many_arguments)]
    pub fn read_rows_amortized_into<R: Rng + ?Sized>(
        &self,
        mask: &InputMask,
        g_totals: &[f64],
        trap_offsets: &[u32],
        trap_entries: &[(f64, u128)],
        normals: &mut NormalSource,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) {
        let rows = self.rows.len();
        assert!(g_totals.len() >= rows, "g_totals narrower than array");
        self.check_trap_offsets(trap_offsets);
        obs::counter!(xbar_row_reads).add(rows as u64);
        out.clear();
        let cycles = Cycles::<1>::new(std::slice::from_ref(mask));
        for (row, &g) in g_totals[..rows].iter().enumerate() {
            let levels = trap_levels(trap_offsets, trap_entries, row);
            let b = self.bracket_row(&cycles, &[g], levels);
            let code = if b.lo[0] == b.hi[0] {
                b.lo[0]
            } else {
                self.draw_read(cycles.active[0], b.current[0], b.sigma[0], normals, rng)
            };
            out.push(u64::from(code));
        }
    }

    /// Draws fresh RTN occupancy for row `row` under `mask` and returns
    /// the resulting noise-free current (A) with the thermal plus shot
    /// noise sigma around it.
    fn sample_rtn_current<R: Rng + ?Sized>(
        &self,
        row: usize,
        mask: &InputMask,
        rng: &mut R,
    ) -> (f64, f64) {
        let r = &self.rows[row];
        // Deterministic programmed current of the driven cells.
        let mut g_total = 0.0;
        for j in mask.iter_ones() {
            g_total += r.conductance[j as usize];
        }
        let mut current = self.params.v_read * g_total;

        // RTN: per level, draw how many driven cells are trapped.
        let p = self.params.rtn_state_probability;
        for (level, &delta_i) in self.delta_i.iter().enumerate() {
            let n = r.active_count_at_level(level as u32, mask);
            if n == 0 {
                continue;
            }
            let trapped = sample_binomial(rng, n, p);
            current -= trapped as f64 * delta_i;
        }

        (current, self.read_noise().sigma(g_total, current))
    }

    /// The *expected* current of row `row` under `mask` (over RTN and
    /// noise), reflecting the RTN-offset calibration.
    pub fn expected_row_current(&self, row: usize, mask: &InputMask) -> f64 {
        let r = &self.rows[row];
        let mut current = 0.0;
        for j in mask.iter_ones() {
            current += self.params.v_read * r.conductance[j as usize];
        }
        let p = self.params.rtn_state_probability;
        for (level, &delta_i) in self.delta_i.iter().enumerate() {
            let n = r.active_count_at_level(level as u32, mask);
            current -= n as f64 * p * delta_i;
        }
        current
    }
}

/// Most cycles [`CrossbarArray::bracket_reads_into`] brackets at once:
/// the 16 bit-planes of a 16-bit input, one lane each.
const MAX_CYCLES: usize = 16;

/// The masks of up to `N` cycles, one lane each: the low and high
/// 64 columns and the driven-column count. Lanes past the given masks
/// are empty.
struct Cycles<const N: usize> {
    low: [u64; N],
    high: [u64; N],
    active: [u32; N],
    /// Whether any mask drives a column past 64, so the high words of
    /// the trap table count (the same answer for every row and level).
    wide: bool,
}

impl<const N: usize> Cycles<N> {
    /// # Panics
    ///
    /// Panics if `masks` holds more than `N` masks.
    fn new(masks: &[InputMask]) -> Cycles<N> {
        assert!(masks.len() <= N, "{} cycles exceed {N}", masks.len());
        let mut cycles = Cycles {
            low: [0; N],
            high: [0; N],
            active: [0; N],
            wide: false,
        };
        for (k, mask) in masks.iter().enumerate() {
            cycles.low[k] = mask.bits() as u64;
            cycles.high[k] = (mask.bits() >> 64) as u64;
            cycles.active[k] = mask.count_ones();
            cycles.wide |= cycles.high[k] != 0;
        }
        cycles
    }
}

/// One row's bracketed reads, one per cycle lane.
struct RowBracket<const N: usize> {
    current: [f64; N],
    sigma: [f64; N],
    lo: [u32; N],
    hi: [u32; N],
}

/// Bits per digit of [`ReadBrackets`]' clean-value accumulator.
const DIGIT_BITS: usize = 32;

/// Digits below 2²⁵⁶, the widest cycle value.
const MAX_DIGITS: usize = 256 / DIGIT_BITS;

/// The draw-free half of one (stack, vector)'s row reads, filled by
/// [`CrossbarArray::bracket_reads_into`] and walked by
/// [`CrossbarArray::walk_reads`].
///
/// Per read, row-major with one slot per cycle lane
/// (`[row · MAX_CYCLES + cycle]`): the noise-free current, the noise
/// sigma, and the code `lo` at `current − Z_MAX·σ`. Per row, a bitmap
/// of the cycles whose bracket straddles (`lo` differs from the code
/// at `current + Z_MAX·σ`), and the OR of those bitmaps.
///
/// Per cycle, the clean value `Σ_r lo_r · 2^{r·c}` in 32-bit digits,
/// one `u64` per (digit, cycle) at `[⌊r·c/32⌋ · MAX_CYCLES + cycle]`:
/// row `r` adds `lo_r · 2^{r·c mod 32}` to its digit. A code is at most
/// `128 · 255 < 2¹⁵`, so a term is below `2⁴⁷`, and at most 32 rows
/// (1-bit cells) share a digit, so no digit overflows.
///
/// A buffer with capacity for the largest stack is reused without
/// allocating.
#[derive(Debug, Clone, Default)]
pub struct ReadBrackets {
    /// Physical rows bracketed.
    rows: usize,
    /// Driven-column count of each cycle.
    active: Vec<u32>,
    current: Vec<f64>,
    sigma: Vec<f64>,
    lo: Vec<u32>,
    /// Per row, bit `t` set where cycle `t`'s bracket straddles.
    straddle: Vec<u16>,
    /// The OR of every row's `straddle`.
    straddle_any: u16,
    /// Per cycle, the clean value in 32-bit digits.
    digits: Vec<u64>,
}

impl ReadBrackets {
    /// An empty buffer with room for every cycle of `rows` rows of
    /// cells of up to 8 bits.
    pub fn with_row_capacity(rows: usize) -> ReadBrackets {
        let reads = rows * MAX_CYCLES;
        ReadBrackets {
            rows: 0,
            active: Vec::with_capacity(MAX_CYCLES),
            current: Vec::with_capacity(reads),
            sigma: Vec::with_capacity(reads),
            lo: Vec::with_capacity(reads),
            straddle: Vec::with_capacity(rows),
            straddle_any: 0,
            digits: Vec::with_capacity(digit_count(rows, 8) * MAX_CYCLES),
        }
    }

    /// Sizes the buffer for `rows` rows of `cell_bits`-bit cells under
    /// `masks`, keeping capacity, and zeroes the digits; every other
    /// slot is then overwritten by the caller.
    fn reset(&mut self, rows: usize, cell_bits: usize, masks: &[InputMask]) {
        let reads = rows * MAX_CYCLES;
        self.rows = rows;
        self.active.clear();
        self.active.extend(masks.iter().map(InputMask::count_ones));
        self.current.resize(reads, 0.0);
        self.sigma.resize(reads, 0.0);
        self.lo.resize(reads, 0);
        self.straddle.resize(rows, 0);
        self.digits.clear();
        self.digits
            .resize(digit_count(rows, cell_bits) * MAX_CYCLES, 0);
    }
}

/// Digits spanned by the row weights of `rows` rows of `cell_bits`-bit
/// cells: row `r` sits in digit `⌊r·c/32⌋`.
fn digit_count(rows: usize, cell_bits: usize) -> usize {
    match rows {
        0 => 0,
        _ => (rows - 1) * cell_bits / DIGIT_BITS + 1,
    }
}

/// A cycle value the walk sums: a `u128` where the caller bounds it,
/// else a [`U256`], whose shifts truncate as
/// [`BitSlicer::reduce`](crate::BitSlicer::reduce)'s do.
trait CycleValue: std::iter::Sum {
    /// `x · 2^shift`.
    fn shifted(x: u64, shift: u32) -> Self;
}

impl CycleValue for u128 {
    #[inline]
    fn shifted(x: u64, shift: u32) -> u128 {
        u128::from(x) << shift
    }
}

impl CycleValue for U256 {
    #[inline]
    fn shifted(x: u64, shift: u32) -> U256 {
        U256::from(x) << shift
    }
}

/// Row `row`'s entries of a hoisted trap table.
#[inline]
fn trap_levels<'t>(offsets: &[u32], entries: &'t [(f64, u128)], row: usize) -> &'t [(f64, u128)] {
    &entries[offsets[row] as usize..offsets[row + 1] as usize]
}

/// The read-noise model: thermal noise of the driven resistors plus
/// shot noise of the row current (§II-C), independent Gaussians whose
/// variances add.
#[derive(Debug, Clone, Copy)]
struct ReadNoise {
    /// `4·k_B·T·BW`: thermal variance per siemens of driven conductance.
    thermal: f64,
    /// `2·q·BW`: shot variance per ampere of row current.
    shot: f64,
}

impl ReadNoise {
    /// The noise sigma of a read with driven conductance `g_total` and
    /// noise-free current `current`:
    /// `sqrt(thermal·g_total + shot·|current|)`.
    #[inline]
    fn sigma(self, g_total: f64, current: f64) -> f64 {
        (self.thermal * g_total + self.shot * current.abs()).sqrt()
    }
}

/// Quantizes `current + sigma·z` for the deferred standard normal `z`,
/// evaluating `z` only when the code depends on it.
///
/// `quantize` must be one of the ADC quantizers. Every step from `z` to
/// the code is monotone non-decreasing in `z` under IEEE
/// round-to-nearest: `fl(sigma·z)` with `sigma ≥ 0`, the add, the
/// quantizer's offset subtract, its divide or reciprocal multiply by a
/// positive LSB, `round`, `clamp` and the saturating `as u32`. So when
/// the two ends of the bracket `z = ∓bound` quantize to the same code,
/// every `|z| ≤ bound` — the evaluated draw included — quantizes to it
/// too, bit for bit, and the `ln`/`sqrt`/`sin`/`cos` of the draw are
/// never needed. The bracket uses the same float expression as the
/// eager read.
#[inline]
fn quantize_deferred(current: f64, sigma: f64, z: Deferred, quantize: impl Fn(f64) -> u32) -> u32 {
    let r = z.bound();
    let lo = quantize(current + sigma * -r);
    if lo == quantize(current + sigma * r) {
        return lo;
    }
    quantize(current + sigma * z.value())
}

/// Quantizes `current + sigma·z` for a standard normal `z` that is
/// drawn only when the code depends on it.
///
/// Every normal the crate draws lies within `±`[`Z_MAX`], so when both
/// ends of that worst-case bracket quantize to the same code, so does
/// every draw `draw` could return (the monotonicity argument of
/// [`quantize_deferred`]), and the read takes nothing from the stream.
/// Otherwise it takes one draw and brackets it again at the draw's own
/// bound. Either way the code has exactly the distribution of
/// `quantize(current + sigma·z)` with `z` always drawn; only which
/// stream words later reads see changes.
#[inline]
fn quantize_on_demand(
    current: f64,
    sigma: f64,
    draw: impl FnOnce() -> Deferred,
    quantize: impl Fn(f64) -> u32,
) -> u32 {
    let lo = quantize(current + sigma * -Z_MAX);
    if lo == quantize(current + sigma * Z_MAX) {
        return lo;
    }
    obs::counter!(xbar_noise_evaluated).incr();
    quantize_deferred(current, sigma, draw(), quantize)
}

/// The integer trap threshold `⌈p · 2⁵³⌉` of trap probability `p`: a
/// cell whose 53-bit uniform is below it is trapped. `p · 2⁵³` is
/// exact, so the cell is trapped with probability exactly
/// `threshold · 2⁻⁵³`; `p ≤ 0` (or NaN) gives 0 and `p ≥ 1` gives
/// `2⁵³`, which every uniform is below.
fn trap_threshold(p: f64) -> u64 {
    if p > 0.0 {
        // The cast saturates rather than wraps for p ≥ 2¹¹.
        ((p * (1u64 << 53) as f64).ceil() as u64).min(1 << 53)
    } else {
        0
    }
}

/// The trap bits of one row of `width` cells: bit `j` is set iff cell
/// `j`'s 53-bit uniform `K_j` is below `threshold`.
///
/// The `K_j` are compared against `T = threshold` bit-sliced, most
/// significant bit first. Round `b` draws one word whose bit `j` is bit
/// `52 − b` of `K_j`; among the cells whose `K` prefix still equals
/// `T`'s, a `0` where `T` has a `1` decides "trapped" and a `1` where
/// `T` has a `0` decides "free". Sampling stops when no cell is
/// undecided or `T` has no set bit left below the compared prefix (an
/// undecided `K` is then `≥ T`), which is exactly when every cell's
/// verdict is the same for all values of its undrawn bits — so each
/// cell is an independent Bernoulli(`T · 2⁻⁵³`), and a row costs at
/// most 53 rounds and none at `T = 0` or `T = 2⁵³`. A round is one
/// `u64` for rows up to 64 cells wide and two (low half first) beyond.
fn sample_row_traps<R: Rng + ?Sized>(width: u32, threshold: u64, rng: &mut R) -> u128 {
    let cells = u128::MAX.checked_shr(u128::BITS - width).unwrap_or(0);
    if threshold >= 1 << 53 {
        return cells;
    }
    let (mut undecided, mut trapped) = (cells, 0u128);
    let mut rest = threshold;
    let mut bit = 1u64 << 52;
    while undecided != 0 && rest != 0 {
        let word = if width <= 64 {
            u128::from(rng.next_u64())
        } else {
            u128::from(rng.next_u64()) | u128::from(rng.next_u64()) << 64
        };
        if rest & bit != 0 {
            trapped |= undecided & !word;
            undecided &= word;
            rest ^= bit;
        } else {
            undecided &= !word;
        }
        bit >>= 1;
    }
    trapped
}

/// Rows whose conductance sums [`CrossbarArray::read_rows_into`]
/// accumulates together.
const READ_BLOCK: usize = 8;

/// The driven conductance sums `Σ_{j driven} conductance[j]` of up to
/// [`READ_BLOCK`] rows, in one pass over the driven columns.
///
/// Each row keeps its own ascending-column add chain, so every sum is
/// bit-identical to a row-at-a-time scan; interleaving the rows only
/// lets their independent chains overlap instead of waiting on one
/// add latency per column. Entries past `rows.len()` stay `0.0`.
fn driven_conductance_sums(rows: &[PhysicalRow], mask: &InputMask) -> [f64; READ_BLOCK] {
    let mut g = [0.0f64; READ_BLOCK];
    for j in mask.iter_ones() {
        for (g, r) in g.iter_mut().zip(rows) {
            *g += r.conductance[j as usize];
        }
    }
    g
}

/// Rows whose bit-plane sums [`CrossbarArray::conductance_planes_into`]
/// accumulates together.
const PLANE_ROWS: usize = 4;

/// The 16 bit-plane conductance sums of `R` rows of equal width, each
/// accumulated in its own ascending column order over `driven`, the
/// ascending columns below the width whose input word is nonzero.
/// `g · bit` is computed as `f64::from_bits(g.to_bits() &
/// bit.wrapping_neg())` — exactly `g` when the bit is set and exactly
/// `+0.0` otherwise, so the result is bit-identical to the multiply
/// form (and to the scalar path's skip-the-zeros scan, since adding
/// `+0.0` to a non-negative partial sum is an identity); a column whose
/// word is zero would add `+0.0` to every plane, so it is skipped.
fn planes16_rows<const R: usize>(
    rows: [&[f64]; R],
    values: &[u64],
    driven: &[u8],
) -> [[f64; 16]; R] {
    let mut acc = [[0.0f64; 16]; R];
    for &j in driven {
        let j = usize::from(j);
        let v = values[j];
        let mut bits = [0u64; 16];
        for (t, b) in bits.iter_mut().enumerate() {
            *b = ((v >> t) & 1).wrapping_neg();
        }
        for (acc, row) in acc.iter_mut().zip(&rows) {
            let g = row[j].to_bits();
            for (a, &b) in acc.iter_mut().zip(&bits) {
                *a += f64::from_bits(g & b);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    fn clean_params() -> DeviceParams {
        DeviceParams {
            fault_rate: 0.0,
            programming_tolerance: 0.0,
            ..DeviceParams::default()
        }
    }

    #[test]
    fn ideal_output_sums_driven_levels() {
        let mut rng = rng();
        let array = CrossbarArray::program(&[vec![3, 1, 0, 2]], &clean_params(), &mut rng);
        assert_eq!(array.ideal_row_output(0, &InputMask::all_ones(4)), 6);
        let mut mask = InputMask::zeros(4);
        mask.set(0, true);
        mask.set(3, true);
        assert_eq!(array.ideal_row_output(0, &mask), 5);
        assert_eq!(array.ideal_row_output(0, &InputMask::zeros(4)), 0);
    }

    #[test]
    fn noiseless_read_matches_ideal() {
        // With every noise source disabled the readout is exact.
        let params = DeviceParams {
            fault_rate: 0.0,
            programming_tolerance: 0.0,
            rtn_state_probability: 0.0,
            bandwidth: 0.0, // kills thermal and shot noise
            ..DeviceParams::default()
        };
        let mut rng = rng();
        let levels = vec![vec![3, 2, 1, 0, 3, 3, 0, 1]];
        let array = CrossbarArray::program(&levels, &params, &mut rng);
        let mask = InputMask::all_ones(8);
        for _ in 0..10 {
            assert_eq!(
                array.read_row(0, &mask, &mut rng),
                array.ideal_row_output(0, &mask)
            );
        }
    }

    #[test]
    fn reads_stay_near_ideal_with_noise() {
        let mut rng = rng();
        let levels = vec![(0..128).map(|i| i % 4).collect::<Vec<u32>>()];
        let array = CrossbarArray::program(&levels, &clean_params(), &mut rng);
        let mask = InputMask::all_ones(128);
        let ideal = array.ideal_row_output(0, &mask);
        for _ in 0..50 {
            let out = array.read_row(0, &mask, &mut rng);
            assert!((out - ideal).abs() <= 8, "out {out} ideal {ideal}");
        }
    }

    #[test]
    fn error_rate_roughly_matches_paper_figure_7() {
        // 128 cells, 2 bits per cell, equal state occupancy: the paper's
        // transient analysis reports ~14.5 % row error rate. Our Monte
        // Carlo should land in the same regime (a few percent to ~25 %).
        let mut rng = rng();
        let levels = vec![(0..128).map(|i| i % 4).collect::<Vec<u32>>()];
        let array = CrossbarArray::program(&levels, &clean_params(), &mut rng);
        let mask = InputMask::all_ones(128);
        let ideal = array.ideal_row_output(0, &mask);
        let trials = 4000;
        let errors = (0..trials)
            .filter(|_| array.read_row(0, &mask, &mut rng) != ideal)
            .count();
        let rate = errors as f64 / trials as f64;
        assert!(
            (0.02..0.40).contains(&rate),
            "row error rate {rate} outside plausible band"
        );
    }

    #[test]
    fn rtn_offset_centers_expected_current() {
        let mut rng = rng();
        let levels = vec![vec![3u32; 64]];
        let array = CrossbarArray::program(&levels, &clean_params(), &mut rng);
        let mask = InputMask::all_ones(64);
        let expected = array.expected_row_current(0, &mask);
        let ideal = array
            .adc()
            .ideal_current(array.ideal_row_output(0, &mask) as u32, &mask);
        // The offset keeps the mean within a fraction of an LSB of ideal.
        assert!(
            (expected - ideal).abs() < 0.5 * array.adc().lsb(),
            "expected {expected} vs ideal {ideal}"
        );
    }

    #[test]
    fn stuck_cells_change_stored_level() {
        let params = DeviceParams {
            fault_rate: 1.0, // every cell stuck
            ..DeviceParams::default()
        };
        let mut rng = rng();
        let array = CrossbarArray::program(&[vec![1, 2, 3, 0]], &params, &mut rng);
        let row = &array.rows()[0];
        assert_eq!(row.stuck_columns().len(), 4);
        assert!(row.has_stuck());
        // Targets preserved for reporting.
        assert_eq!(row.target_level(2), 3);
    }

    #[test]
    fn fault_rate_statistics() {
        let mut rng = rng();
        let levels: Vec<Vec<u32>> = (0..100).map(|_| vec![1u32; 128]).collect();
        let array = CrossbarArray::program(&levels, &DeviceParams::default(), &mut rng);
        let stuck: usize = array.rows().iter().map(|r| r.stuck_columns().len()).sum();
        // 12800 cells × 0.1 % ≈ 13 expected.
        assert!((2..=40).contains(&stuck), "stuck count {stuck}");
    }

    #[test]
    fn frozen_rtn_is_persistent() {
        // With zero thermal/shot noise, repeated frozen reads of the
        // same snapshot give identical outputs, while fresh snapshots
        // vary.
        let params = DeviceParams {
            fault_rate: 0.0,
            programming_tolerance: 0.0,
            bandwidth: 0.0,
            ..DeviceParams::default()
        };
        let mut rng = rng();
        let levels = vec![(0..128).map(|i| i % 4).collect::<Vec<u32>>()];
        let array = CrossbarArray::program(&levels, &params, &mut rng);
        let mask = InputMask::all_ones(128);
        let snap = array.sample_rtn(&mut rng);
        let first = array.read_row_frozen(0, &mask, &snap, &mut rng);
        for _ in 0..5 {
            assert_eq!(array.read_row_frozen(0, &mask, &snap, &mut rng), first);
        }
        // Across snapshots, outputs differ at least sometimes.
        let varied = (0..20).any(|_| {
            let s = array.sample_rtn(&mut rng);
            array.read_row_frozen(0, &mask, &s, &mut rng) != first
        });
        assert!(varied);
    }

    /// Replays a fixed list of words: every `next_u64` returns the next
    /// entry, cycling.
    struct Scripted {
        words: Vec<u64>,
        next: usize,
    }

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.next % self.words.len()];
            self.next += 1;
            w
        }
    }

    /// `⌈p · 2⁵³⌉`, clamped to `[0, 2⁵³]`, computed independently of
    /// [`trap_threshold`].
    fn reference_threshold(p: f64) -> u64 {
        if p <= 0.0 {
            0
        } else {
            (p * 2f64.powi(53)).ceil().min(2f64.powi(53)) as u64
        }
    }

    /// The per-cell reference for the bit-sliced sampler. Per row it
    /// draws round words one at a time (one `u64` per round up to 64
    /// cells, two beyond, low half first), appends each word's bit `j`
    /// to cell `j`'s `K`, and stops at the first round after which every
    /// cell's verdict `K < T` is the same whether its undrawn bits are
    /// all zeros or all ones. Returns each row's trap bits and rounds.
    fn reference_traps(
        array: &CrossbarArray,
        threshold: u64,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<(u128, u32)> {
        array
            .rows()
            .iter()
            .map(|row| {
                let width = row.width() as usize;
                let mut prefixes = vec![0u64; width];
                let mut rounds = 0u32;
                loop {
                    let undrawn = 53 - rounds;
                    let low = |k: u64| k << undrawn;
                    let high = |k: u64| (k << undrawn) | ((1 << undrawn) - 1);
                    if prefixes
                        .iter()
                        .all(|&k| (low(k) < threshold) == (high(k) < threshold))
                    {
                        let traps = prefixes
                            .iter()
                            .enumerate()
                            .filter(|&(_, &k)| low(k) < threshold)
                            .fold(0u128, |bits, (j, _)| bits | 1 << j);
                        return (traps, rounds);
                    }
                    let mut word = u128::from(rng.next_u64());
                    if width > 64 {
                        word |= u128::from(rng.next_u64()) << 64;
                    }
                    for (j, k) in prefixes.iter_mut().enumerate() {
                        *k = *k << 1 | (word >> j & 1) as u64;
                    }
                    rounds += 1;
                }
            })
            .collect()
    }

    #[test]
    fn sample_rtn_matches_uniform_comparison() {
        let probabilities = [
            2f64.powi(-60),
            1e-9,
            0.1,
            0.25,
            0.4,
            0.5,
            1.0 - 2f64.powi(-53),
            1.0,
            0.0,
        ];
        let scripts: [Vec<u64>; 3] = [
            // All-zero K, all-one K, and a mix of both with ordinary
            // words.
            vec![0],
            vec![u64::MAX],
            vec![
                0x9E37_79B9_7F4A_7C15,
                0,
                u64::MAX,
                0x5555_5555_5555_5555,
                1 << 63,
                1,
            ],
        ];
        for p in probabilities {
            let threshold = reference_threshold(p);
            assert_eq!(trap_threshold(p), threshold, "p {p:e}");
            let params = DeviceParams {
                rtn_state_probability: p,
                ..DeviceParams::default()
            };
            for width in [1usize, 7, 64, 65, 128] {
                let levels: Vec<Vec<u32>> = (0..5)
                    .map(|r| (0..width).map(|j| ((r + j) % 4) as u32).collect())
                    .collect();
                let array = CrossbarArray::program(&levels, &params, &mut rng());
                let words_per_round = if width > 64 { 2 } else { 1 };
                let mut snapshot = RtnSnapshot::with_row_capacity(5);
                let mut check = |kernel: &mut dyn rand::RngCore,
                                 reference: &mut dyn rand::RngCore,
                                 stream: &str|
                 -> Vec<u32> {
                    array.sample_rtn_into(kernel, &mut snapshot);
                    let (traps, rounds): (Vec<u128>, Vec<u32>) =
                        reference_traps(&array, threshold, reference)
                            .into_iter()
                            .unzip();
                    assert_eq!(snapshot.traps, traps, "p {p:e}, width {width}, {stream}");
                    assert!(rounds.iter().all(|&r| r <= 53), "p {p:e}, width {width}");
                    if threshold == 0 || threshold == 1 << 53 {
                        assert!(rounds.iter().all(|&r| r == 0), "p {p:e}: {rounds:?}");
                    }
                    if threshold == 1 << 51 {
                        assert!(rounds.iter().all(|&r| r <= 2), "p {p:e}: {rounds:?}");
                    }
                    rounds
                };

                let mut kernel = ChaCha8Rng::seed_from_u64(width as u64);
                let mut reference = kernel.clone();
                let rounds = check(&mut kernel, &mut reference, "ChaCha8");
                assert_eq!(kernel, reference, "p {p:e}, width {width}: draw count");
                if threshold == 1 << 51 && width >= 64 {
                    assert_eq!(rounds, [2; 5], "width {width}");
                }

                for (i, words) in scripts.iter().enumerate() {
                    let mut kernel = Scripted {
                        words: words.clone(),
                        next: 0,
                    };
                    let mut reference = Scripted {
                        words: words.clone(),
                        next: 0,
                    };
                    let rounds = check(&mut kernel, &mut reference, &format!("script {i}"));
                    assert_eq!(
                        kernel.next, reference.next,
                        "p {p:e}, width {width}, script {i}"
                    );
                    let drawn: u32 = rounds.iter().sum::<u32>() * words_per_round;
                    assert_eq!(kernel.next, drawn as usize, "p {p:e}, width {width}");
                    if i == 0 && threshold != 0 && threshold != 1 << 53 {
                        // All-zero K follows T's prefix down to T's
                        // highest set bit, where every cell is trapped:
                        // 53 rounds at T = 1, the most a row can take.
                        let want = 53 - (63 - threshold.leading_zeros());
                        assert_eq!(rounds, [want; 5], "p {p:e}, width {width}");
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_read_matches_row_reads_under_full_noise() {
        // Default parameters: stuck cells, programming error, RTN and
        // thermal/shot noise all on. Stacks of 1, 8, 13 and 70 rows
        // cover a lone partial block, one full block, a full block plus
        // a remainder, and many blocks.
        let params = DeviceParams::default();
        let mut rng = rng();
        for stack_rows in [1usize, 8, 13, 70] {
            let width = 100;
            let levels: Vec<Vec<u32>> = (0..stack_rows)
                .map(|_| (0..width).map(|_| rng.gen_range(0..4)).collect())
                .collect();
            let array = CrossbarArray::program(&levels, &params, &mut rng);
            let mut masks = vec![InputMask::all_ones(width), InputMask::zeros(width)];
            for _ in 0..4 {
                let mut mask = InputMask::zeros(width);
                for j in 0..width {
                    mask.set(j, rng.gen::<bool>());
                }
                masks.push(mask);
            }
            let snapshot = array.sample_rtn(&mut rng);
            let mut out = Vec::new();
            for mask in &masks {
                // The ADC can hide a one-ulp change in a sum, so pin the
                // interleaved sums themselves against a row-at-a-time
                // ascending scan, bit for bit.
                for rows in array.rows.chunks(READ_BLOCK) {
                    let sums = driven_conductance_sums(rows, mask);
                    for (r, g) in rows.iter().zip(sums) {
                        let mut scan = 0.0f64;
                        for j in mask.iter_ones() {
                            scan += r.conductance[j as usize];
                        }
                        assert_eq!(g.to_bits(), scan.to_bits(), "{stack_rows} rows");
                    }
                }
                let mut bulk_rng = ChaCha8Rng::seed_from_u64(stack_rows as u64);
                let mut row_rng = bulk_rng.clone();
                array.read_rows_into(mask, &snapshot, &mut bulk_rng, &mut out);
                let rows: Vec<u64> = (0..stack_rows)
                    .map(|row| array.read_row_frozen(row, mask, &snapshot, &mut row_rng) as u64)
                    .collect();
                assert_eq!(out, rows, "{stack_rows} rows");
                assert_eq!(bulk_rng, row_rng, "{stack_rows} rows: draw count");
            }
        }
    }

    /// Currents on, and a few ulps either side of, the ±0.5 LSB
    /// boundaries around the bottom, middle and top codes of a read with
    /// `active` driven cells, plus currents clamped below 0 and above the
    /// top code.
    fn boundary_currents(adc: &Adc, active: u32, max_level: u32) -> Vec<f64> {
        let lsb = adc.lsb();
        let mask = InputMask::all_ones(active);
        let max = active * max_level;
        let mut currents = vec![
            adc.ideal_current(0, &mask) - 5.0 * lsb,
            adc.ideal_current(max, &mask) + 5.0 * lsb,
        ];
        for code in [0, 1, max / 2, max] {
            for half_lsb in [-0.5, 0.0, 0.5] {
                let c = adc.ideal_current(code, &mask) + half_lsb * lsb;
                currents.extend([c.next_down().next_down(), c.next_down(), c, c.next_up()]);
            }
        }
        currents
    }

    /// Noise scales from none through a millionth of an LSB to two LSBs.
    fn sigmas(lsb: f64) -> [f64; 5] {
        [0.0, 1e-6 * lsb, 0.05 * lsb, 0.3 * lsb, 2.0 * lsb]
    }

    /// The deferred draw with `u1 = 2^e` and the given `u2` word.
    fn draw_at_exponent(e: i32, u2_word: u64) -> Deferred {
        let mut scripted = Scripted {
            words: vec![1 << (64 + e), u2_word],
            next: 0,
        };
        Deferred::sample(&mut scripted)
    }

    #[test]
    fn bracketed_quantize_equals_eager_quantize() {
        let params = DeviceParams::default();
        let adc = Adc::new(&params);
        let mut rng = rng();
        // Ordinary draws, plus u1 = 2^-53 (the widest bound) at the
        // angles where the normal is ±8.57 or 0.
        let mut draws: Vec<Deferred> = (0..64).map(|_| Deferred::sample(&mut rng)).collect();
        for u2_word in [0u64, 1 << 62, 1 << 63, 3 << 62, 0x9E37_79B9_7F4A_7C15] {
            draws.push(draw_at_exponent(-53, u2_word));
        }
        let (mut elided, mut evaluated) = (0, 0);
        for active in [0u32, 1, 7, 64, 128] {
            let exact = |i: f64| adc.quantize_active(i, active);
            let fast = |i: f64| adc.quantize_fast(i, active);
            let quantizers: [(&str, &dyn Fn(f64) -> u32); 2] =
                [("quantize", &exact), ("quantize_fast", &fast)];
            for current in boundary_currents(&adc, active, params.max_level()) {
                for sigma in sigmas(adc.lsb()) {
                    for &z in &draws {
                        let r = z.bound();
                        let eager = current + sigma * z.value();
                        for (name, q) in quantizers {
                            assert_eq!(
                                quantize_deferred(current, sigma, z, q),
                                q(eager),
                                "{name}: active {active} current {current:e} sigma {sigma:e} z {}",
                                z.value()
                            );
                            if q(current + sigma * -r) == q(current + sigma * r) {
                                elided += 1;
                            } else {
                                evaluated += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            elided > 0 && evaluated > 0,
            "elided {elided}, evaluated {evaluated}"
        );
    }

    #[test]
    fn z_max_bracket_agreement_fixes_the_code() {
        let params = DeviceParams::default();
        let adc = Adc::new(&params);
        // ±Z_MAX, 0, and ± the bound of every u1 exponent the sampler
        // can produce.
        let mut zs = vec![-Z_MAX, 0.0, Z_MAX];
        for e in -53..=-1 {
            let bound = draw_at_exponent(e, 0).bound();
            assert!(bound <= Z_MAX, "e {e}");
            zs.extend([-bound, bound]);
        }
        let (mut skipped, mut drawn) = (0, 0);
        for active in [0u32, 1, 7, 64, 128] {
            let exact = |i: f64| adc.quantize_active(i, active);
            let fast = |i: f64| adc.quantize_fast(i, active);
            let quantizers: [(&str, &dyn Fn(f64) -> u32); 2] =
                [("quantize", &exact), ("quantize_fast", &fast)];
            for current in boundary_currents(&adc, active, params.max_level()) {
                for sigma in sigmas(adc.lsb()) {
                    for (name, q) in quantizers {
                        let lo = q(current + sigma * -Z_MAX);
                        if lo != q(current + sigma * Z_MAX) {
                            drawn += 1;
                            continue;
                        }
                        skipped += 1;
                        for &z in &zs {
                            assert_eq!(
                                q(current + sigma * z),
                                lo,
                                "{name}: active {active} current {current:e} sigma {sigma:e} z {z}"
                            );
                        }
                        // An agreeing bracket takes nothing from the stream.
                        let code = quantize_on_demand(current, sigma, || panic!("drew"), q);
                        assert_eq!(code, lo, "{name}");
                    }
                }
            }
        }
        assert!(skipped > 0 && drawn > 0, "skipped {skipped}, drawn {drawn}");
    }

    /// The reference draw decision: `true` always draws; `false` draws
    /// exactly when the `±Z_MAX` bracket straddles a code boundary.
    fn eager_quantize(
        current: f64,
        sigma: f64,
        always_draw: bool,
        quantize: impl Fn(f64) -> u32,
        draw: impl FnOnce() -> f64,
    ) -> u64 {
        let lo = quantize(current + sigma * -Z_MAX);
        if !always_draw && lo == quantize(current + sigma * Z_MAX) {
            return u64::from(lo);
        }
        u64::from(quantize(current + sigma * draw()))
    }

    /// The eager frozen read: every drawn normal evaluated, then
    /// quantized.
    fn eager_read_rows<R: Rng + ?Sized>(
        array: &CrossbarArray,
        mask: &InputMask,
        snapshot: &RtnSnapshot,
        always_draw: bool,
        rng: &mut R,
    ) -> Vec<u64> {
        let thermal_factor =
            4.0 * crate::device::K_B * array.params.temperature * array.params.bandwidth;
        let shot_factor = 2.0 * crate::device::Q_E * array.params.bandwidth;
        (0..array.row_count())
            .map(|row| {
                let r = &array.rows[row];
                let mut g_total = 0.0;
                for j in mask.iter_ones() {
                    g_total += r.conductance[j as usize];
                }
                let mut current = array.params.v_read * g_total;
                for (level, &delta_i) in array.delta_i.iter().enumerate() {
                    let trapped =
                        (r.level_masks[level] & snapshot.traps[row] & mask.bits()).count_ones();
                    current -= trapped as f64 * delta_i;
                }
                let sigma = (thermal_factor * g_total + shot_factor * current.abs()).sqrt();
                eager_quantize(
                    current,
                    sigma,
                    always_draw,
                    |i| array.adc.quantize(i, mask),
                    || crate::stats::sample_standard_normal(rng),
                )
            })
            .collect()
    }

    /// The eager batched read, drawing exactly when the worst-case
    /// bracket straddles.
    fn eager_read_rows_amortized<R: Rng + ?Sized>(
        array: &CrossbarArray,
        mask: &InputMask,
        g_totals: &[f64],
        offsets: &[u32],
        entries: &[(f64, u128)],
        normals: &mut NormalSource,
        rng: &mut R,
    ) -> Vec<u64> {
        let active = mask.count_ones();
        let thermal_factor =
            4.0 * crate::device::K_B * array.params.temperature * array.params.bandwidth;
        let shot_factor = 2.0 * crate::device::Q_E * array.params.bandwidth;
        (0..array.row_count())
            .map(|row| {
                let g = g_totals[row];
                let mut current = array.params.v_read * g;
                for &(delta_i, m) in &entries[offsets[row] as usize..offsets[row + 1] as usize] {
                    current -= (m & mask.bits()).count_ones() as f64 * delta_i;
                }
                let sigma = (thermal_factor * g + shot_factor * current.abs()).sqrt();
                eager_quantize(
                    current,
                    sigma,
                    false,
                    |i| array.adc.quantize_fast(i, active),
                    || normals.next(&mut *rng),
                )
            })
            .collect()
    }

    #[test]
    fn deferred_kernels_match_eager_reads() {
        // Full noise, with the thermal noise turned up so straddling
        // reads are common, on both a seeded and a scripted stream.
        // The script starts with a rejected zero uniform and puts
        // u1 = 2^-53 (bound 8.57) on every other pair, so the
        // evaluated path runs for most drawing rows.
        let params = DeviceParams {
            temperature: 300.0 * 40.0,
            ..DeviceParams::default()
        };
        let mut rng = rng();
        let width = 96;
        let levels: Vec<Vec<u32>> = (0..21)
            .map(|_| (0..width).map(|_| rng.gen_range(0..4)).collect())
            .collect();
        let array = CrossbarArray::program(&levels, &params, &mut rng);
        let values: Vec<u64> = (0..width).map(|_| rng.gen_range(0..65536)).collect();
        let snapshot = array.sample_rtn(&mut rng);
        let mut planes = Vec::new();
        array.conductance_planes_into(&values, 16, &mut planes);
        let (mut offsets, mut entries) = (Vec::new(), Vec::new());
        array.trap_level_sparse_into(&snapshot, &mut offsets, &mut entries);
        let script = vec![
            0,
            1 << 11,
            1 << 62,
            0x9E37_79B9_7F4A_7C15,
            1 << 11,
            0x3C6E_F372_FE94_F82A,
        ];
        let streams: [Box<dyn Fn() -> Box<dyn rand::RngCore>>; 2] = [
            Box::new(|| Box::new(ChaCha8Rng::seed_from_u64(99))),
            Box::new(move || {
                Box::new(Scripted {
                    words: script.clone(),
                    next: 0,
                })
            }),
        ];
        let mut out = Vec::new();
        for stream in &streams {
            let (mut kernel_box, mut eager_box) = (stream(), stream());
            let (kernel_rng, eager_rng) = (&mut *kernel_box, &mut *eager_box);
            let (mut kernel_normals, mut eager_normals) =
                (NormalSource::new(), NormalSource::new());
            for t in 0..16u32 {
                let mask = InputMask::from_bit_of(&values, t);
                array.read_rows_into(&mask, &snapshot, kernel_rng, &mut out);
                assert_eq!(
                    out,
                    eager_read_rows(&array, &mask, &snapshot, false, eager_rng),
                    "bit {t}"
                );
                let g = &planes[t as usize * 21..(t as usize + 1) * 21];
                array.read_rows_amortized_into(
                    &mask,
                    g,
                    &offsets,
                    &entries,
                    &mut kernel_normals,
                    kernel_rng,
                    &mut out,
                );
                let want = eager_read_rows_amortized(
                    &array,
                    &mask,
                    g,
                    &offsets,
                    &entries,
                    &mut eager_normals,
                    eager_rng,
                );
                assert_eq!(out, want, "bit {t}");
                let row = t as usize % 21;
                let (current, sigma) = array.sample_rtn_current(row, &mask, eager_rng);
                let want = eager_quantize(
                    current,
                    sigma,
                    false,
                    |i| array.adc.quantize(i, &mask),
                    || crate::stats::sample_standard_normal(eager_rng),
                );
                assert_eq!(
                    array.read_row(row, &mask, kernel_rng) as u64,
                    want,
                    "bit {t}"
                );
                assert_eq!(
                    kernel_rng.next_u64(),
                    eager_rng.next_u64(),
                    "bit {t}: draw count"
                );
            }
        }
    }

    /// The row error rate of Fig 7's operating point (128 driven 2-bit
    /// cells, equal state occupancy) over frozen reads, one fresh RTN
    /// snapshot per read, must not tell the draw-on-demand kernel from
    /// an always-draw reference that also samples its traps one uniform
    /// per cell.
    #[test]
    fn on_demand_reads_keep_the_figure_7_error_rate() {
        let levels = vec![(0..128).map(|i| i % 4).collect::<Vec<u32>>()];
        let array = CrossbarArray::program(&levels, &clean_params(), &mut rng());
        let mask = InputMask::all_ones(128);
        let ideal = array.ideal_row_output(0, &mask) as u64;
        let p = array.params.rtn_state_probability;
        let reads = 20_000;
        let (mut kernel_rng, mut reference_rng) =
            (ChaCha8Rng::seed_from_u64(7), ChaCha8Rng::seed_from_u64(8));
        let mut snapshot = RtnSnapshot::default();
        let (mut kernel_errors, mut reference_errors) = (0u32, 0u32);
        for _ in 0..reads {
            array.sample_rtn_into(&mut kernel_rng, &mut snapshot);
            let code = array.read_row_frozen(0, &mask, &snapshot, &mut kernel_rng) as u64;
            kernel_errors += u32::from(code != ideal);

            let traps = (0..128).fold(0u128, |bits, j| {
                bits | u128::from(reference_rng.gen::<f64>() < p) << j
            });
            let reference = RtnSnapshot { traps: vec![traps] };
            let code = eager_read_rows(&array, &mask, &reference, true, &mut reference_rng)[0];
            reference_errors += u32::from(code != ideal);
        }
        assert_figure_7_rates_agree(
            "on-demand",
            kernel_errors,
            "always-draw",
            reference_errors,
            reads,
        );
    }

    /// Two row error counts over `reads` reads each must agree within
    /// 4σ of their pooled binomial spread, with the reference count in
    /// Fig 7's regime.
    fn assert_figure_7_rates_agree(
        kernel: &str,
        kernel_errors: u32,
        reference: &str,
        reference_errors: u32,
        reads: u32,
    ) {
        let (a, b) = (
            f64::from(kernel_errors) / f64::from(reads),
            f64::from(reference_errors) / f64::from(reads),
        );
        let pooled = (a + b) / 2.0;
        let sigma = (2.0 * pooled * (1.0 - pooled) / f64::from(reads)).sqrt();
        assert!(
            (0.05..0.40).contains(&b),
            "{reference} error rate {b} is not Fig 7's regime"
        );
        assert!(
            (a - b).abs() <= 4.0 * sigma,
            "{kernel} {a} vs {reference} {b} (4σ = {})",
            4.0 * sigma
        );
    }

    /// The engine's amortized read (paired normals, sparse trap table,
    /// reciprocal quantize, all drawn on demand) must sample the same
    /// code distribution as the scalar draw-on-demand frozen read: at
    /// Fig 7's operating point, one fresh RTN snapshot per read, their
    /// row error rates agree.
    #[test]
    fn amortized_reads_keep_the_figure_7_error_rate() {
        let levels = vec![(0..128).map(|i| i % 4).collect::<Vec<u32>>()];
        let array = CrossbarArray::program(&levels, &clean_params(), &mut rng());
        let mask = InputMask::all_ones(128);
        let ideal = array.ideal_row_output(0, &mask) as u64;
        let mut g_totals = Vec::new();
        array.conductance_planes_into(&[1; 128], 1, &mut g_totals);
        let reads = 20_000;
        let (mut amortized_rng, mut scalar_rng) =
            (ChaCha8Rng::seed_from_u64(7), ChaCha8Rng::seed_from_u64(8));
        let mut normals = NormalSource::new();
        let mut snapshot = RtnSnapshot::default();
        let (mut offsets, mut entries, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let (mut amortized_errors, mut scalar_errors) = (0u32, 0u32);
        for _ in 0..reads {
            array.sample_rtn_into(&mut amortized_rng, &mut snapshot);
            array.trap_level_sparse_into(&snapshot, &mut offsets, &mut entries);
            array.read_rows_amortized_into(
                &mask,
                &g_totals,
                &offsets,
                &entries,
                &mut normals,
                &mut amortized_rng,
                &mut out,
            );
            amortized_errors += u32::from(out[0] != ideal);

            array.sample_rtn_into(&mut scalar_rng, &mut snapshot);
            let code = array.read_row_frozen(0, &mask, &snapshot, &mut scalar_rng) as u64;
            scalar_errors += u32::from(code != ideal);
        }
        assert_figure_7_rates_agree(
            "amortized",
            amortized_errors,
            "scalar",
            scalar_errors,
            reads,
        );
    }

    #[test]
    fn snapshot_occupancy_matches_probability() {
        let mut rng = rng();
        let levels = vec![vec![3u32; 128]; 20];
        let array = CrossbarArray::program(&levels, &DeviceParams::default(), &mut rng);
        let snap = array.sample_rtn(&mut rng);
        assert_eq!(snap.rows(), 20);
        let trapped: u32 = (0..20).map(|r| snap.trapped_in_row(r)).sum();
        let frac = trapped as f64 / (20.0 * 128.0);
        assert!((frac - 0.25).abs() < 0.06, "trapped fraction {frac}");
    }

    #[test]
    fn frozen_noiseless_matches_ideal_when_untrapped() {
        let params = DeviceParams {
            fault_rate: 0.0,
            programming_tolerance: 0.0,
            bandwidth: 0.0,
            rtn_state_probability: 0.0,
            ..DeviceParams::default()
        };
        let mut rng = rng();
        let levels = vec![vec![1, 2, 3, 0]];
        let array = CrossbarArray::program(&levels, &params, &mut rng);
        let mask = InputMask::all_ones(4);
        let snap = array.sample_rtn(&mut rng);
        assert_eq!(
            array.read_row_frozen(0, &mask, &snap, &mut rng),
            array.ideal_row_output(0, &mask)
        );
    }

    #[test]
    fn try_program_rejects_invalid_requests() {
        let params = clean_params();
        let wide = vec![vec![0u32; 200]];
        assert_eq!(
            CrossbarArray::try_program(&wide, &params, &mut rng()).unwrap_err(),
            ArrayError::RowTooWide { row: 0, width: 200 }
        );
        let bad_level = vec![vec![0, 1], vec![2, 9]];
        let err = CrossbarArray::try_program(&bad_level, &params, &mut rng()).unwrap_err();
        assert_eq!(
            err,
            ArrayError::LevelOutOfRange {
                row: 1,
                column: 1,
                level: 9,
                levels: params.levels(),
            }
        );
        assert!(err.to_string().contains("level 9 out of range"));
    }

    #[test]
    fn try_program_matches_program_under_fixed_seed() {
        // Validation draws nothing, so both constructors consume the
        // same RNG stream and produce identical arrays.
        let levels = vec![(0..64).map(|i| i % 4).collect::<Vec<u32>>(); 3];
        let a = CrossbarArray::program(&levels, &DeviceParams::default(), &mut rng());
        let b = CrossbarArray::try_program(&levels, &DeviceParams::default(), &mut rng()).unwrap();
        assert_eq!(a, b);
    }

    /// A row as the per-cell programmer kept it: every cell's intended
    /// and stored level side by side with its conductance.
    struct ReferenceRow {
        target_levels: Vec<u32>,
        actual_levels: Vec<u32>,
        conductance: Vec<f64>,
        stuck_columns: Vec<u32>,
    }

    /// Programs `rows` one cell at a time, keeping both level vectors,
    /// with the per-cell draws of [`CrossbarArray::try_program`]: the
    /// fault draw, the stuck level if stuck, the tolerance draw.
    fn reference_program(
        rows: &[Vec<u32>],
        params: &DeviceParams,
        r_prog: &[f64],
        rng: &mut ChaCha8Rng,
    ) -> Vec<ReferenceRow> {
        let levels = params.levels();
        let tol = params.programming_tolerance;
        rows.iter()
            .map(|targets| {
                let mut actual_levels = Vec::new();
                let mut conductance = Vec::new();
                let mut stuck_columns = Vec::new();
                for (j, &target) in targets.iter().enumerate() {
                    let actual = if rng.gen::<f64>() < params.fault_rate {
                        stuck_columns.push(j as u32);
                        rng.gen_range(0..levels)
                    } else {
                        target
                    };
                    let r = r_prog[actual as usize] * (1.0 + rng.gen_range(-tol..=tol));
                    actual_levels.push(actual);
                    conductance.push(1.0 / r);
                }
                ReferenceRow {
                    target_levels: targets.clone(),
                    actual_levels,
                    conductance,
                    stuck_columns,
                }
            })
            .collect()
    }

    #[test]
    fn compact_rows_match_per_cell_rows() {
        let mut gen = ChaCha8Rng::seed_from_u64(19);
        let mut moved_stuck = 0;
        for bits in 1..=5u32 {
            for fault_rate in [0.0, 0.3, 1.0] {
                let params = DeviceParams {
                    bits_per_cell: bits,
                    fault_rate,
                    ..DeviceParams::default()
                };
                let levels = params.levels();
                for width in [1u32, 63, 64, 65, 127, 128] {
                    let case = format!("{bits} bits, fault rate {fault_rate}, width {width}");
                    let targets: Vec<Vec<u32>> = (0..3)
                        .map(|_| (0..width).map(|_| gen.gen_range(0..levels)).collect())
                        .collect();
                    let seed = gen.gen::<u64>();
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let array = CrossbarArray::try_program(&targets, &params, &mut rng).unwrap();
                    let mut reference_rng = ChaCha8Rng::seed_from_u64(seed);
                    let reference = reference_program(
                        &targets,
                        &params,
                        array.programmed_resistance(),
                        &mut reference_rng,
                    );
                    assert_eq!(rng, reference_rng, "{case}: draw count");

                    let mut masks = vec![InputMask::all_ones(width), InputMask::zeros(width)];
                    for _ in 0..4 {
                        let mut mask = InputMask::zeros(width);
                        for j in 0..width {
                            mask.set(j, gen.gen::<bool>());
                        }
                        masks.push(mask);
                    }
                    assert_eq!(array.row_count(), reference.len(), "{case}");
                    for (i, (row, want)) in array.rows().iter().zip(&reference).enumerate() {
                        assert_eq!(row.width(), width, "{case}");
                        for j in 0..width {
                            let (target, actual) = (
                                want.target_levels[j as usize],
                                want.actual_levels[j as usize],
                            );
                            assert_eq!(row.target_level(j), target, "{case}, column {j}");
                            assert_eq!(row.actual_level(j), actual, "{case}, column {j}");
                            moved_stuck += usize::from(target != actual);
                        }
                        assert_eq!(row.stuck_columns(), want.stuck_columns, "{case}");
                        assert_eq!(row.has_stuck(), !want.stuck_columns.is_empty(), "{case}");
                        let bits_of = |g: &[f64]| g.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits_of(&row.conductance),
                            bits_of(&want.conductance),
                            "{case}"
                        );
                        for mask in &masks {
                            let mut composition = vec![0u32; levels as usize];
                            let mut ideal = 0i64;
                            for j in mask.iter_ones() {
                                composition[want.actual_levels[j as usize] as usize] += 1;
                                ideal += i64::from(want.target_levels[j as usize]);
                            }
                            assert_eq!(row.active_composition(mask), composition, "{case}");
                            assert_eq!(array.ideal_row_output(i, mask), ideal, "{case}");
                        }
                    }
                }
            }
        }
        // Stuck cells away from their intended level are what tells the
        // two levels of a column apart.
        assert!(moved_stuck > 1000, "{moved_stuck} stuck cells moved");
    }

    #[test]
    fn row_lookups_panic_beyond_the_row() {
        let array = CrossbarArray::program(&[vec![1, 2, 3]], &clean_params(), &mut rng());
        let row = &array.rows()[0];
        let panics =
            |f: &dyn Fn()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
        assert!(panics(&|| {
            row.actual_level(3);
        }));
        assert!(panics(&|| {
            row.target_level(3);
        }));
        assert!(panics(&|| {
            array.ideal_row_output(0, &InputMask::all_ones(4));
        }));
        assert_eq!(array.ideal_row_output(0, &InputMask::all_ones(3)), 6);
    }

    #[test]
    fn conductance_planes_match_mask_scans_bitwise() {
        let mut rng = rng();
        let levels: Vec<Vec<u32>> = (0..5)
            .map(|r| (0..32).map(|i| (i + r) % 4).collect())
            .collect();
        let array = CrossbarArray::program(&levels, &DeviceParams::default(), &mut rng);
        let values: Vec<u64> = (0..32)
            .map(|j| (j as u64).wrapping_mul(2654435761) % 65536)
            .collect();
        let mut planes = Vec::new();
        array.conductance_planes_into(&values, 16, &mut planes);
        for t in 0..16u32 {
            let mask = InputMask::from_bit_of(&values, t);
            for (row, r) in array.rows().iter().enumerate() {
                let mut g = 0.0;
                for j in mask.iter_ones() {
                    g += r.conductance[j as usize];
                }
                // Exact equality: the branchless plane pass adds only
                // `g·1.0` and `+0.0` terms in the same ascending order.
                assert_eq!(planes[t as usize * 5 + row], g, "t={t} row={row}");
            }
        }
    }

    #[test]
    fn conductance_planes_match_mask_scans_on_sparse_ragged_rows() {
        // Half the input words zero, and rows of unequal widths, so
        // both the four-row groups and the single-row fallback skip
        // columns; every plane sum must still equal the ascending scan
        // of its driven columns, bit for bit.
        let mut rng = rng();
        let widths = [
            100usize, 100, 100, 100, 100, 37, 100, 128, 5, 128, 128, 128, 128,
        ];
        let levels: Vec<Vec<u32>> = widths
            .iter()
            .map(|&w| (0..w).map(|_| rng.gen_range(0..4)).collect())
            .collect();
        let array = CrossbarArray::program(&levels, &DeviceParams::default(), &mut rng);
        let values: Vec<u64> = (0..128)
            .map(|_| {
                if rng.gen::<bool>() {
                    0
                } else {
                    rng.gen_range(0..65536)
                }
            })
            .collect();
        let mut planes = Vec::new();
        array.conductance_planes_into(&values, 16, &mut planes);
        let rows = widths.len();
        for t in 0..16u32 {
            for (row, r) in array.rows().iter().enumerate() {
                let mask = InputMask::from_bit_of(&values[..r.conductance.len()], t);
                let mut g = 0.0f64;
                for j in mask.iter_ones() {
                    g += r.conductance[j as usize];
                }
                assert_eq!(
                    planes[t as usize * rows + row].to_bits(),
                    g.to_bits(),
                    "t={t} row={row}"
                );
            }
        }
    }

    #[test]
    fn trap_level_sparse_covers_snapshot() {
        let mut rng = rng();
        let levels = vec![vec![3u32; 64]; 4];
        let array = CrossbarArray::program(&levels, &DeviceParams::default(), &mut rng);
        let snap = array.sample_rtn(&mut rng);
        let mut offsets = Vec::new();
        let mut entries = Vec::new();
        array.trap_level_sparse_into(&snap, &mut offsets, &mut entries);
        assert_eq!(offsets.len(), 4 + 1);
        let delta_i = array.rtn_delta_i();
        for (row, r) in array.rows().iter().enumerate() {
            // The row's entries are exactly its non-empty (level, mask)
            // intersections, in ascending-level order.
            let expected: Vec<(f64, u128)> = delta_i
                .iter()
                .zip(r.level_masks.iter())
                .filter_map(|(&d, &m)| {
                    let masked = m & snap.traps[row];
                    (masked != 0).then_some((d, masked))
                })
                .collect();
            let got = &entries[offsets[row] as usize..offsets[row + 1] as usize];
            assert_eq!(got, expected.as_slice(), "row={row}");
        }
    }

    #[test]
    fn amortized_read_matches_scalar_read_when_noiseless() {
        let params = DeviceParams {
            fault_rate: 0.0,
            programming_tolerance: 0.0,
            rtn_state_probability: 0.0,
            bandwidth: 0.0,
            ..DeviceParams::default()
        };
        let mut rng = rng();
        let levels: Vec<Vec<u32>> = (0..6)
            .map(|r| (0..48).map(|i| (i * 7 + r) % 4).collect())
            .collect();
        let array = CrossbarArray::program(&levels, &params, &mut rng);
        let values: Vec<u64> = (0..48)
            .map(|j| (j as u64).wrapping_mul(517) % 65536)
            .collect();
        let snap = array.sample_rtn(&mut rng);
        let mut planes = Vec::new();
        array.conductance_planes_into(&values, 16, &mut planes);
        let mut offsets = Vec::new();
        let mut entries = Vec::new();
        array.trap_level_sparse_into(&snap, &mut offsets, &mut entries);
        let mut normals = NormalSource::new();
        let mut fast = Vec::new();
        let mut scalar = Vec::new();
        for t in 0..16u32 {
            let mask = InputMask::from_bit_of(&values, t);
            array.read_rows_amortized_into(
                &mask,
                &planes[t as usize * 6..(t as usize + 1) * 6],
                &offsets,
                &entries,
                &mut normals,
                &mut rng,
                &mut fast,
            );
            array.read_rows_into(&mask, &snap, &mut rng, &mut scalar);
            assert_eq!(fast, scalar, "bit {t}");
        }
    }

    #[test]
    fn walk_matches_reduce_of_one_lane_reads() {
        // Every cell width; 40- and 100-column rows (so trap words have
        // high halves), every fifth row narrower; stuck cells; and
        // noise large enough that many brackets straddle. Per cycle,
        // the walk must equal the reduce of the one-lane reads' codes
        // from an identically seeded stream, and so must a second walk
        // of the same cycle (a retry); both streams must end alike.
        let (mut reads, mut straddled) = (0usize, 0usize);
        for cell_bits in 1..=5u32 {
            for width in [40usize, 100] {
                // A 26-bit word spans at most 30 bits, so its values fit
                // `u128`; a 138-bit word does not.
                for word_bits in [26u32, 138] {
                    let params = DeviceParams {
                        bits_per_cell: cell_bits,
                        bandwidth: 1e10,
                        fault_rate: 0.05,
                        ..DeviceParams::default()
                    };
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(u64::from(cell_bits) * 1000 + width as u64);
                    let slicer = crate::BitSlicer::new(cell_bits, word_bits);
                    let rows = slicer.rows_per_word() as usize;
                    let levels: Vec<Vec<u32>> = (0..rows)
                        .map(|r| {
                            let w = if r % 5 == 4 { width / 3 } else { width };
                            (0..w)
                                .map(|_| rng.gen_range(0..=params.max_level()))
                                .collect()
                        })
                        .collect();
                    let array = CrossbarArray::program(&levels, &params, &mut rng);
                    let values: Vec<u64> = (0..width)
                        .map(|_| {
                            if rng.gen_range(0..4) == 0 {
                                0
                            } else {
                                rng.gen_range(0..65536)
                            }
                        })
                        .collect();
                    let masks: Vec<InputMask> = (0..16)
                        .map(|t| InputMask::from_bit_of(&values, t))
                        .collect();
                    let snap = array.sample_rtn(&mut rng);
                    let (mut offsets, mut entries) = (Vec::new(), Vec::new());
                    array.trap_level_sparse_into(&snap, &mut offsets, &mut entries);
                    let mut planes = Vec::new();
                    array.conductance_planes_into(&values, 16, &mut planes);
                    let mut brackets = ReadBrackets::with_row_capacity(rows);
                    array.bracket_reads_into(&masks, &planes, &offsets, &entries, &mut brackets);

                    let (mut walk_rng, mut read_rng) = (rng.clone(), rng.clone());
                    let (mut walk_normals, mut read_normals) =
                        (NormalSource::new(), NormalSource::new());
                    let mut codes = Vec::new();
                    for (t, mask) in masks.iter().enumerate() {
                        let plane = &planes[t * rows..(t + 1) * rows];
                        for attempt in 0..2 {
                            array.read_rows_amortized_into(
                                mask,
                                plane,
                                &offsets,
                                &entries,
                                &mut read_normals,
                                &mut read_rng,
                                &mut codes,
                            );
                            let want = slicer.reduce(&codes);
                            let at = format!(
                                "c={cell_bits} w={width} word={word_bits} t={t} attempt {attempt}"
                            );
                            if word_bits == 26 && attempt == 1 {
                                let walked = array.walk_reads_u128(
                                    &brackets,
                                    t,
                                    &mut walk_normals,
                                    &mut walk_rng,
                                );
                                assert_eq!(walked, slicer.reduce_u128(&codes), "{at}");
                                assert_eq!(U256::from(walked), want, "{at}");
                            } else {
                                let walked = array.walk_reads(
                                    &brackets,
                                    t,
                                    &mut walk_normals,
                                    &mut walk_rng,
                                );
                                assert_eq!(walked, want, "{at}");
                            }
                        }
                        reads += rows;
                        straddled += brackets
                            .straddle
                            .iter()
                            .filter(|&&s| s >> t & 1 != 0)
                            .count();
                    }
                    assert_eq!(
                        walk_normals.next(&mut walk_rng).to_bits(),
                        read_normals.next(&mut read_rng).to_bits()
                    );
                    assert_eq!(walk_rng.gen::<u64>(), read_rng.gen::<u64>());
                }
            }
        }
        assert!(
            straddled * 4 > reads && straddled * 4 < reads * 3,
            "{straddled} of {reads} reads straddle"
        );
        // An array of no rows reads 0 in every cycle.
        let empty = CrossbarArray::program(&[], &DeviceParams::default(), &mut rng());
        let masks = [InputMask::all_ones(8); 16];
        let mut brackets = ReadBrackets::default();
        empty.bracket_reads_into(&masks, &[], &[0], &[], &mut brackets);
        let (mut normals, mut rng) = (NormalSource::new(), rng());
        for t in 0..16 {
            assert_eq!(
                empty.walk_reads(&brackets, t, &mut normals, &mut rng),
                U256::ZERO
            );
        }
    }

    #[test]
    fn amortized_read_stays_near_ideal_with_noise() {
        let mut rng = rng();
        let levels = vec![(0..128).map(|i| i % 4).collect::<Vec<u32>>()];
        let array = CrossbarArray::program(&levels, &clean_params(), &mut rng);
        let values = vec![1u64; 128]; // bit 0 drives every column
        let mask = InputMask::from_bit_of(&values, 0);
        let ideal = array.ideal_row_output(0, &mask);
        let mut planes = Vec::new();
        array.conductance_planes_into(&values, 1, &mut planes);
        let mut normals = NormalSource::new();
        let mut out = Vec::new();
        let mut offsets = Vec::new();
        let mut entries = Vec::new();
        for _ in 0..50 {
            let snap = array.sample_rtn(&mut rng);
            array.trap_level_sparse_into(&snap, &mut offsets, &mut entries);
            array.read_rows_amortized_into(
                &mask,
                &planes,
                &offsets,
                &entries,
                &mut normals,
                &mut rng,
                &mut out,
            );
            let got = out[0] as i64;
            assert!((got - ideal).abs() <= 8, "out {got} ideal {ideal}");
        }
    }

    #[test]
    fn composition_counts_active_cells() {
        let mut rng = rng();
        let array = CrossbarArray::program(&[vec![0, 1, 1, 3, 2]], &clean_params(), &mut rng);
        let comp = array.rows()[0].active_composition(&InputMask::all_ones(5));
        assert_eq!(comp, vec![1, 2, 1, 1]);
        let mut mask = InputMask::zeros(5);
        mask.set(1, true);
        mask.set(3, true);
        let comp = array.rows()[0].active_composition(&mask);
        assert_eq!(comp, vec![0, 1, 0, 1]);
    }
}
