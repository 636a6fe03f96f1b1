//! Mapping quantized weight matrices onto coded crossbar stacks.
//!
//! A `[out, in]` matrix of biased 16-bit weights is placed as follows
//! (§VII-A of the paper):
//!
//! 1. Columns are split into chunks of at most 128 (one crossbar's
//!    width); a matrix wider than 128 columns is "split evenly into
//!    chunks no larger than 128 columns".
//! 2. Within a chunk, logical rows are packed eight at a time into
//!    128-bit operand groups (for grouped schemes) or kept separate
//!    (unprotected / per-operand static schemes).
//! 3. Each group/operand is multiplied by the scheme's code constant,
//!    bit-sliced onto `c`-bit cells, and programmed into a stack of
//!    physical rows.
//!
//! For the data-aware schemes, step 3 is preceded by the per-array `A`
//! search of §V-B4 (the row-error model is re-derived for each candidate
//! because the encoded bit patterns change with `A`), and followed by a
//! table rebuild against the *programmed* array when it has stuck-at
//! faults, so that faults found at test time occupy the stuck-aware
//! table half.

use std::collections::HashMap;

use ancode::data_aware::DataAwareConfig;
use ancode::{
    AbnCode, CodeError, ErrorListConfig, GroupLayout, OperandGroup, RowError, RowErrorModel,
};
use rand::Rng;
use wideint::U256;
use xbar::rowerr::{self, RowErrorRate};
use xbar::{BitSlicer, CrossbarArray, DeviceParams, InputMask, PhysicalRow};

use crate::scheme::{static128_code, static16_code, total_check_bits};
use crate::{AccelConfig, ProtectionScheme};

/// One programmed stack of physical rows holding one coded operand
/// group (or one uncoded/per-operand logical row).
#[derive(Debug, Clone)]
pub struct Stack {
    /// The programmed crossbar rows.
    pub array: CrossbarArray,
    /// The arithmetic code protecting the stack (`None` for the
    /// unprotected baseline).
    pub code: Option<AbnCode>,
    /// Slicer describing the row ↔ bit-position correspondence.
    pub slicer: BitSlicer,
    /// Lane packer used to split group outputs back into logical rows.
    pub group: OperandGroup,
    /// First logical (output) row held by this stack.
    pub row_offset: usize,
    /// Number of real (non-padding) logical rows in the stack.
    pub lanes: usize,
}

/// A fully mapped matrix: chunks × stacks.
#[derive(Debug, Clone)]
pub struct MappedMatrix {
    /// Column range of each chunk.
    pub chunks: Vec<std::ops::Range<usize>>,
    /// Stacks per chunk.
    pub stacks: Vec<Vec<Stack>>,
    /// Logical output rows.
    pub out_dim: usize,
    /// Logical input columns.
    pub in_dim: usize,
}

impl MappedMatrix {
    /// Total physical rows across all stacks — the figure of merit for
    /// storage overhead.
    pub fn total_physical_rows(&self) -> usize {
        self.stacks
            .iter()
            .flatten()
            .map(|s| s.array.row_count())
            .sum()
    }

    /// Number of 128×128 crossbar arrays this mapping occupies.
    pub fn array_count(&self) -> usize {
        self.total_physical_rows().div_ceil(128)
    }
}

/// The error-list bounds used during mapping. Multi-row combinations
/// are capped at 3 rows (4 in the paper); with the hardware `A`
/// candidates the correction table holds at most 336 entries, which
/// 1–3-row events fill, and the smaller enumeration keeps per-array
/// construction fast enough for network-scale Monte Carlo.
pub fn mapping_error_list_config() -> ErrorListConfig {
    ErrorListConfig {
        max_rows_per_event: 3,
        top_rows: 10,
        min_probability: 1e-9,
        max_candidates: 2048,
    }
}

/// Row-error rates memoized by row composition.
///
/// [`rowerr::predict_composition`] is a pure function of the
/// composition and the device, and compositions repeat heavily: across
/// the `A` candidates of one stack, across stacks and, in the analytic
/// model, across layers and input densities. The memo runs the binomial
/// tails once per distinct composition.
pub(crate) struct RateMemo<'d> {
    device: &'d DeviceParams,
    rates: HashMap<Vec<u32>, RowErrorRate>,
}

impl<'d> RateMemo<'d> {
    /// An empty memo for rows programmed with `device`.
    pub(crate) fn new(device: &'d DeviceParams) -> RateMemo<'d> {
        RateMemo {
            device,
            rates: HashMap::new(),
        }
    }

    /// The predicted rate of a row with `composition` (driven cells per
    /// level).
    pub(crate) fn rate(&mut self, composition: &[u32]) -> RowErrorRate {
        if let Some(&rate) = self.rates.get(composition) {
            return rate;
        }
        let rate = rowerr::predict_composition(composition, self.device);
        self.rates.insert(composition.to_vec(), rate);
        rate
    }
}

/// Maps a biased-weight matrix (`rows[out][in]`, entries in `0..2^16`)
/// onto crossbar stacks under `config`, programming the arrays with
/// `rng`.
///
/// # Errors
///
/// Propagates code-construction failures (which indicate a
/// misconfigured scheme rather than bad data).
pub fn map_matrix<R: Rng + ?Sized>(
    rows: &[Vec<u16>],
    config: &AccelConfig,
    rng: &mut R,
) -> Result<MappedMatrix, CodeError> {
    map_matrix_with(rows, config, rng, &mut RateMemo::new(&config.device))
}

/// [`map_matrix`] with a caller-held row-rate memo, which must have been
/// built for `config.device`.
pub(crate) fn map_matrix_with<R: Rng + ?Sized>(
    rows: &[Vec<u16>],
    config: &AccelConfig,
    rng: &mut R,
    memo: &mut RateMemo<'_>,
) -> Result<MappedMatrix, CodeError> {
    debug_assert_eq!(memo.device, &config.device, "memo built for another device");
    let out_dim = rows.len();
    let in_dim = rows.first().map_or(0, |r| r.len());
    assert!(out_dim > 0 && in_dim > 0, "matrix cannot be empty");
    assert!(
        rows.iter().all(|r| r.len() == in_dim),
        "ragged weight matrix"
    );

    // Split columns evenly into chunks of ≤ max_columns.
    let n_chunks = in_dim.div_ceil(config.max_columns);
    let per_chunk = in_dim.div_ceil(n_chunks);
    let chunks: Vec<std::ops::Range<usize>> = (0..n_chunks)
        .map(|i| i * per_chunk..((i + 1) * per_chunk).min(in_dim))
        .collect();

    // Every per-row stack of a Static16 matrix carries the same code;
    // build its correction table once and clone it into each stack.
    let row_code = match config.scheme {
        ProtectionScheme::Static16 => Some(static16_code(config.device.bits_per_cell)),
        _ => None,
    };

    let mut stacks = Vec::with_capacity(n_chunks);
    for cols in &chunks {
        let mut chunk_stacks = Vec::new();
        if config.scheme.is_grouped() {
            let ops = config.group.operands();
            let mut row = 0;
            while row < out_dim {
                let lanes = ops.min(out_dim - row);
                chunk_stacks.push(build_group_stack(
                    rows,
                    row,
                    lanes,
                    cols.clone(),
                    config,
                    rng,
                    memo,
                )?);
                row += lanes;
            }
        } else {
            for row in 0..out_dim {
                chunk_stacks.push(build_per_row_stack(
                    &rows[row],
                    row,
                    cols.clone(),
                    row_code.clone(),
                    config,
                    rng,
                )?);
            }
        }
        stacks.push(chunk_stacks);
    }

    Ok(MappedMatrix {
        chunks,
        stacks,
        out_dim,
        in_dim,
    })
}

/// Builds one unprotected (`code` is `None`) or per-operand-coded
/// stack for a single logical row.
fn build_per_row_stack<R: Rng + ?Sized>(
    weights: &[u16],
    row: usize,
    cols: std::ops::Range<usize>,
    code: Option<AbnCode>,
    config: &AccelConfig,
    rng: &mut R,
) -> Result<Stack, CodeError> {
    let coded_bits = match &code {
        Some(c) => 16 + c.check_bits(),
        None => 16,
    };
    let slicer = BitSlicer::new(config.device.bits_per_cell, coded_bits);
    let words: Result<Vec<U256>, CodeError> = cols
        .clone()
        .map(|j| {
            let w = U256::from(weights[j] as u64);
            match &code {
                Some(c) => c.encode(w),
                None => Ok(w),
            }
        })
        .collect();
    let levels = slicer.slice_wide(&words?);
    let array = CrossbarArray::program(&levels, &config.device, rng);
    Ok(Stack {
        array,
        code,
        slicer,
        group: OperandGroup::new(GroupLayout::new(16, 1)?),
        row_offset: row,
        lanes: 1,
    })
}

/// Builds one grouped stack for up to eight logical rows.
fn build_group_stack<R: Rng + ?Sized>(
    rows: &[Vec<u16>],
    row_offset: usize,
    lanes: usize,
    cols: std::ops::Range<usize>,
    config: &AccelConfig,
    rng: &mut R,
    memo: &mut RateMemo<'_>,
) -> Result<Stack, CodeError> {
    let group = OperandGroup::new(config.group);
    let ops = config.group.operands();

    // Pack each column's weights (padding missing lanes with zero).
    let blocks: Vec<U256> = cols
        .clone()
        .map(|j| {
            let ops_vec: Vec<u64> = (0..ops)
                .map(|l| {
                    if l < lanes {
                        rows[row_offset + l][j] as u64
                    } else {
                        0
                    }
                })
                .collect();
            group.pack(&ops_vec)
        })
        .collect::<Result<_, _>>()?;

    let code = match config.scheme {
        ProtectionScheme::Static128 => static128_code(config.device.bits_per_cell),
        ProtectionScheme::DataAware {
            check_bits,
            hardware_candidates,
        } => select_data_aware_code(&blocks, check_bits, hardware_candidates, config, memo)?,
        _ => {
            return Err(CodeError::InvalidLayout(
                "per-row scheme routed to the group stack builder".to_string(),
            ))
        }
    };

    let coded: Vec<U256> = blocks
        .iter()
        .map(|&b| code.encode(b))
        .collect::<Result<_, _>>()?;
    let coded_bits = config.group.data_bits() + code.check_bits();
    let slicer = BitSlicer::new(config.device.bits_per_cell, coded_bits);
    let levels = slicer.slice_wide(&coded);
    let array = CrossbarArray::program(&levels, &config.device, rng);

    // Rebuild the data-aware table against the programmed array so that
    // stuck-at faults discovered at test time get the split table. With
    // no stuck cell the programmed levels are the target levels, the
    // coded width is the one the candidate model used, and row LSBs do
    // not depend on it anyway: the array's model is exactly the one
    // `select_a` built this table from, so the rebuild would repeat it.
    let rebuild = matches!(config.scheme, ProtectionScheme::DataAware { .. })
        && array.rows().iter().any(PhysicalRow::has_stuck);
    let code = if rebuild {
        let model = row_model_from_array(&array, &slicer, config.group.operand_bits(), memo);
        let da = DataAwareConfig {
            error_list: config.error_list,
        };
        ancode::data_aware::build_code(code.a(), code.b(), &model, config.group.data_bits(), &da)?
    } else {
        code
    };

    Ok(Stack {
        array,
        code: Some(code),
        slicer,
        group,
        row_offset,
        lanes,
    })
}

/// Runs the per-array `A` search of §V-B4 over the candidate set.
fn select_data_aware_code(
    blocks: &[U256],
    check_bits: u32,
    hardware_candidates: bool,
    config: &AccelConfig,
    memo: &mut RateMemo<'_>,
) -> Result<AbnCode, CodeError> {
    let b = ProtectionScheme::B;
    let max_a = ((1u64 << check_bits) - 1) / b;
    let candidates: Vec<u64> = if hardware_candidates {
        ancode::search::DEFAULT_HARDWARE_CANDIDATES
            .iter()
            .copied()
            .filter(|&a| a <= max_a)
            .collect()
    } else {
        ancode::search::candidate_as(check_bits, b)
    };
    if candidates.is_empty() {
        return Err(CodeError::InvalidA(0));
    }
    let da = DataAwareConfig {
        error_list: config.error_list,
    };
    let result = ancode::search::select_a(&candidates, b, config.group.data_bits(), &da, |a| {
        predicted_row_model(blocks, a, config, memo)
    })?;
    Ok(result.code)
}

/// Predicts the row-error model of `blocks` when encoded with candidate
/// `a` (before programming — no stuck-at knowledge yet).
///
/// # Errors
///
/// [`CodeError::Overflow`] when a coded block would exceed 256 bits —
/// the candidate cannot encode these operands and the A-search rejects
/// it.
fn predicted_row_model(
    blocks: &[U256],
    a: u64,
    config: &AccelConfig,
    memo: &mut RateMemo<'_>,
) -> Result<RowErrorModel, CodeError> {
    let multiplier = a * ProtectionScheme::B;
    let coded_bits = config.group.data_bits() + total_check_bits(a, ProtectionScheme::B);
    let slicer = BitSlicer::new(config.device.bits_per_cell, coded_bits);
    let coded: Vec<U256> = blocks
        .iter()
        .map(|&b| b.checked_mul_u64(multiplier).ok_or(CodeError::Overflow))
        .collect::<Result<_, _>>()?;
    let levels = slicer.slice_wide(&coded);
    let mut composition = vec![0u32; config.device.levels() as usize];
    let rows = levels
        .iter()
        .enumerate()
        .map(|(r, row_levels)| {
            composition.fill(0);
            for &l in row_levels {
                composition[l as usize] += 1;
            }
            let rate = memo.rate(&composition);
            RowError {
                lsb_bit: slicer.row_lsb(r as u32),
                p_high: rate.p_high,
                p_low: rate.p_low,
                stuck: false,
            }
        })
        .collect();
    Ok(RowErrorModel::new(rows, config.group.operand_bits()))
}

/// Derives the row-error model of a *programmed* array (actual levels,
/// stuck flags) for the post-programming table rebuild.
fn row_model_from_array(
    array: &CrossbarArray,
    slicer: &BitSlicer,
    operand_bits: u32,
    memo: &mut RateMemo<'_>,
) -> RowErrorModel {
    let rows = array
        .rows()
        .iter()
        .enumerate()
        .map(|(r, row)| {
            let mask = InputMask::all_ones(row.width());
            let rate = memo.rate(&row.active_composition(&mask));
            RowError {
                lsb_bit: slicer.row_lsb(r as u32),
                p_high: rate.p_high,
                p_low: rate.p_low,
                stuck: row.has_stuck(),
            }
        })
        .collect();
    RowErrorModel::new(rows, operand_bits)
}

/// The worst-case device-parameter row model for a `DeviceParams` —
/// used by tests and diagnostics.
pub fn worst_case_row_model(device: &DeviceParams, rows: u32, operand_bits: u32) -> RowErrorModel {
    let comp: Vec<u32> = {
        let mut c = vec![0u32; device.levels() as usize];
        if let Some(top) = c.last_mut() {
            *top = 128;
        }
        c
    };
    let rate = rowerr::predict_composition(&comp, device);
    let row_errors = (0..rows)
        .map(|r| RowError {
            lsb_bit: r * device.bits_per_cell,
            p_high: rate.p_high,
            p_low: rate.p_low,
            stuck: false,
        })
        .collect();
    RowErrorModel::new(row_errors, operand_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    fn small_matrix(out: usize, inp: usize) -> Vec<Vec<u16>> {
        (0..out)
            .map(|o| {
                (0..inp)
                    .map(|i| (32768i32 + ((o * 31 + i * 17) as i32 % 2000) - 1000) as u16)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn chunking_splits_wide_matrices() {
        let config = AccelConfig::new(ProtectionScheme::None);
        let m = map_matrix(&small_matrix(4, 300), &config, &mut rng()).unwrap();
        assert_eq!(m.chunks.len(), 3);
        // Evenly split: 100 columns each.
        assert!(m.chunks.iter().all(|c| c.len() == 100));
        assert_eq!(m.out_dim, 4);
        assert_eq!(m.in_dim, 300);
    }

    #[test]
    fn unprotected_mapping_rows_per_stack() {
        let config = AccelConfig::new(ProtectionScheme::None); // 2-bit cells
        let m = map_matrix(&small_matrix(3, 10), &config, &mut rng()).unwrap();
        assert_eq!(m.stacks[0].len(), 3);
        let stack = &m.stacks[0][0];
        assert!(stack.code.is_none());
        // 16-bit words on 2-bit cells → 8 physical rows.
        assert_eq!(stack.array.row_count(), 8);
        assert_eq!(stack.lanes, 1);
    }

    #[test]
    fn grouped_mapping_packs_eight_rows() {
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.0);
        let m = map_matrix(&small_matrix(20, 16), &config, &mut rng()).unwrap();
        // 20 rows → groups of 8, 8, 4.
        assert_eq!(m.stacks[0].len(), 3);
        assert_eq!(m.stacks[0][0].lanes, 8);
        assert_eq!(m.stacks[0][2].lanes, 4);
        let stack = &m.stacks[0][0];
        let code = stack.code.as_ref().unwrap();
        assert!(code.a() * code.b() < 512, "fits 9 check bits");
        // 128 data + ≤9 check bits on 2-bit cells.
        assert!(stack.array.row_count() >= 64 && stack.array.row_count() <= 69);
    }

    #[test]
    fn static128_row_count_matches_paper_example() {
        // "an eight operand group of 16 bit operands requires 35 bit
        // slices at 4-bits per cell" — for ~137 coded bits.
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_cell_bits(4);
        let m = map_matrix(&small_matrix(8, 8), &config, &mut rng()).unwrap();
        let rows = m.stacks[0][0].array.row_count();
        assert!((34..=35).contains(&rows), "rows {rows}");
    }

    #[test]
    fn data_aware_tables_are_data_dependent() {
        // A sparse (mostly zero-bias) group and a dense group should
        // produce different correction tables.
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.0);
        // Wide rows so the binomial row-error model predicts nonzero
        // probabilities (narrow rows cannot deviate past half an LSB).
        let sparse: Vec<Vec<u16>> = (0..8).map(|_| vec![32768u16; 96]).collect();
        let dense: Vec<Vec<u16>> = (0..8).map(|_| vec![0xFFFF; 96]).collect();
        let ms = map_matrix(&sparse, &config, &mut rng()).unwrap();
        let md = map_matrix(&dense, &config, &mut rng()).unwrap();
        let ts = ms.stacks[0][0].code.as_ref().unwrap().table().clone();
        let td = md.stacks[0][0].code.as_ref().unwrap().table().clone();
        assert_ne!(ts, td);
    }

    #[test]
    fn stuck_cells_trigger_split_tables() {
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.2);
        let m = map_matrix(&small_matrix(8, 32), &config, &mut rng()).unwrap();
        let code = m.stacks[0][0].code.as_ref().unwrap();
        let (_, stuck_half) = code.table().half_sizes();
        assert!(stuck_half > 0, "stuck-aware half should be populated");
    }

    #[test]
    fn physical_row_accounting() {
        let config = AccelConfig::new(ProtectionScheme::None);
        let m = map_matrix(&small_matrix(4, 10), &config, &mut rng()).unwrap();
        // 4 rows × 8 physical rows each.
        assert_eq!(m.total_physical_rows(), 32);
        assert_eq!(m.array_count(), 1);
    }

    #[test]
    fn five_bit_cells_supported() {
        for bits in 1..=5 {
            let config = AccelConfig::new(ProtectionScheme::data_aware(10))
                .with_cell_bits(bits)
                .with_fault_rate(0.0);
            let m = map_matrix(&small_matrix(8, 4), &config, &mut rng()).unwrap();
            let rows = m.stacks[0][0].array.row_count() as u32;
            // The selected A·B spans 6–10 check bits depending on the
            // data, so the coded width is 134–138 bits.
            let lo = (128 + 6u32).div_ceil(bits);
            let hi = (128 + 10u32).div_ceil(bits);
            assert!(
                (lo..=hi).contains(&rows),
                "bits {bits}: rows {rows} outside {lo}..={hi}"
            );
        }
    }

    /// A 20 × 150 matrix (two chunks of three stacks each): dense random
    /// rows and rows clustered near the weight bias.
    fn digest_matrix() -> Vec<Vec<u16>> {
        use rand::RngCore;
        let mut rng = ChaCha8Rng::seed_from_u64(0xD16E);
        (0..20)
            .map(|o| {
                (0..150)
                    .map(|_| {
                        let r = rng.next_u32();
                        if o % 2 == 0 {
                            (r >> 16) as u16
                        } else {
                            32768 - 512 + (r % 1024) as u16
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// FNV-1a over `A`, `B` and every table entry of every stack.
    fn table_digest(m: &MappedMatrix) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for stack in m.stacks.iter().flatten() {
            let code = stack.code.as_ref().unwrap();
            eat(code.a());
            eat(code.b());
            for (residue, entry) in code.table().iter() {
                eat(residue);
                for t in entry.syndrome.terms() {
                    eat(u64::from(t.bit));
                    eat(t.delta as u64);
                }
                eat(entry.probability.to_bits());
                eat(u64::from(entry.half == ancode::TableHalf::StuckAware));
            }
        }
        h
    }

    #[test]
    fn data_aware_tables_are_pinned() {
        // Computed with the allocating error list, the per-call
        // predictor and the unconditional rebuild this mapping replaced.
        for (fault_rate, want) in [(0.0, 0x13d1_42c7_65a6_eae1), (0.2, 0xfb1a_b18a_b46a_7353)] {
            let config =
                AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(fault_rate);
            let m = map_matrix(&digest_matrix(), &config, &mut rng()).unwrap();
            assert_eq!(m.stacks.iter().flatten().count(), 6);
            let covered: f64 = m
                .stacks
                .iter()
                .flatten()
                .map(|s| s.code.as_ref().unwrap().table().covered_probability())
                .sum();
            assert!(covered > 0.0, "tables must carry probabilities");
            assert_eq!(table_digest(&m), want, "fault rate {fault_rate}");
        }
    }

    #[test]
    fn fault_free_tables_equal_the_programmed_array_rebuild() {
        // Without stuck cells the mapping keeps the `A`-search table; it
        // must be the table a rebuild against the programmed array
        // would produce.
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.0);
        let da = DataAwareConfig {
            error_list: config.error_list,
        };
        let mut memo = RateMemo::new(&config.device);
        let m = map_matrix(&digest_matrix(), &config, &mut rng()).unwrap();
        for stack in m.stacks.iter().flatten() {
            assert!(!stack.array.rows().iter().any(PhysicalRow::has_stuck));
            let code = stack.code.as_ref().unwrap();
            let model = row_model_from_array(
                &stack.array,
                &stack.slicer,
                config.group.operand_bits(),
                &mut memo,
            );
            let rebuilt = ancode::data_aware::build_code(
                code.a(),
                code.b(),
                &model,
                config.group.data_bits(),
                &da,
            )
            .unwrap();
            assert_eq!(rebuilt.table(), code.table());
            assert_eq!(rebuilt.coded_bits(), code.coded_bits());
        }
    }

    #[test]
    fn rate_memo_returns_the_predictor_value() {
        let device = DeviceParams::default();
        let mut memo = RateMemo::new(&device);
        for comp in [[32u32, 32, 32, 32], [120, 0, 0, 8], [32, 32, 32, 32]] {
            assert_eq!(
                memo.rate(&comp),
                rowerr::predict_composition(&comp, &device)
            );
        }
        assert_eq!(memo.rates.len(), 2);
    }
}
