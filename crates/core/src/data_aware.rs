//! Data-aware syndrome allocation (§V-B1 of the paper).
//!
//! Given a [`RowErrorModel`] describing how likely each physical row of a
//! stored, encoded matrix is to err, this module builds a correction
//! table that spends its `A − 1` residue slots on the *most damaging*
//! error events — ranked by `probability × bit weight` — rather than on
//! all single-bit positions uniformly. Arrays with stuck-at faults get a
//! split table: half the capacity corrects combinations involving the
//! deterministic stuck-cell error, half corrects ordinary transient
//! events.

use crate::error_list::{pow2_residues, rank};
use crate::{
    AbnCode, AnCode, CodeError, CorrectionTable, ErrorListConfig, RowErrorModel, TableHalf,
};

/// Configuration for data-aware table construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DataAwareConfig {
    /// Enumeration bounds for the error list.
    pub error_list: ErrorListConfig,
}

/// Builds a data-aware correction table for `model` under modulus `a`.
///
/// Candidates are taken in descending score order; a candidate is added
/// when its residue is unique and still free. When the model contains
/// stuck rows, the table is split: stuck-involving candidates may occupy
/// at most half the slots, transient candidates the rest (§V-B1 —
/// "we therefore split the table into two halves").
///
/// # Errors
///
/// Returns [`CodeError::InvalidA`] for invalid `a`.
///
/// # Examples
///
/// ```
/// use ancode::data_aware::{build_table, DataAwareConfig};
/// use ancode::{RowError, RowErrorModel};
///
/// let model = RowErrorModel::new(
///     vec![RowError::symmetric(0, 0.01), RowError::symmetric(4, 0.2)],
///     8,
/// );
/// let table = build_table(19, &model, &DataAwareConfig::default())?;
/// // The noisy, significant MSB row is covered.
/// assert!(table.iter().any(|(_, e)| e.syndrome.msb() == 4));
/// # Ok::<(), ancode::CodeError>(())
/// ```
pub fn build_table(
    a: u64,
    model: &RowErrorModel,
    config: &DataAwareConfig,
) -> Result<CorrectionTable, CodeError> {
    let code = AnCode::new(a)?;
    let mut table = CorrectionTable::new(a)?;

    let has_stuck = model.stuck_rows().next().is_some();
    let capacity = a as usize - 1;
    let (stuck_budget, transient_budget) = if has_stuck {
        (capacity / 2, capacity - capacity / 2)
    } else {
        (0, capacity)
    };
    let mut stuck_used = 0;
    let mut transient_used = 0;

    // Residues are tested in `u64` arithmetic; a syndrome is built only
    // for a candidate whose residue is nonzero and still free, and
    // `try_insert` re-derives that residue from the syndrome itself.
    let pow2 = pow2_residues(a);
    for candidate in rank(model, &config.error_list) {
        let (half, used, budget) = if candidate.involves_stuck {
            (TableHalf::StuckAware, &mut stuck_used, stuck_budget)
        } else {
            (TableHalf::Transient, &mut transient_used, transient_budget)
        };
        if *used >= budget {
            continue;
        }
        let residue = candidate.residue(&pow2, a);
        if residue != 0
            && table.lookup(residue).is_none()
            && table
                .try_insert(&code, candidate.syndrome(), candidate.probability, half)
                .is_ok()
        {
            *used += 1;
        }
        if stuck_used >= stuck_budget && transient_used >= transient_budget {
            break;
        }
    }
    Ok(table)
}

/// Builds a complete data-aware ABN code: table from [`build_table`],
/// detection term `b`.
///
/// # Errors
///
/// Propagates construction errors from [`build_table`] and
/// [`AbnCode::from_table`].
pub fn build_code(
    a: u64,
    b: u64,
    model: &RowErrorModel,
    data_bits: u32,
    config: &DataAwareConfig,
) -> Result<AbnCode, CodeError> {
    let table = build_table(a, model, config)?;
    AbnCode::from_table(a, b, table, data_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowError;

    fn noisy_msb_model() -> RowErrorModel {
        RowErrorModel::new(
            vec![
                RowError {
                    lsb_bit: 0,
                    p_high: 0.001,
                    p_low: 0.0001,
                    stuck: false,
                },
                RowError {
                    lsb_bit: 2,
                    p_high: 0.01,
                    p_low: 0.001,
                    stuck: false,
                },
                RowError {
                    lsb_bit: 4,
                    p_high: 0.05,
                    p_low: 0.005,
                    stuck: false,
                },
                RowError {
                    lsb_bit: 6,
                    p_high: 0.15,
                    p_low: 0.01,
                    stuck: false,
                },
            ],
            8,
        )
    }

    #[test]
    fn most_damaging_event_allocated_first() {
        let table = build_table(19, &noisy_msb_model(), &DataAwareConfig::default()).unwrap();
        // The highest-scoring event is +2^6 (p = 0.15, weight 64); it
        // must be present.
        let top = table
            .iter()
            .find(|(_, e)| e.syndrome.value().to_i128() == Some(64));
        assert!(top.is_some());
    }

    #[test]
    fn table_not_overfilled() {
        let table = build_table(7, &noisy_msb_model(), &DataAwareConfig::default()).unwrap();
        assert!(table.len() <= 6);
    }

    #[test]
    fn covered_probability_increases_with_a() {
        let model = noisy_msb_model();
        let config = DataAwareConfig::default();
        let small = build_table(7, &model, &config).unwrap();
        let large = build_table(61, &model, &config).unwrap();
        assert!(large.covered_probability() >= small.covered_probability());
    }

    #[test]
    fn split_table_reserves_stuck_half() {
        let mut rows = noisy_msb_model().rows().to_vec();
        rows[1].stuck = true;
        let model = RowErrorModel::new(rows, 8);
        let table = build_table(19, &model, &DataAwareConfig::default()).unwrap();
        let (transient, stuck) = table.half_sizes();
        assert!(stuck > 0, "stuck-aware half must be populated");
        assert!(stuck <= 9, "stuck half bounded by capacity/2");
        assert!(transient > 0, "transient half must be populated");
    }

    #[test]
    fn no_stuck_rows_means_single_half() {
        let table = build_table(19, &noisy_msb_model(), &DataAwareConfig::default()).unwrap();
        let (_, stuck) = table.half_sizes();
        assert_eq!(stuck, 0);
    }

    #[test]
    fn build_code_end_to_end() {
        use crate::CorrectionPolicy;
        use wideint::{I256, U256};

        let code = build_code(19, 3, &noisy_msb_model(), 8, &DataAwareConfig::default()).unwrap();
        let clean = code.encode(U256::from(200u64)).unwrap();
        // Inject the dominant error (+2^6); the data-aware table fixes it.
        let observed = I256::from(clean) + I256::from_i128(64);
        let out = code.decode(observed, CorrectionPolicy::Revert);
        assert!(out.status.was_corrected());
        assert_eq!(out.value.to_i128(), Some(200));
    }

    #[test]
    fn invalid_a_propagates() {
        assert!(build_table(4, &noisy_msb_model(), &DataAwareConfig::default()).is_err());
    }
}
