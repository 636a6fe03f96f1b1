//! Fault-aware logical-row remapping (inspired by Xia et al., §II-C6).
//!
//! The paper cites prior work that maps weight matrices *around* faults;
//! combined with arithmetic coding, the natural hybrid is to choose
//! which logical rows share a coded group so that rows whose weights
//! matter most land in the healthiest groups. This module implements a
//! two-pass greedy remap:
//!
//! 1. map the matrix once and score each group stack by its predicted
//!    error exposure (stuck rows weigh heaviest, then the analytical
//!    per-row error mass);
//! 2. rank logical rows by importance (L1 weight mass — a cheap proxy
//!    for output sensitivity) and reassign the most important rows to
//!    the healthiest group slots.
//!
//! The permutation is purely a logical relabeling: the engine applies it
//! at mapping time and inverts it on the outputs, so the network sees
//! the original row order.

use rand::Rng;

use crate::mapping::{map_matrix, MappedMatrix};
use crate::AccelConfig;

/// The outcome of a remap analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Remap {
    /// `order[new_position] = original_row`: feed rows to the mapper in
    /// this order.
    pub order: Vec<usize>,
    /// Health score per group (lower = healthier), in group order of
    /// the scouting map.
    pub group_scores: Vec<f64>,
}

impl Remap {
    /// The identity remap for `n` rows.
    pub fn identity(n: usize) -> Remap {
        Remap {
            order: (0..n).collect(),
            group_scores: Vec::new(),
        }
    }

    /// Applies the remap to a weight matrix (rows reordered).
    pub fn apply(&self, rows: &[Vec<u16>]) -> Vec<Vec<u16>> {
        self.order.iter().map(|&i| rows[i].clone()).collect()
    }

    /// Scatters outputs computed in remapped order back to the original
    /// row order.
    pub fn restore_outputs(&self, remapped: &[i64]) -> Vec<i64> {
        let mut out = vec![0i64; remapped.len()];
        for (new_pos, &orig) in self.order.iter().enumerate() {
            out[orig] = remapped[new_pos];
        }
        out
    }
}

/// Error exposure of one mapped stack: stuck rows dominate, transient
/// probability mass breaks ties.
fn stack_score(mapped: &MappedMatrix, chunk: usize, stack_idx: usize) -> f64 {
    let stack = &mapped.stacks[chunk][stack_idx];
    let mut score = 0.0;
    for (r, row) in stack.array.rows().iter().enumerate() {
        if row.has_stuck() {
            // Stuck cells in significant rows are the worst case.
            score += 10.0 * (1.0 + stack.slicer.row_lsb(r as u32) as f64 / 16.0);
        }
    }
    score + xbar_error_mass(mapped, chunk, stack_idx)
}

fn xbar_error_mass(mapped: &MappedMatrix, chunk: usize, stack_idx: usize) -> f64 {
    let stack = &mapped.stacks[chunk][stack_idx];
    (0..stack.array.row_count())
        .map(|r| xbar::rowerr::predict_row(&stack.array, r).p_any())
        .sum()
}

/// Computes a fault-aware row ordering for `rows` under `config`.
///
/// `rng` drives the scouting map (programming, including fault
/// placement); use the same seed the real mapping will use so the
/// scouted fault locations match the fabricated ones — the flow models
/// post-fabrication test-and-remap.
pub fn fault_aware_order<R: Rng + ?Sized>(
    rows: &[Vec<u16>],
    config: &AccelConfig,
    rng: &mut R,
) -> Remap {
    let n = rows.len();
    if !config.scheme.is_grouped() || n <= config.group.operands() {
        return Remap::identity(n);
    }
    let Ok(scout) = map_matrix(rows, config, rng) else {
        return Remap::identity(n);
    };

    // Score each group (summed across column chunks, since a logical
    // row spans all chunks).
    let groups_per_chunk = scout.stacks[0].len();
    let mut scores = vec![0.0f64; groups_per_chunk];
    for chunk in 0..scout.stacks.len() {
        for (g, score) in scores.iter_mut().enumerate() {
            *score += stack_score(&scout, chunk, g);
        }
    }

    // Rank groups: healthiest first.
    let mut group_rank: Vec<usize> = (0..groups_per_chunk).collect();
    group_rank.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));

    // Rank rows: most important first (L1 mass of unbiased weights).
    let importance = |row: &[u16]| -> f64 {
        row.iter()
            .map(|&w| (w as i64 - neural::WEIGHT_BIAS).unsigned_abs() as f64)
            .sum()
    };
    let mut row_rank: Vec<usize> = (0..n).collect();
    row_rank.sort_by(|&a, &b| importance(&rows[b]).total_cmp(&importance(&rows[a])));

    // Fill healthiest groups with the most important rows.
    let ops = config.group.operands();
    let mut order = vec![usize::MAX; n];
    let mut next_row = 0;
    for &g in &group_rank {
        let base = g * ops;
        for slot in 0..ops {
            let pos = base + slot;
            if pos >= n {
                continue;
            }
            order[pos] = row_rank[next_row];
            next_row += 1;
            if next_row >= n {
                break;
            }
        }
    }
    Remap {
        order,
        group_scores: scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtectionScheme;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rows(n: usize, cols: usize) -> Vec<Vec<u16>> {
        (0..n)
            .map(|o| {
                (0..cols)
                    .map(|j| (32768i64 + ((o * o * 37 + j * 11) % 3000) as i64 - 1500) as u16)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn identity_for_unprotected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let config = AccelConfig::new(ProtectionScheme::None);
        let remap = fault_aware_order(&rows(20, 16), &config, &mut rng);
        assert_eq!(remap.order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn remap_is_a_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.01);
        let remap = fault_aware_order(&rows(24, 32), &config, &mut rng);
        let mut sorted = remap.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn apply_and_restore_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.02);
        let data = rows(17, 24);
        let remap = fault_aware_order(&data, &config, &mut rng);
        let remapped = remap.apply(&data);
        // Outputs in remapped order scatter back to original positions.
        let fake_outputs: Vec<i64> = remap.order.iter().map(|&o| o as i64 * 10).collect();
        let restored = remap.restore_outputs(&fake_outputs);
        assert_eq!(restored, (0..17).map(|i| i as i64 * 10).collect::<Vec<_>>());
        assert_eq!(remapped.len(), 17);
    }

    #[test]
    fn important_rows_land_in_healthy_groups() {
        // Construct rows where the first 8 have huge weight mass; with
        // heavy faults, the remap should place them in the
        // lowest-scoring group.
        let mut data = rows(16, 32);
        for row in data.iter_mut().take(8) {
            for w in row.iter_mut() {
                *w = 65535;
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.05);
        let remap = fault_aware_order(&data, &config, &mut rng);
        assert_eq!(remap.group_scores.len(), 2);
        let healthiest = if remap.group_scores[0] <= remap.group_scores[1] {
            0
        } else {
            1
        };
        // The 8 heavy rows occupy the healthiest group's slots.
        let slots = &remap.order[healthiest * 8..healthiest * 8 + 8];
        assert!(slots.iter().all(|&r| r < 8), "slots {slots:?}");
    }

    #[test]
    fn small_matrices_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let config = AccelConfig::new(ProtectionScheme::data_aware(9));
        let remap = fault_aware_order(&rows(6, 8), &config, &mut rng);
        assert_eq!(remap.order, (0..6).collect::<Vec<_>>());
    }
}
