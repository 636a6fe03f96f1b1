//! Data-aware error-candidate enumeration (Figure 8 of the paper).
//!
//! Given the per-physical-row error probabilities of a stored matrix,
//! this module enumerates candidate error events — single rows and
//! combinations of 2, 3 or 4 rows, each with a sign pattern — computes
//! each event's probability, and scores it by
//! `probability × 2^(bit position of the most significant member)`.
//! The sorted list drives the greedy syndrome allocation in
//! [`data_aware`](crate::data_aware).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{RowError, RowErrorModel, Syndrome, SyndromeTerm};

/// A candidate error event: a concrete syndrome with its estimated
/// probability and allocation score.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorCandidate {
    /// The additive syndrome the event produces.
    pub syndrome: Syndrome,
    /// Estimated probability of the event.
    pub probability: f64,
    /// Allocation priority: `probability × 2^(msb bit weight)`.
    pub score: f64,
    /// Whether the event involves a stuck-at row.
    pub involves_stuck: bool,
}

/// Tuning knobs for error-list enumeration.
///
/// Enumerating every sign pattern of every 4-row combination of a
/// 140-row group is infeasible (and pointless — the table holds at most
/// `A − 1` entries), so enumeration considers only the `top_rows` most
/// error-prone rows for multi-row combinations and prunes events whose
/// probability falls below `min_probability`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorListConfig {
    /// Maximum number of rows participating in one error event (the
    /// paper uses 4, matching the sparse 4-index syndrome encoding).
    pub max_rows_per_event: usize,
    /// Only the `top_rows` highest-probability rows are considered for
    /// multi-row combinations (single-row events always cover all rows).
    pub top_rows: usize,
    /// Events with probability below this bound are pruned.
    pub min_probability: f64,
    /// Hard cap on the number of candidates returned.
    pub max_candidates: usize,
}

impl Default for ErrorListConfig {
    fn default() -> ErrorListConfig {
        ErrorListConfig {
            max_rows_per_event: 4,
            top_rows: 16,
            min_probability: 1e-12,
            max_candidates: 8192,
        }
    }
}

/// The sorted list of candidate error events for one row-error model.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorList {
    candidates: Vec<ErrorCandidate>,
}

impl ErrorList {
    /// Enumerates and scores error candidates for `model`.
    ///
    /// Rows flagged [`stuck`](crate::RowError::stuck) contribute
    /// deterministic errors; events involving them are marked so the
    /// split-table allocator can place them in the stuck-aware half.
    ///
    /// The list is the ranking the table builder allocates from, with
    /// every event's [`Syndrome`] materialised.
    ///
    /// # Examples
    ///
    /// ```
    /// use ancode::{ErrorList, ErrorListConfig, RowError, RowErrorModel};
    ///
    /// let model = RowErrorModel::new(
    ///     vec![RowError::symmetric(0, 0.05), RowError::symmetric(4, 0.20)],
    ///     8,
    /// );
    /// let list = ErrorList::build(&model, &ErrorListConfig::default());
    /// // The MSB-row error outranks the LSB-row error: higher probability
    /// // *and* higher bit weight.
    /// assert_eq!(list.candidates()[0].syndrome.msb(), 4);
    /// ```
    pub fn build(model: &RowErrorModel, config: &ErrorListConfig) -> ErrorList {
        ErrorList {
            candidates: rank(model, config).map(|e| e.candidate()).collect(),
        }
    }

    /// The candidates, sorted by descending score.
    pub fn candidates(&self) -> &[ErrorCandidate] {
        &self.candidates
    }

    /// Iterates over candidates in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &ErrorCandidate> {
        self.candidates.iter()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// One candidate error event before its [`Syndrome`] is built: the
/// rows it touches and the direction each errs.
///
/// The table builder examines only the head of the ranking (a table
/// holds at most `A − 1` events), so it ranks these `Copy` records and
/// materialises a syndrome only for an event it keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RankedEvent {
    /// Estimated probability of the event.
    pub(crate) probability: f64,
    /// Allocation priority: `probability × 2^(msb bit weight)`.
    pub(crate) score: f64,
    /// Whether the event involves a stuck-at row.
    pub(crate) involves_stuck: bool,
    /// Bit positions of the rows, ascending; `bits[..len]` are used.
    bits: [u32; 4],
    len: usize,
    /// Bit `i` set: row `i` errs low (`−1`); clear: high (`+1`).
    low: u8,
}

impl RankedEvent {
    /// `(bit, errs low)` for each row, by ascending bit.
    fn terms(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.bits[..self.len]
            .iter()
            .enumerate()
            .map(|(i, &bit)| (bit, self.low & (1 << i) != 0))
    }

    /// The event's syndrome.
    pub(crate) fn syndrome(&self) -> Syndrome {
        Syndrome::new(
            self.terms()
                .map(|(bit, low)| SyndromeTerm::new(bit, if low { -1 } else { 1 }))
                .collect(),
        )
    }

    /// The event's syndrome residue modulo `a`, i.e.
    /// `Σ ±(2^bit mod a) mod a` with `pow2[bit] = 2^bit mod a`: the
    /// residue of [`syndrome`](Self::syndrome)`.value()`, since taking
    /// residues commutes with the signed sum.
    pub(crate) fn residue(&self, pow2: &[u64; 256], a: u64) -> u64 {
        self.terms().fold(0, |acc, (bit, low)| {
            // lint: allow(lossy_cast, u32 to usize widens on every supported target)
            let r = pow2[bit as usize];
            add_mod(acc, if low && r != 0 { a - r } else { r }, a)
        })
    }

    fn candidate(&self) -> ErrorCandidate {
        ErrorCandidate {
            syndrome: self.syndrome(),
            probability: self.probability,
            score: self.score,
            involves_stuck: self.involves_stuck,
        }
    }
}

/// `2^bit mod a` for every bit position of a 256-bit word.
pub(crate) fn pow2_residues(a: u64) -> [u64; 256] {
    let mut out = [0; 256];
    let mut r = 1 % a;
    for slot in &mut out {
        *slot = r;
        r = add_mod(r, r, a);
    }
    out
}

/// `(x + y) mod a` for `x, y < a`, without overflow.
fn add_mod(x: u64, y: u64, a: u64) -> u64 {
    if x >= a - y {
        x - (a - y)
    } else {
        x + y
    }
}

/// The candidate events of one model in allocation order: descending
/// score, ties broken by ascending msb and then by enumeration order
/// (single rows by bit, then 2-, 3- and 4-row combinations of the most
/// error-prone rows), at most `max_candidates` of them.
///
/// The order is produced lazily from a heap, so a table that fills
/// after a few hundred events never orders the other thousands.
pub(crate) struct Ranking {
    events: Vec<RankedEvent>,
    /// `Reverse((!score_bits, msb, index))`: the least key is the next
    /// event. Scores are finite and non-negative, and for those the IEEE
    /// bit patterns order like the values (`+ 0.0` folds a `−0.0` into
    /// `+0.0`), so `!bits` puts the highest score first. The index makes
    /// every key distinct, so the order is exactly the stable sort by
    /// (descending score, ascending msb).
    heap: BinaryHeap<Reverse<(u64, u32, usize)>>,
    remaining: usize,
}

impl Iterator for Ranking {
    type Item = RankedEvent;

    fn next(&mut self) -> Option<RankedEvent> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let Reverse((_, _, index)) = self.heap.pop()?;
        self.events.get(index).copied()
    }
}

/// Enumerates and scores the candidate events of `model`.
pub(crate) fn rank(model: &RowErrorModel, config: &ErrorListConfig) -> Ranking {
    let mut events = Vec::new();

    // Single-row events over every row.
    for row in model.rows() {
        push_row_events(&mut events, model, &[*row], config);
    }

    // Multi-row combinations over the most error-prone rows.
    let mut ranked: Vec<RowError> = model.rows().to_vec();
    ranked.sort_by(|a, b| {
        b.p_any()
            .partial_cmp(&a.p_any())
            .expect("probabilities are finite")
    });
    ranked.truncate(config.top_rows);
    ranked.sort_by_key(|r| r.lsb_bit);

    let k_max = config.max_rows_per_event.min(ranked.len()).min(4);
    for k in 2..=k_max {
        let mut combo = Vec::with_capacity(k);
        combine(&ranked, k, 0, &mut combo, &mut |rows| {
            push_row_events(&mut events, model, rows, config);
        });
    }

    let heap = events
        .iter()
        .enumerate()
        .map(|(index, e)| {
            debug_assert!(e.score >= 0.0 && e.score.is_finite(), "score {}", e.score);
            let msb = e.bits[e.len - 1];
            Reverse((!(e.score + 0.0).to_bits(), msb, index))
        })
        .collect();
    Ranking {
        events,
        heap,
        remaining: config.max_candidates,
    }
}

/// Emits all sign patterns for one row combination (at most 4 rows,
/// sorted by bit).
fn push_row_events(
    out: &mut Vec<RankedEvent>,
    model: &RowErrorModel,
    rows: &[RowError],
    config: &ErrorListConfig,
) {
    let mut bits = [0; 4];
    for (bit, row) in bits.iter_mut().zip(rows) {
        *bit = row.lsb_bit;
    }
    let involves_stuck = rows.iter().any(|r| r.stuck);
    let weight = model.bit_weight(bits[rows.len() - 1]);
    // Each row errs high (+1, probability p_high) or low (−1, p_low);
    // enumerate every sign assignment with nonzero probability.
    for low in 0..(1u8 << rows.len()) {
        let mut probability = 1.0;
        for (i, row) in rows.iter().enumerate() {
            let high = low & (1 << i) == 0;
            // A stuck cell errs deterministically when driven; treat its
            // activity factor as certain for ranking purposes.
            probability *= if row.stuck {
                if high {
                    1.0
                } else {
                    0.0
                }
            } else if high {
                row.p_high
            } else {
                row.p_low
            };
        }
        if probability < config.min_probability {
            continue;
        }
        out.push(RankedEvent {
            probability,
            score: probability * weight,
            involves_stuck,
            bits,
            len: rows.len(),
            low,
        });
    }
}

/// Visits every `k`-combination of `rows[start..]`.
fn combine<F: FnMut(&[RowError])>(
    rows: &[RowError],
    k: usize,
    start: usize,
    combo: &mut Vec<RowError>,
    visit: &mut F,
) {
    if combo.len() == k {
        visit(combo);
        return;
    }
    let remaining = k - combo.len();
    for i in start..=rows.len().saturating_sub(remaining) {
        combo.push(rows[i]);
        combine(rows, k, i + 1, combo, visit);
        combo.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_model() -> RowErrorModel {
        RowErrorModel::new(
            vec![
                RowError {
                    lsb_bit: 0,
                    p_high: 0.10,
                    p_low: 0.01,
                    stuck: false,
                },
                RowError {
                    lsb_bit: 2,
                    p_high: 0.20,
                    p_low: 0.02,
                    stuck: false,
                },
            ],
            8,
        )
    }

    #[test]
    fn single_row_events_cover_both_signs() {
        let list = ErrorList::build(&simple_model(), &ErrorListConfig::default());
        let values: Vec<i128> = list
            .iter()
            .map(|c| c.syndrome.value().to_i128().unwrap())
            .collect();
        for v in [1, -1, 4, -4] {
            assert!(values.contains(&v), "missing syndrome {v}");
        }
    }

    #[test]
    fn pair_probability_is_product() {
        let list = ErrorList::build(&simple_model(), &ErrorListConfig::default());
        // +1 at bit 0 and +1 at bit 2 → syndrome +5, probability .1 × .2.
        let pair = list
            .iter()
            .find(|c| c.syndrome.value().to_i128() == Some(5))
            .expect("pair event present");
        assert!((pair.probability - 0.02).abs() < 1e-12);
    }

    #[test]
    fn score_weights_msb_position() {
        let list = ErrorList::build(&simple_model(), &ErrorListConfig::default());
        let at2 = list
            .iter()
            .find(|c| c.syndrome.value().to_i128() == Some(4))
            .unwrap();
        // probability 0.2 × weight 2^2.
        assert!((at2.score - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sorted_descending_by_score() {
        let list = ErrorList::build(&simple_model(), &ErrorListConfig::default());
        for pair in list.candidates().windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        assert!(!list.is_empty());
    }

    #[test]
    fn pruning_respects_min_probability() {
        let config = ErrorListConfig {
            min_probability: 0.05,
            ..ErrorListConfig::default()
        };
        let list = ErrorList::build(&simple_model(), &config);
        assert!(list.iter().all(|c| c.probability >= 0.05));
        // Low-probability low-sign events are gone.
        assert!(list
            .iter()
            .all(|c| c.syndrome.value().to_i128() != Some(-1)));
    }

    #[test]
    fn stuck_rows_marked_and_deterministic() {
        let model = RowErrorModel::new(
            vec![
                RowError {
                    lsb_bit: 0,
                    p_high: 0.1,
                    p_low: 0.0,
                    stuck: false,
                },
                RowError {
                    lsb_bit: 4,
                    p_high: 0.0,
                    p_low: 0.0,
                    stuck: true,
                },
            ],
            8,
        );
        let list = ErrorList::build(&model, &ErrorListConfig::default());
        let stuck_single = list
            .iter()
            .find(|c| c.syndrome.value().to_i128() == Some(16))
            .expect("stuck row event present");
        assert!(stuck_single.involves_stuck);
        assert!((stuck_single.probability - 1.0).abs() < 1e-12);
        // Stuck row appearing with the transient row.
        let pair = list
            .iter()
            .find(|c| c.syndrome.value().to_i128() == Some(17))
            .expect("pair with stuck row present");
        assert!(pair.involves_stuck);
        assert!((pair.probability - 0.1).abs() < 1e-12);
    }

    #[test]
    fn max_candidates_truncates() {
        let config = ErrorListConfig {
            max_candidates: 3,
            ..ErrorListConfig::default()
        };
        let list = ErrorList::build(&simple_model(), &config);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn four_row_combinations_present() {
        let rows = (0..5)
            .map(|i| RowError::symmetric(i * 2, 0.3))
            .collect::<Vec<_>>();
        let model = RowErrorModel::new(rows, 16);
        let list = ErrorList::build(&model, &ErrorListConfig::default());
        assert!(list.iter().any(|c| c.syndrome.terms().len() == 4));
        // But never more than 4 rows per event.
        assert!(list.iter().all(|c| c.syndrome.terms().len() <= 4));
    }
}
