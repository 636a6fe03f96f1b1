//! The table builder against a reference copy of the allocating
//! enumeration it replaced.
//!
//! `reference_list` and `reference_table` are the original
//! `ErrorList::build` and `build_table`: every candidate event becomes
//! a heap-allocated [`Syndrome`], the list is stable-sorted by
//! descending score and ascending msb, and the table tries candidates
//! in that order through `CorrectionTable::try_insert`. The production
//! builder ranks compact events and tests residues in `u64`; it must
//! produce the same list and the same tables, down to the bits of
//! `covered_probability`.

use ancode::data_aware::{build_table, DataAwareConfig};
use ancode::{
    AnCode, CorrectionTable, ErrorCandidate, ErrorList, ErrorListConfig, RowError, RowErrorModel,
    Syndrome, SyndromeTerm, TableHalf,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The enumeration as it was: single rows, then 2-, 3- and 4-row
/// combinations of the `top_rows` most error-prone rows, each sign
/// pattern as its own allocated syndrome.
fn reference_list(model: &RowErrorModel, config: &ErrorListConfig) -> Vec<ErrorCandidate> {
    let mut candidates = Vec::new();
    for row in model.rows() {
        push_row_events(&mut candidates, model, &[*row], config);
    }
    let mut ranked: Vec<RowError> = model.rows().to_vec();
    ranked.sort_by(|a, b| b.p_any().partial_cmp(&a.p_any()).unwrap());
    ranked.truncate(config.top_rows);
    ranked.sort_by_key(|r| r.lsb_bit);
    let k_max = config.max_rows_per_event.min(ranked.len()).min(4);
    for k in 2..=k_max {
        let mut combo = Vec::with_capacity(k);
        combine(&ranked, k, 0, &mut combo, &mut |rows| {
            push_row_events(&mut candidates, model, rows, config);
        });
    }
    candidates.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then_with(|| a.syndrome.msb().cmp(&b.syndrome.msb()))
    });
    candidates.truncate(config.max_candidates);
    candidates
}

fn push_row_events(
    out: &mut Vec<ErrorCandidate>,
    model: &RowErrorModel,
    rows: &[RowError],
    config: &ErrorListConfig,
) {
    let n = rows.len();
    for pattern in 0..(1u32 << n) {
        let mut probability = 1.0;
        let mut terms = Vec::with_capacity(n);
        let mut involves_stuck = false;
        for (i, row) in rows.iter().enumerate() {
            let high = pattern & (1 << i) == 0;
            let p = if row.stuck {
                involves_stuck = true;
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
            probability *= p;
            terms.push(SyndromeTerm::new(row.lsb_bit, if high { 1 } else { -1 }));
        }
        if probability < config.min_probability {
            continue;
        }
        let syndrome = Syndrome::new(terms);
        let score = probability * model.bit_weight(syndrome.msb());
        out.push(ErrorCandidate {
            syndrome,
            probability,
            score,
            involves_stuck,
        });
    }
}

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

/// The `try_insert` loop as it was, over a reference list.
fn reference_table(a: u64, model: &RowErrorModel, list: &[ErrorCandidate]) -> CorrectionTable {
    let code = AnCode::new(a).unwrap();
    let mut table = CorrectionTable::new(a).unwrap();
    let has_stuck = model.stuck_rows().next().is_some();
    let capacity = a as usize - 1;
    let (stuck_budget, transient_budget) = if has_stuck {
        (capacity / 2, capacity - capacity / 2)
    } else {
        (0, capacity)
    };
    let mut stuck_used = 0;
    let mut transient_used = 0;
    for candidate in list {
        let (half, used, budget) = if candidate.involves_stuck {
            (TableHalf::StuckAware, &mut stuck_used, stuck_budget)
        } else {
            (TableHalf::Transient, &mut transient_used, transient_budget)
        };
        if *used >= budget {
            continue;
        }
        if table
            .try_insert(
                &code,
                candidate.syndrome.clone(),
                candidate.probability,
                half,
            )
            .is_ok()
        {
            *used += 1;
        }
        if stuck_used >= stuck_budget && transient_used >= transient_budget {
            break;
        }
    }
    table
}

/// The enumeration bounds `accel::mapping::mapping_error_list_config()`
/// uses (`ancode` cannot depend on `accel`).
fn mapping_config() -> ErrorListConfig {
    ErrorListConfig {
        max_rows_per_event: 3,
        top_rows: 10,
        min_probability: 1e-9,
        max_candidates: 2048,
    }
}

/// One row probability: zero, an exact power of two (so products and
/// scores tie exactly), a value near the pruning bounds, or a generic
/// one.
fn probability(rng: &mut ChaCha8Rng) -> f64 {
    match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 | 2 => (-f64::from(rng.gen_range(1..6u32))).exp2(),
        3 => rng.gen::<f64>() * 1e-8,
        _ => rng.gen::<f64>() * 0.2,
    }
}

/// A random model: 1–140 rows at the LSB spacing of 1–5-bit cells
/// (kept below bit 256), some stuck rows, zero probabilities and exact
/// ties, weighted within 8-, 16- or 137-bit operands.
fn random_model(rng: &mut ChaCha8Rng) -> RowErrorModel {
    let cell_bits = rng.gen_range(1..=5u32);
    let max_rows = 140.min(255 / cell_bits + 1);
    let rows = rng.gen_range(1..=max_rows);
    let stuck_rate = [0.0, 0.0, 0.03, 0.2][rng.gen_range(0..4usize)];
    let symmetric = rng.gen::<bool>();
    let rows = (0..rows)
        .map(|r| {
            let p_high = probability(rng);
            let p_low = if symmetric { p_high } else { probability(rng) };
            RowError {
                lsb_bit: r * cell_bits,
                p_high,
                p_low,
                stuck: rng.gen::<f64>() < stuck_rate,
            }
        })
        .collect();
    RowErrorModel::new(rows, [8, 16, 137][rng.gen_range(0..3usize)])
}

#[test]
fn lazy_builder_reproduces_the_allocating_builder() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7AB1E);
    let configs = [
        ErrorListConfig::default(),
        mapping_config(),
        // Zero-probability events survive a zero bound.
        ErrorListConfig {
            min_probability: 0.0,
            ..mapping_config()
        },
        // Heavy pruning and truncation below the table capacity.
        ErrorListConfig {
            min_probability: 1e-3,
            max_candidates: 40,
            ..ErrorListConfig::default()
        },
        ErrorListConfig {
            max_candidates: 150,
            ..mapping_config()
        },
    ];
    let a_values = [3u64, 5, 7, 9, 11, 13, 15, 19, 41, 79, 167, 337];
    // Besides the random models, one where every row has the same
    // probability within an 8-bit operand: bits 0, 8 and 16 weigh the
    // same, so many events tie on score, and among equal scores and
    // msbs the enumeration order decides.
    let ties = RowErrorModel::new(
        (0..6).map(|r| RowError::symmetric(r * 4, 0.25)).collect(),
        8,
    );
    let models = std::iter::once(ties).chain((0..90).map(|_| random_model(&mut rng)));
    let mut tables = 0;
    let mut stuck_tables = 0;
    for (trial, model) in models.enumerate() {
        for config in &configs {
            let want = reference_list(&model, config);
            let got = ErrorList::build(&model, config);
            assert_eq!(got.candidates(), &want[..], "trial {trial} list {config:?}");
            let da = DataAwareConfig {
                error_list: *config,
            };
            for &a in &a_values {
                let reference = reference_table(a, &model, &want);
                let table = build_table(a, &model, &da).unwrap();
                assert_eq!(table, reference, "trial {trial} a {a} {config:?}");
                assert_eq!(
                    table.covered_probability().to_bits(),
                    reference.covered_probability().to_bits(),
                    "trial {trial} a {a}"
                );
                tables += 1;
                if table.half_sizes().1 > 0 {
                    stuck_tables += 1;
                }
            }
        }
    }
    assert_eq!(tables, 91 * 5 * 12);
    assert!(stuck_tables > 500, "only {stuck_tables} split tables");
}
