//! Microbenchmarks for the arithmetic-code hot paths: encode, the three
//! decode outcomes, data-aware table construction, and the A search.

use ancode::data_aware::{build_table, DataAwareConfig};
use ancode::{AbnCode, CorrectionPolicy, RowError, RowErrorModel};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wideint::{I256, U256};

fn model(rows: u32) -> RowErrorModel {
    RowErrorModel::new(
        (0..rows)
            .map(|r| RowError::symmetric(r * 2, 0.01 + 0.002 * r as f64))
            .collect(),
        16,
    )
}

fn bench_codes(c: &mut Criterion) {
    let code = AbnCode::classic(167, 3, 128).unwrap();
    let x = U256::from(0x1234_5678_9ABC_DEF0u64) << 60u32;
    let clean = code.encode(x).unwrap();
    let errored = I256::from(clean) + I256::from_i128(1 << 20);

    c.bench_function("encode_128b", |b| {
        b.iter(|| code.encode(black_box(x)).unwrap())
    });
    c.bench_function("decode_clean_128b", |b| {
        b.iter(|| code.decode(black_box(clean.into()), CorrectionPolicy::Revert))
    });
    c.bench_function("decode_errored_128b", |b| {
        b.iter(|| code.decode(black_box(errored), CorrectionPolicy::Revert))
    });

    let m = model(34);
    let config = DataAwareConfig::default();
    c.bench_function("data_aware_table_a167", |b| {
        b.iter(|| build_table(167, black_box(&m), &config).unwrap())
    });

    c.bench_function("a_search_hardware_5", |b| {
        b.iter(|| ancode::search::select_a_hardware(9, 3, 128, &config, |_| Ok(model(34))).unwrap())
    });

    c.bench_function("min_single_error_a_39b", |b| {
        b.iter(|| ancode::min_single_error_a(black_box(39)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_codes
}
criterion_main!(benches);
