//! End-to-end MVM throughput of the accelerator engine per protection
//! scheme (one 16×128 matrix, 16-bit inputs, 2-bit cells), single-vector
//! and batched (`_b8`/`_b32` rows measure one whole batched pass; divide
//! by the batch for per-vector cost).

use accel::{AccelConfig, CrossbarProvider, ProtectionScheme};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use neural::{MvmEngineProvider, QuantizedMatrix, Tensor};

fn bench_engine(c: &mut Criterion) {
    let weights: Vec<f32> = (0..16 * 128)
        .map(|i| ((i as f32) * 0.173).sin() * 0.7)
        .collect();
    let matrix = QuantizedMatrix::from_tensor(&Tensor::from_vec(vec![16, 128], weights));
    let input: Vec<u16> = (0..128).map(|j| (j as u16).wrapping_mul(517)).collect();

    for scheme in [
        ProtectionScheme::None,
        ProtectionScheme::Static16,
        ProtectionScheme::data_aware(9),
    ] {
        let label = scheme.label();
        let config = AccelConfig::new(scheme).with_fault_rate(0.0);
        let provider = CrossbarProvider::new(config, 5);
        let mut engine = provider.build(&matrix);
        c.bench_function(&format!("mvm_16x128_{label}"), |b| {
            b.iter(|| engine.mvm(black_box(&input)))
        });
    }

    // Batched passes: one engine call evaluates `batch` distinct input
    // vectors, amortizing the RTN snapshot and row read-outs per stack.
    for batch in [8usize, 32] {
        let batch_input: Vec<u16> = (0..batch)
            .flat_map(|v| {
                (0..128).map(move |j| {
                    (j as u16)
                        .wrapping_mul(517)
                        .wrapping_add((v as u16).wrapping_mul(8191))
                })
            })
            .collect();
        for scheme in [
            ProtectionScheme::None,
            ProtectionScheme::Static16,
            ProtectionScheme::data_aware(9),
        ] {
            let label = scheme.label();
            let config = AccelConfig::new(scheme)
                .with_fault_rate(0.0)
                .with_batch(batch);
            let provider = CrossbarProvider::new(config, 5);
            let mut engine = provider.build(&matrix);
            let mut out = Vec::new();
            c.bench_function(&format!("mvm_16x128_{label}_b{batch}"), |b| {
                b.iter(|| engine.mvm_batch_into(black_box(&batch_input), batch, &mut out))
            });
        }
    }

    // Mapping (programming + A search) cost.
    let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.0);
    c.bench_function("program_and_search_16x128", |b| {
        b.iter(|| {
            let provider = CrossbarProvider::new(config.clone(), 6);
            provider.build(black_box(&matrix))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_engine
}
criterion_main!(benches);
