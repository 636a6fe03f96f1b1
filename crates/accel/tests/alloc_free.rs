//! The allocation sanitizer: proves `CrossbarEngine::mvm_into` performs
//! **zero** heap allocations in steady state, turning PR 1's allocation
//! audit from documentation into an enforced invariant.
//!
//! Runs only under `--features alloc-count` (see `scripts/check.sh`),
//! which installs the counting global allocator below. The measurement
//! protocol per protection scheme:
//!
//! 1. program an engine and run two warm-up MVMs — the first call grows
//!    every scratch buffer to its high-water mark (and `out` to the
//!    output dimension);
//! 2. wrap three further calls in `assert_no_alloc!`, each of which
//!    must not allocate at all.
//!
//! Noise is left at its realistic defaults so the decode path exercises
//! corrections and retries, not just the clean fast path.
//!
//! Programming is not allocation-free, but its footprint is budgeted:
//! a fault-free row costs its conductances and its level masks, and
//! nothing else.

#![cfg(feature = "alloc-count")]

use accel::alloc_count::CountingAllocator;
use accel::{assert_no_alloc, AccelConfig, CrossbarProvider, ProtectionScheme};
use neural::{MvmEngine, MvmEngineProvider, QuantizedMatrix, Tensor};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn quantized(out: usize, inp: usize, seed: u64) -> QuantizedMatrix {
    let data: Vec<f32> = (0..out * inp)
        .map(|i| (((i as u64 * 2654435761 + seed) % 1000) as f32 / 500.0) - 1.0)
        .collect();
    QuantizedMatrix::from_tensor(&Tensor::from_vec(vec![out, inp], data))
}

#[test]
fn counting_allocator_is_live() {
    // Guard against a vacuous sanitizer: if the global allocator were
    // not installed (or the counter broke), every assert_no_alloc!
    // would trivially pass. Prove the counter moves for a real heap
    // allocation first.
    let before = accel::alloc_count::thread_alloc_ops();
    let v: Vec<u64> = Vec::with_capacity(32);
    let after = accel::alloc_count::thread_alloc_ops();
    drop(v);
    assert!(
        after > before,
        "counting allocator not engaged: Vec::with_capacity(32) was not counted"
    );
}

#[test]
fn mvm_into_steady_state_is_allocation_free() {
    // The three schemes the paper's headline figures compare (and the
    // bench baseline tracks): unprotected, static AN, data-aware ABN-9.
    let schemes = [
        ProtectionScheme::None,
        ProtectionScheme::Static16,
        ProtectionScheme::data_aware(9),
    ];
    let m = quantized(12, 128, 42);
    let input: Vec<u16> = (0..128u64)
        .map(|i| ((i * 2654435761) % 65536) as u16)
        .collect();

    for scheme in schemes {
        let label = scheme.label();
        let provider = CrossbarProvider::new(AccelConfig::new(scheme), 1234);
        let mut engine = provider.build(&m);
        let mut out = Vec::new();

        // Warm-up: the first call takes every one-time growth path
        // (scratch high-water marks, the output buffer); the second
        // catches any path the first call happened to skip.
        engine.mvm_into(&input, &mut out);
        engine.mvm_into(&input, &mut out);

        for call in 0..3 {
            assert_no_alloc!(
                format_args!("{label} steady-state mvm_into call {call}"),
                engine.mvm_into(&input, &mut out)
            );
        }
        // The engine still produces the full output vector.
        assert_eq!(out.len(), 12, "{label} output dimension");
    }
}

#[test]
fn mvm_batch_into_steady_state_is_allocation_free() {
    // Same protocol for the batched kernel: an engine whose config
    // declares the batch up front pre-sizes the batch-only scratch
    // (mask planes, conductance planes, trap∩level words) at
    // programming time, so batched steady state allocates nothing
    // either.
    let batch = 8usize;
    let m = quantized(12, 128, 42);
    let input: Vec<u16> = (0..batch as u64 * 128)
        .map(|i| ((i * 2654435761) % 65536) as u16)
        .collect();

    for scheme in [
        ProtectionScheme::None,
        ProtectionScheme::Static16,
        ProtectionScheme::data_aware(9),
    ] {
        let label = scheme.label();
        let provider = CrossbarProvider::new(AccelConfig::new(scheme).with_batch(batch), 1234);
        let mut engine = provider.build(&m);
        let mut out = Vec::new();

        engine.mvm_batch_into(&input, batch, &mut out);
        engine.mvm_batch_into(&input, batch, &mut out);

        for call in 0..3 {
            assert_no_alloc!(
                format_args!("{label} steady-state mvm_batch_into call {call}"),
                engine.mvm_batch_into(&input, batch, &mut out)
            );
        }
        assert_eq!(out.len(), batch * 12, "{label} output dimension");
    }
}

#[test]
fn programming_allocates_two_buffers_per_row() {
    // Two per row (conductances, level masks); the constant covers the
    // row list and the array's per-level tables.
    use rand::SeedableRng;
    use xbar::{CrossbarArray, DeviceParams};

    let params = DeviceParams {
        fault_rate: 0.0,
        ..DeviceParams::default()
    };
    let rows: Vec<Vec<u32>> = (0..69u32)
        .map(|r| (0..128).map(|j| (r + j) % params.levels()).collect())
        .collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    let before = accel::alloc_count::thread_alloc_ops();
    let array = CrossbarArray::program(&rows, &params, &mut rng);
    let ops = accel::alloc_count::thread_alloc_ops() - before;
    assert_eq!(array.row_count(), 69);
    let budget = 2 * 69 + 8;
    assert!(
        ops <= budget,
        "programming 69 rows took {ops} allocating operations (budget {budget})"
    );
}
