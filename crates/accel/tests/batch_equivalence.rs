//! Batched-kernel equivalence: the contract DESIGN.md §2 documents.
//!
//! - Batch-of-1 through `mvm_batch_into` is *bit-identical* to
//!   `mvm_into`, noise and all (a single vector is a batch of one).
//! - With every noise source disabled, a batch of N equals N sequential
//!   single-vector calls for every protection scheme — the batched
//!   path reorders the noise *draws*, never the arithmetic.
//! - Ragged and oversized batches at the `sim::evaluate` level reduce
//!   to the same per-example results.
//!
//! `scripts/check.sh` runs this binary explicitly as the batch smoke
//! gate.

use accel::{AccelConfig, CrossbarProvider, ProtectionScheme};
use neural::{MvmEngineProvider, QuantizedMatrix, QuantizedNetwork, Tensor};

/// All three scheme families the goldens pin.
fn schemes() -> [ProtectionScheme; 3] {
    [
        ProtectionScheme::None,
        ProtectionScheme::Static16,
        ProtectionScheme::data_aware(9),
    ]
}

/// A reproducible 14×96 quantized matrix.
fn matrix() -> QuantizedMatrix {
    let weights: Vec<f32> = (0..14 * 96)
        .map(|i| ((i as f32) * 0.291).cos() * 0.6)
        .collect();
    QuantizedMatrix::from_tensor(&Tensor::from_vec(vec![14, 96], weights))
}

/// `n` input vectors of width 96, all distinct.
fn inputs(n: usize) -> Vec<u16> {
    (0..n as u64 * 96)
        .map(|i| ((i * 2654435761 + 12345) % 65536) as u16)
        .collect()
}

/// A config with every noise source off, so a batch and sequential
/// single-vector calls must agree exactly despite drawing from the RNG
/// in different orders.
fn noiseless(scheme: ProtectionScheme, batch: usize) -> AccelConfig {
    let mut config = AccelConfig::new(scheme).with_batch(batch);
    config.device.rtn_state_probability = 0.0;
    config.device.programming_tolerance = 0.0;
    config.device.fault_rate = 0.0;
    config.device.bandwidth = 0.0;
    config
}

#[test]
fn batch_of_one_is_bit_identical_under_full_noise() {
    let m = matrix();
    let ins = inputs(1);
    for scheme in schemes() {
        let label = scheme.label();
        let config = AccelConfig::new(scheme);
        let mut scalar = CrossbarProvider::new(config.clone(), 99).build(&m);
        let mut batched = CrossbarProvider::new(config, 99).build(&m);
        let mut out_s = Vec::new();
        let mut out_b = Vec::new();
        // Several calls so the RNG streams stay in lockstep across
        // calls, not just on the first one.
        for _ in 0..3 {
            scalar.mvm_into(&ins, &mut out_s);
            batched.mvm_batch_into(&ins, 1, &mut out_b);
            assert_eq!(out_s, out_b, "{label}");
        }
    }
}

#[test]
fn noiseless_batch_of_eight_matches_sequential() {
    let m = matrix();
    let batch = 8;
    let ins = inputs(batch);
    for scheme in schemes() {
        let label = scheme.label();
        let mut seq = CrossbarProvider::new(noiseless(scheme.clone(), 1), 7).build(&m);
        let mut bat = CrossbarProvider::new(noiseless(scheme, batch), 7).build(&m);
        let mut expected = Vec::new();
        let mut one = Vec::new();
        for v in 0..batch {
            seq.mvm_into(&ins[v * 96..(v + 1) * 96], &mut one);
            expected.extend_from_slice(&one);
        }
        let mut got = Vec::new();
        bat.mvm_batch_into(&ins, batch, &mut got);
        assert_eq!(expected, got, "{label}");
    }
}

#[test]
fn engine_accepts_batches_beyond_its_configured_size() {
    // The configured batch pre-sizes scratch; a larger call still
    // computes correctly (it may just allocate once to grow).
    let m = matrix();
    let batch = 6;
    let ins = inputs(batch);
    let mut small = CrossbarProvider::new(noiseless(ProtectionScheme::data_aware(9), 2), 7)
        .build(&m);
    let mut sized = CrossbarProvider::new(noiseless(ProtectionScheme::data_aware(9), batch), 7)
        .build(&m);
    let mut out_small = Vec::new();
    let mut out_sized = Vec::new();
    small.mvm_batch_into(&ins, batch, &mut out_small);
    sized.mvm_batch_into(&ins, batch, &mut out_sized);
    assert_eq!(out_small, out_sized);
}

#[test]
fn evaluate_handles_ragged_and_oversized_batches() {
    use accel::sim::evaluate;
    use rand::SeedableRng;

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    let net = neural::Network::new(vec![
        Box::new(neural::Flatten::new()),
        Box::new(neural::Dense::new(64, 10, &mut rng)),
    ]);
    let qnet = QuantizedNetwork::from_network(&net);
    let n = 5;
    let images = Tensor::from_vec(
        vec![n, 1, 8, 8],
        (0..n * 64).map(|i| ((i % 17) as f32) / 17.0).collect(),
    );
    let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();

    let base = evaluate(&qnet, &images, &labels, &noiseless(ProtectionScheme::None, 1), 3, 1)
        .expect("batch 1");
    // 5 examples: batch 2 leaves a ragged final window of 1; batch 3 a
    // window of 2; batch 9 exceeds the example count entirely.
    for batch in [2usize, 3, 9] {
        let batched = evaluate(
            &qnet,
            &images,
            &labels,
            &noiseless(ProtectionScheme::None, batch),
            3,
            1,
        )
        .expect("batched");
        assert_eq!(base, batched, "batch {batch}");
    }
}
