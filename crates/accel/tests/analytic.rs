//! Analytic-vs-Monte-Carlo cross-validation contract (DESIGN.md §11).
//!
//! - The analytic fast path agrees with the Monte-Carlo harness within
//!   a *pinned* tolerance on a seeded grid cell per scheme family and
//!   fault regime.  `BENCH_analytic.json` records the measured
//!   agreement on the full Fig 10/11 smoke grid; this test pins the
//!   contract the recorded numbers must keep satisfying.
//! - Averaging Monte-Carlo runs over more seeds converges toward the
//!   analytic expectation (the analytic result is the noise-marginal
//!   the sampler estimates).
//! - The analytic path refuses a configuration outside its envelope.
//! - Flip rate is monotone in the stuck-at fault rate (property test).

use accel::analytic;
use accel::{AccelConfig, AccelError, ProtectionScheme};
use neural::{Dense, Network, QuantizedNetwork, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Agreement tolerance the cross-validation must keep. The smoke grid
/// recorded in `BENCH_analytic.json` currently agrees to 0.000; the pin
/// leaves headroom for one 24-sample Monte-Carlo flip (1/24 ≈ 0.042).
const TOLERANCE: f64 = 0.05;

/// A seeded 200→64 classification problem, large enough to exercise
/// multi-chunk mapping (200 inputs > 128 columns) and partial tail
/// stacks (64 outputs across 8-operand groups).
fn problem() -> (QuantizedNetwork, Tensor, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let net = Network::new(vec![Box::new(Dense::new(200, 64, &mut rng))]);
    let qnet = QuantizedNetwork::from_network(&net);
    let n = 24;
    let images = Tensor::from_vec(
        vec![n, 200],
        (0..n * 200)
            .map(|i| ((i * 37) % 101) as f32 / 101.0)
            .collect(),
    );
    let labels: Vec<usize> = (0..n).map(|i| i % 64).collect();
    (qnet, images, labels)
}

fn schemes() -> [ProtectionScheme; 3] {
    [
        ProtectionScheme::None,
        ProtectionScheme::Static16,
        ProtectionScheme::data_aware(9),
    ]
}

#[test]
fn analytic_agrees_with_mc_within_pinned_tolerance() {
    let (qnet, images, labels) = problem();
    for scheme in schemes() {
        for fault in [0.0, 1e-3] {
            let config = AccelConfig::new(scheme.clone()).with_fault_rate(fault);
            let mc = accel::sim::evaluate(&qnet, &images, &labels, &config, 7, 1)
                .expect("mc evaluation");
            let an = analytic::predict(&qnet, &images, &labels, &config).expect("analytic");
            let d_mis = (mc.misclassification - an.misclassification).abs();
            let d_flip = (mc.flip_rate - an.flip_rate).abs();
            assert!(
                d_mis <= TOLERANCE && d_flip <= TOLERANCE,
                "{} fault {fault:e}: |Δmis| {d_mis:.4}, |Δflip| {d_flip:.4} \
                 exceed pinned tolerance {TOLERANCE}",
                config.scheme.label(),
            );
        }
    }
}

#[test]
fn mc_seed_average_converges_toward_analytic() {
    let (qnet, images, labels) = problem();
    // RTN + faults on: the Monte-Carlo estimate genuinely fluctuates
    // per seed, so averaging over more seeds must tighten it.
    let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(1e-3);
    let an = analytic::predict(&qnet, &images, &labels, &config).expect("analytic");
    let mean_flip = |seeds: std::ops::Range<u64>| -> f64 {
        let n = (seeds.end - seeds.start) as f64;
        seeds
            .map(|s| {
                accel::sim::evaluate(&qnet, &images, &labels, &config, s, 1)
                    .expect("mc")
                    .flip_rate
            })
            .sum::<f64>()
            / n
    };
    let coarse = (mean_flip(0..2) - an.flip_rate).abs();
    let fine = (mean_flip(0..12) - an.flip_rate).abs();
    assert!(
        fine <= coarse + 0.01,
        "12-seed MC average (|Δ| {fine:.4}) should sit at least as close to the \
         analytic expectation as the 2-seed average (|Δ| {coarse:.4})"
    );
}

#[test]
fn forced_analytic_outside_envelope_is_refused() {
    let (qnet, images, labels) = problem();
    let mut config = AccelConfig::new(ProtectionScheme::data_aware(9));
    config.max_retries = 1;
    assert!(matches!(
        analytic::predict_threaded(&qnet, &images, &labels, &config, 1),
        Err(AccelError::InvalidConfig(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Raising the stuck-at fault rate never lowers the predicted flip
    /// rate (more broken cells can only damage more predictions).
    #[test]
    fn flip_rate_is_monotone_in_fault_rate(
        lo in 0.0f64..5e-3,
        scale in 1.0f64..20.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = Network::new(vec![Box::new(Dense::new(24, 8, &mut rng))]);
        let qnet = QuantizedNetwork::from_network(&net);
        let images =
            Tensor::from_vec(vec![4, 24], (0..96).map(|i| (i % 9) as f32 / 9.0).collect());
        let labels = vec![0usize, 1, 2, 3];
        let hi = lo * scale;
        let flip = |fault: f64| {
            let config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(fault);
            analytic::predict(&qnet, &images, &labels, &config)
                .expect("predict")
                .flip_rate
        };
        prop_assert!(flip(hi) >= flip(lo) - 1e-12);
    }
}
