//! Monte-Carlo accuracy evaluation (§VII of the paper).
//!
//! The paper evaluates each configuration by running inference over test
//! examples on the noisy accelerator and reporting the misclassification
//! rate. This module does the same, fanning the test set out across
//! threads; each thread programs its own accelerator instance (an
//! independently fabricated chip) from a deterministic seed.
//!
//! Internally the module is split along the scheduling seam:
//! [`worker`](self) holds the pure per-shard evaluation function (a
//! shard is a pure function of `(seed, sample range, config)`), while
//! the scheduler owns thread fan-out, retry, and graceful degradation.
//!
//! # Crash safety
//!
//! Workers run under [`std::panic::catch_unwind`]. A failing shard is
//! retried from its original seed — a shard is a pure function of
//! `(seed, sample range, config)`, so a retry reproduces the original
//! draw sequence bit-for-bit and a successful retry yields results
//! identical to a run that never failed. The failure envelope is
//! configurable on [`AccelConfig`]:
//!
//! - `shard_retries` bounds the seed-stable retries per shard (default
//!   1, the classic single retry);
//! - `watchdog_ns` sets a deadline on each shard's evaluation loop
//!   (armed after crossbar programming, where the cooperative checks
//!   live): a shard that exceeds it aborts at the next sample boundary
//!   and is retried like a panic — a fired watchdog only costs a
//!   retry, never changes results;
//! - `max_lost_shards` opts into graceful degradation: shards that
//!   exhaust their retries are dropped and recorded as [`ShardGap`]s
//!   (rates then cover only the evaluated samples) instead of failing
//!   the run with [`AccelError::WorkerPanic`];
//! - `shard_chaos` injects deterministic panics/stalls mid-shard
//!   ([`chaos::ShardChaos`]) so all of the above is testable.

mod scheduler;
mod worker;

use serde::{Deserialize, Serialize};

#[allow(unused_imports)] // referenced by the module docs above
use crate::{AccelConfig, AccelError};
use crate::DecodeStats;

pub use scheduler::{evaluate, evaluate_with_model};

/// A shard dropped under graceful degradation: its sample range was
/// never evaluated and is recorded explicitly rather than silently
/// folded into the rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardGap {
    /// Index of the dropped shard (worker thread).
    pub shard: u64,
    /// First sample index of the unevaluated range.
    pub lo: u64,
    /// One past the last sample index of the unevaluated range.
    pub hi: u64,
}

/// The outcome of one accuracy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Top-1 misclassification rate (over the evaluated samples).
    pub misclassification: f64,
    /// Top-5 misclassification rate (1.0-capped; equals top-1 for tasks
    /// with ≤ 5 classes).
    pub top5_misclassification: f64,
    /// Fraction of predictions that differ from the *exact fixed-point*
    /// result — a low-variance measure of accelerator-induced damage
    /// (zero when the analog path is error-free, regardless of how hard
    /// the task is).
    pub flip_rate: f64,
    /// Number of requested examples (evaluated = `samples -
    /// lost_samples`).
    pub samples: usize,
    /// Samples dropped with lost shards under graceful degradation
    /// (`max_lost_shards`); 0 unless degradation was opted into.
    pub lost_samples: usize,
    /// The dropped shards, as explicit unevaluated sample ranges.
    /// Empty in a fault-free or strict run.
    pub gaps: Vec<ShardGap>,
    /// Aggregate ECU statistics over the run.
    pub stats: DecodeStats,
}

#[cfg(test)]
mod tests {
    use super::worker::top_k_into;
    use super::*;
    use crate::{AccelConfig, ProtectionScheme};
    use neural::{models, QuantizedNetwork, Tensor};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A tiny trained network and test set, shared by the tests.
    fn tiny_problem() -> (QuantizedNetwork, Tensor, Vec<usize>) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = models::mlp2(&mut rng);
        let mut train = neural::data::digits(400, 1);
        neural::data::shuffle(&mut train, 2);
        for _ in 0..5 {
            net.train_epoch(&train.images, &train.labels, 32, 0.1);
        }
        let test = neural::data::digits(20, 99);
        let qnet = QuantizedNetwork::from_network(&net);
        (qnet, test.images, test.labels)
    }

    #[test]
    fn noiseless_accelerator_matches_software() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::None);
        config.device.rtn_state_probability = 0.0;
        config.device.programming_tolerance = 0.0;
        config.device.fault_rate = 0.0;
        config.device.bandwidth = 0.0;
        let result = evaluate(&qnet, &images, &labels, &config, 3, 2).expect("evaluate");
        // Noise-free fixed point: identical predictions to the exact
        // fixed-point engine.
        let mut exact_engines = qnet.build_engines(&neural::ExactProvider);
        let mut exact_errors = 0;
        let per = images.len() / labels.len();
        for (i, &label) in labels.iter().enumerate() {
            let p = qnet.predict(&images.data()[i * per..(i + 1) * per], &mut exact_engines);
            if p != label {
                exact_errors += 1;
            }
        }
        assert_eq!(
            result.misclassification,
            exact_errors as f64 / labels.len() as f64
        );
        assert!(result.top5_misclassification <= result.misclassification);
        assert_eq!(result.flip_rate, 0.0);
        assert_eq!(result.samples, 20);
    }

    #[test]
    fn multithreaded_matches_single_thread_counts() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::None);
        config.device.rtn_state_probability = 0.0;
        config.device.programming_tolerance = 0.0;
        config.device.fault_rate = 0.0;
        config.device.bandwidth = 0.0;
        // Noise-free: results are deterministic, so thread count must not
        // change them.
        let single = evaluate(&qnet, &images, &labels, &config, 3, 1).expect("evaluate");
        for threads in [2, 4, 7] {
            let multi = evaluate(&qnet, &images, &labels, &config, 3, threads).expect("evaluate");
            assert_eq!(single.misclassification, multi.misclassification, "{threads} threads");
            assert_eq!(
                single.top5_misclassification, multi.top5_misclassification,
                "{threads} threads"
            );
            assert_eq!(single.flip_rate, multi.flip_rate, "{threads} threads");
            assert_eq!(single.samples, multi.samples, "{threads} threads");
            // The per-worker decode counters partition the example set,
            // so their noise-free aggregate is partition-independent too.
            assert_eq!(single.stats, multi.stats, "{threads} threads");
        }
    }

    #[test]
    fn double_run_same_seed_is_bit_identical() {
        // The dynamic counterpart of the `nondeterminism` lint (L3):
        // with realistic noise every RNG draw matters, so two runs from
        // the same seed must produce bit-identical results — including
        // the f64 rates — at every thread count. The per-thread-count
        // runs also keep this robust under `--test-threads` variation:
        // shard results depend only on (seed, range, config), never on
        // scheduling. Static16 exercises the full noisy decode draw
        // order without data-aware A-search programming cost.
        let (qnet, images, labels) = tiny_problem();
        let samples = 4;
        let per = images.len() / labels.len();
        let images = Tensor::from_vec(
            vec![samples, 1, 28, 28],
            images.data()[..samples * per].to_vec(),
        );
        let labels = &labels[..samples];
        let config = AccelConfig::new(ProtectionScheme::Static16).with_fault_rate(0.002);
        for threads in [1, 2] {
            let first = evaluate(&qnet, &images, labels, &config, 9, threads).expect("first");
            let second = evaluate(&qnet, &images, labels, &config, 9, threads).expect("second");
            assert_eq!(first, second, "{threads} threads");
        }
    }

    #[test]
    fn batched_evaluate_matches_per_image_when_noiseless() {
        // 20 examples: batch 7 leaves a ragged final window per shard,
        // batch 64 exceeds the whole shard and clamps to it. Noise off,
        // so every batch size must reproduce the per-image results and
        // decode counters exactly.
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::Static16);
        config.device.rtn_state_probability = 0.0;
        config.device.programming_tolerance = 0.0;
        config.device.fault_rate = 0.0;
        config.device.bandwidth = 0.0;
        let per_image = evaluate(&qnet, &images, &labels, &config, 3, 2).expect("batch 1");
        for batch in [2usize, 7, 64] {
            let batched = evaluate(
                &qnet,
                &images,
                &labels,
                &config.clone().with_batch(batch),
                3,
                2,
            )
            .expect("batched");
            assert_eq!(per_image, batched, "batch {batch}");
        }
    }

    #[test]
    fn batched_shard_panic_is_retried_to_identical_results() {
        // The retry contract holds on the windowed loop too: chaos fires
        // at the legacy per-image midpoint's window, the retry restarts
        // the shard from its seed, and results match the fault-free run.
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::data_aware(9))
            .with_fault_rate(0.002)
            .with_batch(4);
        let clean = evaluate(&qnet, &images, &labels, &config, 11, 2).expect("clean run");
        config.shard_chaos = chaos::ShardChaos::PanicOn { shard: 1, attempts: 1 };
        let retried = evaluate(&qnet, &images, &labels, &config, 11, 2).expect("retried run");
        assert_eq!(clean, retried);
    }

    #[test]
    fn top_k_scan_matches_tensor_top_k() {
        // Including ties, which must resolve to ascending index order.
        let cases: Vec<Vec<f32>> = vec![
            vec![0.1, 0.9, 0.5, 0.9, 0.2, 0.9, 0.05],
            vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            vec![-3.0, -1.0, -2.0],
            vec![0.25],
            (0..12).map(|i| ((i * 7) % 5) as f32).collect(),
        ];
        let mut top = Vec::new();
        for logits in cases {
            for k in 1..=logits.len().min(6) {
                let expected = Tensor::from_vec(vec![logits.len()], logits.clone()).top_k(k);
                top_k_into(&logits, k, &mut top);
                assert_eq!(top, expected, "logits {logits:?} k {k}");
            }
        }
    }

    #[test]
    fn noisy_runs_produce_decode_stats() {
        let (qnet, images, labels) = tiny_problem();
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.0);
        // Two examples suffice to exercise the path.
        let images_small = Tensor::from_vec(
            vec![2, 1, 28, 28],
            images.data()[..2 * 784].to_vec(),
        );
        let result = evaluate(&qnet, &images_small, &labels[..2], &config, 7, 1).expect("evaluate");
        assert!(result.stats.total() > 0);
        assert_eq!(result.samples, 2);
    }

    #[test]
    fn degenerate_inputs_yield_typed_errors() {
        let (qnet, images, labels) = tiny_problem();
        let config = AccelConfig::new(ProtectionScheme::None);
        assert_eq!(
            evaluate(&qnet, &images, &[], &config, 1, 1),
            Err(crate::AccelError::EmptyTestSet)
        );
        assert!(matches!(
            evaluate(&qnet, &images, &labels[..labels.len() - 1], &config, 1, 1),
            Err(crate::AccelError::ShapeMismatch { .. })
        ));
        let bad = AccelConfig::new(ProtectionScheme::None).with_fault_rate(2.0);
        assert!(matches!(
            evaluate(&qnet, &images, &labels, &bad, 1, 1),
            Err(crate::AccelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn injected_panic_is_retried_to_identical_results() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_fault_rate(0.002);
        let clean = evaluate(&qnet, &images, &labels, &config, 11, 2).expect("clean run");
        // Shard 1 panics mid-shard on its first attempt; the retry
        // restarts it from its original seed, so the final results must
        // be bit-identical to the panic-free run.
        config.shard_chaos = chaos::ShardChaos::PanicOn { shard: 1, attempts: 1 };
        let retried = evaluate(&qnet, &images, &labels, &config, 11, 2).expect("retried run");
        assert_eq!(clean, retried);
    }

    #[test]
    fn bounded_retries_extend_the_failure_envelope() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(0.0);
        let clean = evaluate(&qnet, &images, &labels, &config, 11, 2).expect("clean run");
        // Three straight panics exceed the default single retry but not
        // a 3-retry budget; the eventual success is bit-identical.
        config.shard_chaos = chaos::ShardChaos::PanicOn { shard: 1, attempts: 3 };
        assert!(matches!(
            evaluate(&qnet, &images, &labels, &config, 11, 2),
            Err(crate::AccelError::WorkerPanic { shard: 1, .. })
        ));
        config.shard_retries = 3;
        let retried = evaluate(&qnet, &images, &labels, &config, 11, 2).expect("3-retry run");
        assert_eq!(clean, retried);
    }

    #[test]
    fn watchdog_timeout_is_retried_to_identical_results() {
        let (qnet, images, labels) = tiny_problem();
        // Small and single-threaded so the un-stalled attempt finishes
        // well inside the deadline even on a loaded debug-build host.
        let samples = 4;
        let per = images.len() / labels.len();
        let images = Tensor::from_vec(
            vec![samples, 1, 28, 28],
            images.data()[..samples * per].to_vec(),
        );
        let labels = &labels[..samples];
        let mut config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(0.0);
        config.device.rtn_state_probability = 0.0;
        config.device.programming_tolerance = 0.0;
        config.device.bandwidth = 0.0;
        let clean = evaluate(&qnet, &images, labels, &config, 11, 1).expect("clean run");
        // Attempt 0 stalls 6 s mid-shard; the 2.5 s watchdog notices at
        // the next sample boundary and aborts into a seed-stable retry,
        // which does not stall and must reproduce the clean results.
        // The deadline is wall-clock, so keep a wide margin over the
        // un-stalled shard's nominal run time (tens of ms) and a retry
        // budget: when the whole test suite loads the host, a clean
        // attempt over the deadline just retries to identical results.
        config.shard_chaos = chaos::ShardChaos::StallOn { shard: 0, ms: 6_000, attempts: 1 };
        config.watchdog_ns = 2_500_000_000;
        config.shard_retries = 3;
        let retried = evaluate(&qnet, &images, labels, &config, 11, 1).expect("watchdog run");
        assert_eq!(clean, retried);
    }

    #[test]
    fn lost_shards_become_explicit_gaps() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(0.0);
        config.device.rtn_state_probability = 0.0;
        config.device.programming_tolerance = 0.0;
        config.device.bandwidth = 0.0;
        config.shard_chaos = chaos::ShardChaos::PanicOn { shard: 1, attempts: u32::MAX };
        config.max_lost_shards = 1;
        let degraded = evaluate(&qnet, &images, &labels, &config, 11, 2).expect("degraded run");
        let n = labels.len();
        let chunk = n.div_ceil(2);
        assert_eq!(
            degraded.gaps,
            vec![ShardGap { shard: 1, lo: chunk as u64, hi: n as u64 }]
        );
        assert_eq!(degraded.lost_samples, n - chunk);
        assert_eq!(degraded.samples, n);
        // Rates cover only the evaluated samples: they must match the
        // surviving shard evaluated on its own.
        let images_kept = Tensor::from_vec(
            vec![chunk, 1, 28, 28],
            images.data()[..chunk * (images.len() / n)].to_vec(),
        );
        let mut solo_config = config.clone();
        solo_config.shard_chaos = chaos::ShardChaos::Off;
        solo_config.max_lost_shards = 0;
        let solo =
            evaluate(&qnet, &images_kept, &labels[..chunk], &solo_config, 11, 1).expect("solo");
        assert_eq!(degraded.misclassification, solo.misclassification);
        assert_eq!(degraded.flip_rate, solo.flip_rate);
        assert_eq!(degraded.stats, solo.stats);
    }

    #[test]
    fn losing_every_shard_is_a_typed_error() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(0.0);
        config.shard_chaos = chaos::ShardChaos::PanicOn { shard: 0, attempts: u32::MAX };
        config.max_lost_shards = 1;
        assert_eq!(
            evaluate(&qnet, &images, &labels, &config, 11, 1),
            Err(crate::AccelError::AllShardsLost { lost: labels.len() })
        );
    }

    #[test]
    fn persistent_panic_surfaces_shard_and_seed() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(0.0);
        config.shard_chaos = chaos::ShardChaos::PanicOn { shard: 1, attempts: u32::MAX };
        match evaluate(&qnet, &images, &labels, &config, 11, 2) {
            Err(crate::AccelError::WorkerPanic {
                shard,
                seed,
                message,
            }) => {
                assert_eq!(shard, 1);
                assert_eq!(seed, 12); // base seed 11 + shard 1
                assert!(message.contains("injected worker panic"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}
