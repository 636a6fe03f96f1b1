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
//! the scheduler owns thread fan-out.
//!
//! # Crash safety
//!
//! Each shard runs once under [`std::panic::catch_unwind`], so a panic
//! comes out as [`AccelError::WorkerPanic`] naming the shard and its
//! seed — a typed error, never an unwinding caller. Recovery belongs
//! to the one supervisor above: a grid cell attempt that fails is
//! retried under a fresh chaos seed and resumes from the campaign's
//! checkpoint slots, and because a shard is a pure function of its
//! seed, range and config the re-run epoch is bit-identical to one
//! that never failed. `shard_chaos` on [`AccelConfig`] injects
//! deterministic mid-shard panics ([`chaos::ShardChaos`]) so that path
//! is testable.

mod scheduler;
mod worker;

use serde::{Deserialize, Serialize};

use crate::DecodeStats;
#[allow(unused_imports)] // referenced by the module docs above
use crate::{AccelConfig, AccelError};

pub use scheduler::{evaluate, evaluate_with_model};

/// An unevaluated shard range. Nothing produces one any more (each
/// shard runs to completion or fails the evaluation); the type stays
/// because [`SimResult::gaps`] and the campaign checkpoint format
/// (`EpochRecord::gaps`, always empty) still carry it.
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
    /// Number of evaluated examples.
    pub samples: usize,
    /// Always 0: every requested sample is evaluated or the evaluation
    /// fails. Kept for the checkpoint and summary formats.
    pub lost_samples: usize,
    /// Always empty, like `lost_samples`.
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
            assert_eq!(
                single.misclassification, multi.misclassification,
                "{threads} threads"
            );
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
        let images_small = Tensor::from_vec(vec![2, 1, 28, 28], images.data()[..2 * 784].to_vec());
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
    fn persistent_panic_surfaces_shard_and_seed() {
        let (qnet, images, labels) = tiny_problem();
        let mut config = AccelConfig::new(ProtectionScheme::None).with_fault_rate(0.0);
        config.shard_chaos = chaos::ShardChaos::PanicOn { shard: 1 };
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
