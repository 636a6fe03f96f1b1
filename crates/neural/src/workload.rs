//! The one training recipe behind every experiment.
//!
//! Every figure, table and campaign evaluates one of the Table II
//! networks trained here: a fixed initialisation seed, a fixed
//! training set, a fixed epoch schedule and a fixed held-out test set
//! per model. Trained weights are cached as
//! `<cache_dir>/<model>-<n>.json` (`n` = training examples actually
//! used), so only the first run of a model trains; every later run —
//! including each worker process of a campaign grid — loads the same
//! weights and lowers them to the same quantized network.

use std::path::Path;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::data::{self, Dataset};
use crate::{models, Network, QuantizedNetwork, SavedWeights};

/// The models [`train_or_load`] knows, in Table II order.
pub const MODELS: [&str; 4] = ["mlp1", "mlp2", "cnn1", "alexnet"];

/// Difficulty of the ILSVRC stand-in, chosen to put the AlexNet proxy's
/// software top-1 misclassification in the paper's ~43 % regime. The
/// proxy trains easier than that: `results/specs/table3.json` measures
/// 21.67 % top-1 and 0.00 % top-5 at 60 samples (EXPERIMENTS.md,
/// Table III). Changing it would retrain the cached weights.
pub const ALEXNET_DIFFICULTY: f32 = 0.85;

/// Seed of every model's initial weights.
const INIT_SEED: u64 = 0xC0FFEE;
/// Seed of every training set.
const TRAIN_SEED: u64 = 42;
/// Seed of every held-out test set.
const TEST_SEED: u64 = 904_223;
/// Seed of the training-set shuffle.
const SHUFFLE_SEED: u64 = 7;

/// A trained workload: float network, quantized lowering, and its
/// held-out test set.
pub struct Workload {
    /// Model name (one of [`MODELS`]).
    pub name: String,
    /// The trained float network.
    pub network: Network,
    /// The 16-bit fixed-point lowering.
    pub quantized: QuantizedNetwork,
    /// Held-out test examples.
    pub test: Dataset,
    /// Float software misclassification on the test set.
    pub software_error: f64,
}

/// Trains `name` on `train` examples, or loads its cached weights from
/// `cache_dir`, and pairs it with `samples` held-out test examples.
///
/// `cnn1` trains on at most 2500 examples and `alexnet` on at most
/// 4000; the cache file is keyed by the count actually used. A freshly
/// trained network is written to the cache atomically (temp file +
/// rename), so concurrent callers never read a partial cache.
///
/// # Errors
///
/// Returns a message for an unknown model, a cache that cannot be
/// written, or a network that does not quantize.
pub fn train_or_load(
    name: &str,
    train: usize,
    samples: usize,
    cache_dir: &Path,
) -> Result<Workload, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(INIT_SEED);
    let (mut network, mut train_set, test, epochs, lr) = match name {
        "mlp1" => (
            models::mlp1(&mut rng),
            data::digits(train, TRAIN_SEED),
            data::digits(samples, TEST_SEED),
            8,
            0.1,
        ),
        "mlp2" => (
            models::mlp2(&mut rng),
            data::digits(train, TRAIN_SEED),
            data::digits(samples, TEST_SEED),
            8,
            0.1,
        ),
        // Convolutions train slower per example; a smaller set
        // converges on the digits task.
        "cnn1" => (
            models::cnn1(&mut rng),
            data::digits(train.min(2500), TRAIN_SEED),
            data::digits(samples, TEST_SEED),
            6,
            0.05,
        ),
        "alexnet" => (
            models::alexnet_proxy(&mut rng),
            data::shapes(train.min(4000), TRAIN_SEED, ALEXNET_DIFFICULTY),
            data::shapes(samples, TEST_SEED, ALEXNET_DIFFICULTY),
            10,
            0.05,
        ),
        other => return Err(format!("unknown model {other} (try {})", MODELS.join(", "))),
    };

    let cache = cache_dir.join(format!("{name}-{}.json", train_set.len()));
    if let Ok(saved) = SavedWeights::load(&cache) {
        network.import_weights(&saved);
        eprintln!("[{name}] loaded cached weights from {}", cache.display());
    } else {
        eprintln!(
            "[{name}] training on {} examples ({epochs} epochs)…",
            train_set.len()
        );
        let started = Instant::now();
        data::shuffle(&mut train_set, SHUFFLE_SEED);
        for epoch in 0..epochs {
            let eta = if epoch * 3 >= epochs * 2 {
                lr / 3.0
            } else {
                lr
            };
            let stats = network.train_epoch(&train_set.images, &train_set.labels, 32, eta);
            eprintln!(
                "[{name}] epoch {epoch}: loss {:.4} acc {:.3}",
                stats.loss, stats.accuracy
            );
        }
        eprintln!("[{name}] trained in {:.1?}", started.elapsed());
        network
            .export_weights()
            .save(&cache)
            .map_err(|e| format!("cannot cache weights at {}: {e}", cache.display()))?;
    }

    let software_error = 1.0 - network.evaluate(&test.images, &test.labels);
    let quantized = QuantizedNetwork::try_from_network(&network).map_err(|e| e.to_string())?;
    Ok(Workload {
        name: name.to_string(),
        network,
        quantized,
        test,
        software_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_reproduces_the_fresh_network() {
        let dir = std::env::temp_dir().join(format!("workload-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = train_or_load("mlp2", 60, 5, &dir).expect("train");
        assert!(
            dir.join("mlp2-60.json").exists(),
            "fresh train wrote no cache"
        );
        let cached = train_or_load("mlp2", 60, 5, &dir).expect("load");
        assert_eq!(
            format!("{:?}", cached.quantized),
            format!("{:?}", fresh.quantized),
            "a cache hit lowered to a different quantized network"
        );
        assert_eq!(cached.software_error, fresh.software_error);
        assert_eq!(cached.test.labels, fresh.test.labels);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_models_are_refused() {
        let dir = std::env::temp_dir().join(format!("workload-unknown-{}", std::process::id()));
        let err = train_or_load("resnet", 10, 1, &dir)
            .err()
            .expect("unknown model");
        assert!(
            err.contains("unknown model resnet") && err.contains("alexnet"),
            "{err}"
        );
        assert!(!dir.exists(), "a refused model must not touch the cache");
    }
}
