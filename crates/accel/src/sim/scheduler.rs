//! The shard scheduler: thread fan-out around the pure worker
//! function, with each shard's panic turned into a typed error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use neural::{QuantizedNetwork, Tensor};

use super::worker::{merge, panic_message, run_shard, ShardTallies};
use super::SimResult;
use crate::{AccelConfig, AccelError, DecodeStats};

/// Evaluates a quantized network on the noisy accelerator over a test
/// set.
///
/// `images` is the `[n, ...]` test tensor. Each MVM pass submits a
/// window of `config.batch` images (default 1) to the engine's one
/// batched kernel (the final window is ragged when the shard size is
/// not a multiple, and a batch larger than the shard simply clamps to
/// it); a larger batch amortizes the per-pass RTN snapshot and row
/// read-outs. Accuracy tallies stay per-example either way. `threads`
/// bounds the worker count; each worker programs its own engines with a
/// seed derived from `seed`.
///
/// Each shard runs once. A worker panic is caught and returned as
/// [`AccelError::WorkerPanic`] naming the shard and its seed; the
/// caller that owns recovery (a grid cell attempt) re-runs the work,
/// and since a shard is a pure function of seed + range + config the
/// re-run is bit-identical to a run that never panicked.
///
/// # Examples
///
/// ```
/// use accel::{sim::evaluate, AccelConfig, ProtectionScheme};
/// use neural::{Dense, Network, QuantizedNetwork, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let net = Network::new(vec![Box::new(Dense::new(8, 4, &mut rng))]);
/// let qnet = QuantizedNetwork::from_network(&net);
/// let images = Tensor::from_vec(vec![3, 8], vec![0.25; 24]);
/// let labels = vec![0usize, 1, 2];
///
/// let config = AccelConfig::new(ProtectionScheme::data_aware(9));
/// let result = evaluate(&qnet, &images, &labels, &config, 42, 2)?;
/// assert_eq!(result.samples, 3);
/// assert!(result.misclassification <= 1.0);
/// # Ok::<(), accel::AccelError>(())
/// ```
///
/// Batched submission changes throughput, not the estimator — with
/// noise disabled the results are identical at every batch size:
///
/// ```
/// # use accel::{sim::evaluate, AccelConfig, ProtectionScheme};
/// # use neural::{Dense, Network, QuantizedNetwork, Tensor};
/// # use rand::SeedableRng;
/// # let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// # let net = Network::new(vec![Box::new(Dense::new(8, 4, &mut rng))]);
/// # let qnet = QuantizedNetwork::from_network(&net);
/// # let images = Tensor::from_vec(vec![3, 8], vec![0.25; 24]);
/// # let labels = vec![0usize, 1, 2];
/// let mut config = AccelConfig::new(ProtectionScheme::None);
/// config.device.rtn_state_probability = 0.0;
/// config.device.programming_tolerance = 0.0;
/// config.device.fault_rate = 0.0;
/// config.device.bandwidth = 0.0;
/// let one = evaluate(&qnet, &images, &labels, &config, 42, 1)?;
/// let batched = evaluate(&qnet, &images, &labels, &config.with_batch(2), 42, 1)?;
/// assert_eq!(one.misclassification, batched.misclassification);
/// # Ok::<(), accel::AccelError>(())
/// ```
///
/// # Observability
///
/// With the `obs` feature, each worker merges its thread-local metric
/// shard as it finishes (`obs::flush_thread`), so by the time
/// `evaluate` returns the global counter totals equal the returned
/// [`SimResult::stats`] exactly — independent of thread count and join
/// order (DESIGN.md §8):
///
/// ```
/// # use accel::{sim::evaluate, AccelConfig, ProtectionScheme};
/// # use neural::{Dense, Network, QuantizedNetwork, Tensor};
/// # use rand::SeedableRng;
/// # let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// # let net = Network::new(vec![Box::new(Dense::new(8, 4, &mut rng))]);
/// # let qnet = QuantizedNetwork::from_network(&net);
/// # let images = Tensor::from_vec(vec![3, 8], vec![0.25; 24]);
/// # let labels = vec![0usize, 1, 2];
/// obs::reset();
/// let config = AccelConfig::new(ProtectionScheme::None);
/// let result = evaluate(&qnet, &images, &labels, &config, 42, 2)?;
/// if obs::enabled() {
///     assert_eq!(obs::counter_value("ecc_uncoded"), result.stats.uncoded);
/// }
/// # Ok::<(), accel::AccelError>(())
/// ```
///
/// # Errors
///
/// Returns [`AccelError::EmptyTestSet`] for zero labels,
/// [`AccelError::ShapeMismatch`] when `images` does not hold one sample
/// per label, [`AccelError::InvalidConfig`] for an inconsistent
/// `config`, and [`AccelError::WorkerPanic`] when a shard panics.
pub fn evaluate(
    qnet: &QuantizedNetwork,
    images: &Tensor,
    labels: &[usize],
    config: &AccelConfig,
    seed: u64,
    threads: usize,
) -> Result<SimResult, AccelError> {
    let n = labels.len();
    if n == 0 {
        return Err(AccelError::EmptyTestSet);
    }
    let samples_in_tensor = images.shape().first().copied().unwrap_or(0);
    if samples_in_tensor != n {
        return Err(AccelError::ShapeMismatch {
            detail: format!("{n} labels but the image tensor holds {samples_in_tensor} samples"),
        });
    }
    config.validate()?;
    let per_image = images.len() / n;
    let threads = threads.clamp(1, n);

    let chunk = n.div_ceil(threads);
    let mut results: Vec<Result<ShardTallies, AccelError>> = Vec::new();

    let scope_result = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let images_data = images.data();
            let handle = scope.spawn(move |_| {
                let shard_seed = seed.wrapping_add(t as u64);
                let start_ns = obs::now_ns();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_shard(
                        qnet,
                        images_data,
                        labels,
                        per_image,
                        config,
                        shard_seed,
                        lo,
                        hi,
                        t,
                    )
                }));
                match outcome {
                    Ok(tallies) => {
                        obs::events::emit(
                            obs::Event::new("shard_done")
                                .u64("shard", t as u64)
                                .u64("lo", lo as u64)
                                .u64("hi", hi as u64)
                                .u64("duration_ns", obs::now_ns().saturating_sub(start_ns)),
                        );
                        // Join point: merge this worker's metric shard
                        // before the thread ends, so totals are
                        // complete when `evaluate` returns.
                        obs::flush_thread();
                        Ok(tallies)
                    }
                    Err(payload) => {
                        // Discard the partial metric shard: counters
                        // must match what completed evaluations
                        // counted, never an abandoned shard.
                        obs::discard_thread();
                        Err(AccelError::WorkerPanic {
                            shard: t,
                            seed: shard_seed,
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            });
            handles.push(handle);
        }
        for (t, handle) in handles.into_iter().enumerate() {
            results.push(handle.join().unwrap_or_else(|payload| {
                // Unreachable in practice (the closure catches its own
                // panics), but a join failure must not abort the run.
                Err(AccelError::WorkerPanic {
                    shard: t,
                    seed: seed.wrapping_add(t as u64),
                    message: panic_message(payload.as_ref()),
                })
            }));
        }
    });
    if let Err(payload) = scope_result {
        return Err(AccelError::WorkerPanic {
            shard: threads,
            seed,
            message: format!("thread scope teardown: {}", panic_message(payload.as_ref())),
        });
    }

    let mut stats = DecodeStats::default();
    let mut top1 = 0usize;
    let mut top5 = 0usize;
    let mut flips = 0usize;
    for shard in results {
        let (t1, t5, f, s) = shard?;
        top1 += t1;
        top5 += t5;
        flips += f;
        stats = merge(stats, s);
    }
    Ok(SimResult {
        misclassification: top1 as f64 / n as f64,
        top5_misclassification: top5 as f64 / n as f64,
        flip_rate: flips as f64 / n as f64,
        samples: n,
        lost_samples: 0,
        gaps: Vec::new(),
        stats,
    })
}
