//! The shard scheduler: thread fan-out, seed-stable retry, and
//! graceful degradation around the pure worker function.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use neural::{QuantizedNetwork, Tensor};

use super::worker::{merge, panic_message, run_shard, ShardTallies};
use super::{ShardGap, SimResult};
use crate::analytic::ErrorModel;
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
/// Worker panics (and watchdog timeouts) are caught; the failing shard
/// is re-run from its original seed (bit-identical to a run that never
/// panicked, since a shard is a pure function of seed + range +
/// config) up to `config.shard_retries` times before the error is
/// surfaced — or, with `config.max_lost_shards > 0`, dropped and
/// recorded as a [`ShardGap`].
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
/// `config`, [`AccelError::WorkerPanic`] when a shard fails every
/// allowed retry with no degradation budget left, and
/// [`AccelError::AllShardsLost`] when degradation dropped every shard.
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
    let mut results: Vec<Result<ShardOutcome, AccelError>> = Vec::new();
    // Shared graceful-degradation budget: shards claim a slot with a
    // fetch_add so at most `max_lost_shards` are ever dropped, however
    // the thread interleaving falls out. Which shards are *candidates*
    // for dropping is deterministic (shards are pure functions of their
    // seed), so with a budget at least as large as the failing-shard
    // count the recorded gaps are deterministic too.
    let lost_budget = AtomicUsize::new(0);

    let scope_result = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let images_data = images.data();
            let lost_budget = &lost_budget;
            let handle = scope.spawn(move |_| {
                let shard_seed = seed.wrapping_add(t as u64);
                let max_attempts = config.shard_retries.saturating_add(1);
                let mut attempt = 0u32;
                loop {
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
                            attempt,
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
                            // Join point: merge this worker's metric
                            // shard before the thread ends, so totals
                            // are complete when `evaluate` returns.
                            obs::flush_thread();
                            return Ok(ShardOutcome::Done(tallies));
                        }
                        Err(payload) => {
                            // Discard the partial metric shard first:
                            // counters must match what a successful
                            // attempt actually counted, never a mix of
                            // abandoned attempts.
                            obs::discard_thread();
                            let message = panic_message(payload.as_ref());
                            let reason = if message.starts_with("watchdog:") {
                                "watchdog"
                            } else {
                                "panic"
                            };
                            if attempt + 1 < max_attempts {
                                // Deterministic retry: the shard
                                // restarts from `shard_seed`, so a
                                // success here is bit-identical to a
                                // first-try success. Flush immediately
                                // so the retry bookkeeping survives the
                                // next attempt's discard.
                                obs::counter!(shard_retries).incr();
                                attempt += 1;
                                // The shard seed spans the full u64
                                // range (epoch seeds are wrapping
                                // golden-ratio offsets), wider than
                                // JSON's exact-integer window — emit
                                // it as a decimal string.
                                obs::events::emit(
                                    obs::Event::new("shard_retry")
                                        .u64("shard", t as u64)
                                        .str("seed", &shard_seed.to_string())
                                        .u64("attempt", u64::from(attempt))
                                        .str("reason", reason),
                                );
                                obs::flush_thread();
                            } else if lost_budget.fetch_add(1, Ordering::SeqCst)
                                < config.max_lost_shards
                            {
                                // Graceful degradation: drop the shard,
                                // record the gap, keep the run alive.
                                obs::counter!(shards_lost).incr();
                                obs::events::emit(
                                    obs::Event::new("shard_lost")
                                        .u64("shard", t as u64)
                                        .u64("lo", lo as u64)
                                        .u64("hi", hi as u64)
                                        .u64("attempts", u64::from(max_attempts))
                                        .str("reason", reason),
                                );
                                obs::flush_thread();
                                return Ok(ShardOutcome::Lost {
                                    shard: t as u64,
                                    lo: lo as u64,
                                    hi: hi as u64,
                                });
                            } else {
                                return Err(AccelError::WorkerPanic {
                                    shard: t,
                                    seed: shard_seed,
                                    message,
                                });
                            }
                        }
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
    let mut lost = 0usize;
    let mut gaps = Vec::new();
    for shard in results {
        match shard? {
            ShardOutcome::Done((t1, t5, f, s)) => {
                top1 += t1;
                top5 += t5;
                flips += f;
                stats = merge(stats, s);
            }
            ShardOutcome::Lost { shard, lo, hi } => {
                lost += (hi - lo) as usize;
                gaps.push(ShardGap { shard, lo, hi });
            }
        }
    }
    let evaluated = n - lost;
    if evaluated == 0 {
        return Err(AccelError::AllShardsLost { lost });
    }
    Ok(SimResult {
        misclassification: top1 as f64 / evaluated as f64,
        top5_misclassification: top5 as f64 / evaluated as f64,
        flip_rate: flips as f64 / evaluated as f64,
        samples: n,
        lost_samples: lost,
        gaps,
        stats,
    })
}

/// Evaluates with an explicit [`ErrorModel`] choice.
///
/// [`ErrorModel::Mc`] is [`evaluate`] verbatim — same seeds, same
/// shard fan-out, bit-identical results. [`ErrorModel::Analytic`]
/// dispatches to the closed-form fast path
/// ([`crate::analytic::predict`]; `seed` and `threads` are unused — the
/// prediction is deterministic single-pass). [`ErrorModel::Auto`]
/// picks analytic when the configuration is inside the validity
/// envelope ([`crate::analytic::supports`]) and falls back to
/// Monte-Carlo otherwise; the choice is recorded in the
/// `error_model_*` obs counters.
///
/// # Examples
///
/// The auto policy falls back to Monte-Carlo for configurations the
/// analytic derivation does not cover (here: ECU re-read retries), and
/// the fallback is bit-identical to calling [`evaluate`] directly:
///
/// ```
/// use accel::analytic::ErrorModel;
/// use accel::{sim, AccelConfig, ProtectionScheme};
/// use neural::{Dense, Network, QuantizedNetwork, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let net = Network::new(vec![Box::new(Dense::new(8, 4, &mut rng))]);
/// let qnet = QuantizedNetwork::from_network(&net);
/// let images = Tensor::from_vec(vec![3, 8], vec![0.25; 24]);
/// let labels = vec![0usize, 1, 2];
///
/// let mut config = AccelConfig::new(ProtectionScheme::data_aware(9));
/// config.max_retries = 2; // outside the analytic envelope
/// let auto =
///     sim::evaluate_with_model(&qnet, &images, &labels, &config, 42, 2, ErrorModel::Auto)?;
/// let mc = sim::evaluate(&qnet, &images, &labels, &config, 42, 2)?;
/// assert_eq!(auto.misclassification, mc.misclassification);
/// assert_eq!(auto.stats, mc.stats);
/// # Ok::<(), accel::AccelError>(())
/// ```
///
/// # Errors
///
/// As [`evaluate`] for the Monte-Carlo path; additionally
/// [`AccelError::InvalidConfig`] when [`ErrorModel::Analytic`] is
/// forced on a configuration outside the envelope.
pub fn evaluate_with_model(
    qnet: &QuantizedNetwork,
    images: &Tensor,
    labels: &[usize],
    config: &AccelConfig,
    seed: u64,
    threads: usize,
    model: ErrorModel,
) -> Result<SimResult, AccelError> {
    match model {
        ErrorModel::Analytic => {
            obs::counter!(error_model_analytic).incr();
            crate::analytic::predict_threaded(qnet, images, labels, config, threads)
        }
        ErrorModel::Mc => {
            obs::counter!(error_model_mc).incr();
            evaluate(qnet, images, labels, config, seed, threads)
        }
        ErrorModel::Auto => {
            if crate::analytic::supports(config) {
                obs::counter!(error_model_analytic).incr();
                crate::analytic::predict_threaded(qnet, images, labels, config, threads)
            } else {
                obs::counter!(error_model_auto_fallback).incr();
                evaluate(qnet, images, labels, config, seed, threads)
            }
        }
    }
}

/// What one worker shard ultimately produced: its tallies, or — under
/// graceful degradation — an explicit gap.
enum ShardOutcome {
    Done(ShardTallies),
    Lost { shard: u64, lo: u64, hi: u64 },
}
