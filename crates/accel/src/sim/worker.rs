//! The pure per-shard evaluation worker.
//!
//! A shard is a pure function of `(seed, sample range, config)` — no
//! shared mutable state, every RNG seeded from the shard seed — which
//! is what makes re-running a failed evaluation sound. Everything
//! in this file must stay side-effect-free apart from obs
//! instrumentation (which never feeds seeded computation).

use neural::QuantizedNetwork;

use crate::{AccelConfig, CrossbarProvider, DecodeStats};

/// Per-shard tallies: top-1 errors, top-5 errors, prediction flips, and
/// the shard's decode statistics.
pub(super) type ShardTallies = (usize, usize, usize, DecodeStats);

/// Classes counted for the top-k misclassification rate.
pub(super) const TOP_K: usize = 5;

/// Runs one worker shard: programs a fresh accelerator from
/// `shard_seed` and classifies samples `lo..hi`.
///
/// A shard is a pure function of its arguments — no shared mutable
/// state, every RNG seeded from `shard_seed` — so a re-run of a failed
/// [`super::evaluate`] reproduces it bit-for-bit.
#[allow(clippy::too_many_arguments)] // private helper: the shard closure's captures, made explicit
pub(super) fn run_shard(
    qnet: &QuantizedNetwork,
    images_data: &[f32],
    labels: &[usize],
    per_image: usize,
    config: &AccelConfig,
    shard_seed: u64,
    lo: usize,
    hi: usize,
    shard: usize,
) -> ShardTallies {
    let _span = obs::span!("shard");
    let provider = CrossbarProvider::new(config.clone(), shard_seed);
    let mut engines = qnet.build_engines(&provider);
    let mut exact_engines = qnet.build_engines(&neural::ExactProvider);
    // Per-worker reusable buffers: after the first example
    // grows them to the network's high-water mark, the loop
    // body performs no heap allocation.
    let mut scratch = neural::RunScratch::new();
    let mut exact_scratch = neural::RunScratch::new();
    let mut top = Vec::with_capacity(TOP_K);
    let mut top1_errors = 0usize;
    let mut top5_errors = 0usize;
    let mut flips = 0usize;
    let batch = config.batch.max(1);
    // Chaos injection fires at a submission boundary: per image when
    // `batch == 1`, per window otherwise. It anchors on the per-image
    // midpoint so the same `ShardChaos` config faults the same logical
    // position at every batch size, after partial tallies exist.
    let chaos_at = lo + (hi - lo) / 2;
    let mut wlo = lo;
    while wlo < hi {
        let wend = (wlo + batch).min(hi);
        if (wlo..wend).contains(&chaos_at) {
            if let Some(chaos::ExecFault::Panic) = config.shard_chaos.decide(shard as u64) {
                // Announce the injection like every other chaos seam,
                // so a failed attempt's event log names its cause.
                obs::events::emit(
                    obs::Event::new("chaos_fault")
                        .str("seam", "shard")
                        .u64("index", shard as u64)
                        .str("fault", "panic"),
                );
                // Deterministic fault injection: caught by evaluate's
                // catch_unwind and returned as a typed WorkerPanic.
                panic!("chaos: injected worker panic (shard {shard})")
            }
        }
        let window = wend - wlo;
        let logits_all = qnet.run_batch_with(
            &images_data[wlo * per_image..wend * per_image],
            window,
            &mut engines,
            &mut scratch,
        );
        let out_dim = logits_all.len() / window;
        for v in 0..window {
            let i = wlo + v;
            let logits = &logits_all[v * out_dim..(v + 1) * out_dim];
            top_k_into(logits, TOP_K.min(out_dim), &mut top);
            if top[0] != labels[i] {
                top1_errors += 1;
            }
            if !top.contains(&labels[i]) {
                top5_errors += 1;
            }
            let image = &images_data[i * per_image..(i + 1) * per_image];
            if qnet.predict_with(image, &mut exact_engines, &mut exact_scratch) != top[0] {
                flips += 1;
            }
        }
        wlo = wend;
    }
    obs::counter!(prediction_flips).add(flips as u64);
    (top1_errors, top5_errors, flips, provider.stats())
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Writes the indices of the `k` largest logits into `top`, in
/// descending order, reusing the buffer.
///
/// Matches `Tensor::top_k` exactly, including tie-breaking: that method
/// stable-sorts descending by value, so equal logits keep ascending
/// index order. Here the ascending scan inserts a tying index after the
/// entries already present (which all have smaller indices), preserving
/// the same order without sorting the full array or allocating.
pub(crate) fn top_k_into(logits: &[f32], k: usize, top: &mut Vec<usize>) {
    top.clear();
    for i in 0..logits.len() {
        let mut pos = top.len();
        while pos > 0 && logits[top[pos - 1]] < logits[i] {
            pos -= 1;
        }
        if pos < k {
            if top.len() == k {
                top.pop();
            }
            top.insert(pos, i);
        }
    }
}

/// Sums two shards' decode statistics field by field.
pub(super) fn merge(mut a: DecodeStats, b: DecodeStats) -> DecodeStats {
    a.clean += b.clean;
    a.corrected += b.corrected;
    a.uncorrectable += b.uncorrectable;
    a.miscorrected += b.miscorrected;
    a.silent_a += b.silent_a;
    a.retries += b.retries;
    a.uncoded += b.uncoded;
    a
}
