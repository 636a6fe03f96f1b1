//! The monotonic clock — the workspace's **single** wall-clock
//! boundary.
//!
//! Every duration in this crate is derived from [`now_ns`], which reads
//! `std::time::Instant` exactly once per call against a process-wide
//! epoch captured on first use. The `repro-lint` `nondeterminism` lint
//! covers this crate precisely so that this is the only place an
//! `Instant` can appear: timing flows *out* to metric sinks and event
//! logs only, never back into seeded simulation state (checkpoints,
//! RNG streams, campaign records), which is what keeps the
//! byte-identical-resume and double-run guarantees intact while
//! metrics are enabled.

#[cfg(feature = "enabled")]
mod imp {
    use std::sync::OnceLock;

    // lint: allow(nondeterminism, the audited clock boundary: this epoch only anchors observability timings, which never feed seeded computation)
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

    pub fn now_ns() -> u64 {
        // lint: allow(nondeterminism, the workspace's single Instant::now site; see module docs)
        let epoch = EPOCH.get_or_init(std::time::Instant::now);
        // u128→u64: saturate instead of wrapping; 2^64 ns ≈ 584 years
        // of process uptime, so saturation is unreachable in practice.
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Monotonic nanoseconds since the process's first clock read.
///
/// Returns 0 when metrics are disabled (the `enabled` feature is off),
/// so durations computed from it are 0 and downstream sinks see
/// nothing. Never decreases within a thread; the first call returns 0.
#[cfg(feature = "enabled")]
#[inline]
pub fn now_ns() -> u64 {
    imp::now_ns()
}

/// Monotonic nanoseconds since the process's first clock read
/// (disabled build: always 0, no clock is read).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn now_ns() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn monotonic_within_a_thread() {
        let a = super::now_ns();
        let b = super::now_ns();
        assert!(b >= a);
    }
}
