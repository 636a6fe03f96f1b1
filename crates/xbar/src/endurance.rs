//! Write-endurance modeling and system-lifetime estimation (§II-C6).
//!
//! Memristor endurance spans 10⁶–10¹² writes depending on the material
//! stack; after its budget a cell stops switching and becomes a
//! stuck-at fault. Inference-only accelerators write rarely (model
//! deployments and re-calibrations), so lifetime is long but finite:
//! the Memristive Boltzmann Machine's authors compute a 1.5-year worst
//! case, and this paper notes that even then "faults must be handled
//! gracefully" — which is precisely what the split correction tables
//! do. This module provides the endurance statistics that close the
//! loop: how fast stuck-at faults accumulate under a write schedule,
//! feeding the fault rate that the data-aware codes absorb.
//!
//! Cell endurance is modeled as log-uniform between
//! [`min_writes`](EnduranceParams::min_writes) and
//! [`max_writes`](EnduranceParams::max_writes) (the decade-spanning
//! range reported across stacks), independent per cell.

use rand::Rng;

/// Endurance distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceParams {
    /// Minimum cell endurance (writes). 10⁶ per the weakest reported
    /// stacks.
    pub min_writes: f64,
    /// Maximum cell endurance (writes). 10¹² per the strongest stacks.
    pub max_writes: f64,
}

impl Default for EnduranceParams {
    fn default() -> EnduranceParams {
        EnduranceParams {
            min_writes: 1e6,
            max_writes: 1e12,
        }
    }
}

impl EnduranceParams {
    /// Probability that a cell has failed after `writes` full rewrites,
    /// under the log-uniform endurance distribution.
    ///
    /// # Examples
    ///
    /// ```
    /// use xbar::endurance::EnduranceParams;
    /// let p = EnduranceParams::default();
    /// assert_eq!(p.failure_probability(0.0), 0.0);
    /// // Half the decades exhausted → half the cells failed.
    /// assert!((p.failure_probability(1e9) - 0.5).abs() < 1e-9);
    /// assert_eq!(p.failure_probability(1e13), 1.0);
    /// ```
    pub fn failure_probability(&self, writes: f64) -> f64 {
        if writes <= self.min_writes {
            return 0.0;
        }
        if writes >= self.max_writes {
            return 1.0;
        }
        (writes.ln() - self.min_writes.ln()) / (self.max_writes.ln() - self.min_writes.ln())
    }

    /// The number of rewrites after which the expected stuck-cell
    /// fraction reaches `target` (the inverse of
    /// [`failure_probability`](EnduranceParams::failure_probability)).
    ///
    /// # Panics
    ///
    /// Panics unless `target` is in `(0, 1)`.
    pub fn writes_for_failure_rate(&self, target: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&target) && target > 0.0,
            "target in (0, 1)"
        );
        (self.min_writes.ln() + target * (self.max_writes.ln() - self.min_writes.ln())).exp()
    }

    /// System lifetime in years until the stuck-cell fraction reaches
    /// `target_fault_rate`, given `rewrites_per_day` full-array
    /// reprogrammings (model updates / recalibrations).
    ///
    /// With one rewrite per day and the default distribution, reaching
    /// the paper's 0.1 % fault-rate design point takes years — matching
    /// the "1.5 year worst case system lifetime" regime the paper cites
    /// for write-heavy training use, and far longer for inference-only
    /// deployment.
    pub fn lifetime_years(&self, rewrites_per_day: f64, target_fault_rate: f64) -> f64 {
        assert!(rewrites_per_day > 0.0, "need a positive write rate");
        let writes = self.writes_for_failure_rate(target_fault_rate);
        writes / rewrites_per_day / 365.25
    }

    /// Samples one cell's endurance budget (writes).
    pub fn sample_endurance<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        (self.min_writes.ln() + u * (self.max_writes.ln() - self.min_writes.ln())).exp()
    }
}

/// Tracks write wear for an array of cells and reports which have
/// exceeded their endurance.
#[derive(Debug, Clone)]
pub struct WearTracker {
    endurance: Vec<f64>,
    writes: u64,
}

impl WearTracker {
    /// Creates a tracker for `cells` cells with sampled endurance
    /// budgets.
    pub fn new<R: Rng + ?Sized>(
        cells: usize,
        params: &EnduranceParams,
        rng: &mut R,
    ) -> WearTracker {
        WearTracker {
            endurance: (0..cells).map(|_| params.sample_endurance(rng)).collect(),
            writes: 0,
        }
    }

    /// Records `n` full rewrites of the array.
    pub fn record_writes(&mut self, n: u64) {
        self.writes += n;
    }

    /// Total rewrites recorded.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Indices of cells that have exceeded their endurance.
    pub fn failed_cells(&self) -> Vec<usize> {
        self.endurance
            .iter()
            .enumerate()
            .filter(|(_, &e)| (self.writes as f64) >= e)
            .map(|(i, _)| i)
            .collect()
    }

    /// Current stuck-cell fraction.
    pub fn failure_rate(&self) -> f64 {
        self.failed_cells().len() as f64 / self.endurance.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn failure_probability_monotone() {
        let p = EnduranceParams::default();
        let mut prev = -1.0;
        for w in [0.0, 1e6, 1e7, 1e9, 1e11, 1e12, 1e13] {
            let f = p.failure_probability(w);
            assert!(f >= prev);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let p = EnduranceParams::default();
        for target in [0.001, 0.01, 0.5, 0.99] {
            let w = p.writes_for_failure_rate(target);
            assert!((p.failure_probability(w) - target).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_design_point_lifetime() {
        // Reaching the Table I fault rate (0.1 %) takes ~10^6.04 writes;
        // at one full rewrite per day that is thousands of years — and
        // even at one rewrite per minute (training-like), years. The
        // graceful-degradation machinery matters long before wear-out
        // dominates.
        let p = EnduranceParams::default();
        let daily = p.lifetime_years(1.0, 0.001);
        assert!(daily > 100.0, "daily rewrite lifetime {daily} years");
        let per_minute = p.lifetime_years(60.0 * 24.0, 0.001);
        assert!(per_minute > 1.0, "per-minute rewrite lifetime {per_minute}");
    }

    #[test]
    fn sampled_endurance_within_range() {
        let p = EnduranceParams::default();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..100 {
            let e = p.sample_endurance(&mut rng);
            assert!((1e6..=1e12).contains(&e));
        }
    }

    #[test]
    fn wear_tracker_accumulates_failures() {
        let p = EnduranceParams::default();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut tracker = WearTracker::new(2000, &p, &mut rng);
        assert_eq!(tracker.failure_rate(), 0.0);
        tracker.record_writes(1_000_000_000); // 1e9 ≈ half the decades
        let rate = tracker.failure_rate();
        assert!((0.4..0.6).contains(&rate), "rate {rate} after 1e9 writes");
        assert_eq!(tracker.writes(), 1_000_000_000);
        assert_eq!(
            tracker.failed_cells().len(),
            (rate * 2000.0).round() as usize
        );
    }

    #[test]
    #[should_panic(expected = "target in (0, 1)")]
    fn writes_for_failure_rate_validates() {
        EnduranceParams::default().writes_for_failure_rate(1.5);
    }
}
