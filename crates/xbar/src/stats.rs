//! Statistical primitives: Gaussian and binomial sampling, binomial
//! PMF/CDF.
//!
//! Only the `rand` core crate is a sanctioned dependency, so the
//! distributions the simulator needs are implemented here: Box–Muller
//! Gaussians, inversion-method binomial draws (with a Gaussian
//! approximation fallback for large `n·p`), and an exact log-space
//! binomial CDF used by the §V-B5 row-error predictor.

use rand::Rng;

/// Natural log of `n!` for `n` up to [`MAX_LN_FACTORIAL_N`], computed by
/// accumulation (exact to f64 rounding).
const LN_FACTORIAL_TABLE_LEN: usize = 513;

/// Largest `n` supported by [`ln_factorial`].
pub const MAX_LN_FACTORIAL_N: u32 = (LN_FACTORIAL_TABLE_LEN - 1) as u32;

fn ln_factorial_table() -> &'static [f64; LN_FACTORIAL_TABLE_LEN] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; LN_FACTORIAL_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0; LN_FACTORIAL_TABLE_LEN];
        for i in 1..LN_FACTORIAL_TABLE_LEN {
            t[i] = t[i - 1] + (i as f64).ln();
        }
        t
    })
}

/// `ln(n!)`.
///
/// # Panics
///
/// Panics if `n > MAX_LN_FACTORIAL_N` (rows have at most a few hundred
/// cells).
pub fn ln_factorial(n: u32) -> f64 {
    ln_factorial_table()[n as usize]
}

/// `ln C(n, k)`.
///
/// # Panics
///
/// Panics if `k > n` or `n` exceeds the table.
pub fn ln_choose(n: u32, k: u32) -> f64 {
    assert!(k <= n, "k={k} > n={n}");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial probability mass `P[X = k]` for `X ~ B(n, p)`.
///
/// # Examples
///
/// ```
/// let p = xbar::stats::binomial_pmf(4, 2, 0.5);
/// assert!((p - 0.375).abs() < 1e-12);
/// ```
pub fn binomial_pmf(n: u32, k: u32, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p={p} out of range");
    if k > n {
        return 0.0;
    }
    // lint: allow(float_eq, exact degenerate-distribution sentinel; ln(0) below needs p strictly inside (0,1))
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    // lint: allow(float_eq, exact degenerate-distribution sentinel; ln(1-p) below needs p strictly inside (0,1))
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    (ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// Binomial CDF `P[X ≤ k]`.
pub fn binomial_cdf(n: u32, k: u32, p: f64) -> f64 {
    if k >= n {
        return 1.0;
    }
    let mut total = 0.0;
    for i in 0..=k {
        total += binomial_pmf(n, i, p);
    }
    total.min(1.0)
}

/// Upper tail `P[X ≥ k]`.
pub fn binomial_sf(n: u32, k: u32, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    (1.0 - binomial_cdf(n, k - 1, p)).clamp(0.0, 1.0)
}

/// Draws a standard normal via Box–Muller.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    Deferred::sample(rng).value()
}

/// Draws from `N(mean, sigma²)`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * sample_standard_normal(rng)
}

/// Relative pad on [`Deferred::bound`]: covers the few-ulp rounding of
/// `ln`, `sqrt` and the multiplies on both sides of the comparison.
const BOUND_PAD: f64 = 1.0 + 1e-9;

/// The largest [`Deferred::bound`] any draw can have: the bound at
/// `u1 = 2⁻⁵³`, the smallest uniform the sampler returns
/// (`sqrt(106·ln 2)`, padded). Every Box–Muller normal the crate draws
/// lies in `[−Z_MAX, Z_MAX]`, so a consumer whose result is the same at
/// both ends needs no draw at all.
pub const Z_MAX: f64 = 8.57167435722458;

/// Which trigonometric half of a Box–Muller pair a [`Deferred`] draw
/// evaluates.
#[derive(Debug, Clone, Copy)]
enum Half {
    Cosine,
    Sine,
}

/// A Box–Muller standard normal whose uniforms are drawn but whose
/// `ln`/`sqrt`/`cos`/`sin` are not yet evaluated.
///
/// [`sample`](Deferred::sample) consumes the RNG exactly as the
/// historical eager sampler did (`u1` from the open interval `(0, 1)`
/// by rejection, then `u2`), and [`value`](Deferred::value) is the one
/// Box–Muller expression in the crate, so drawing now and evaluating
/// later changes no bit of any stream. [`bound`](Deferred::bound) is a
/// cheap upper bound on `|value()|` that needs no transcendental: a
/// consumer whose result is the same for every `z` in
/// `[−bound, bound]` never has to evaluate the draw at all.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use xbar::stats::{sample_standard_normal, Deferred};
///
/// let mut a = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let mut b = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let z = Deferred::sample(&mut a);
/// assert_eq!(z.value(), sample_standard_normal(&mut b));
/// assert!(z.value().abs() <= z.bound());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Deferred {
    u1: f64,
    u2: f64,
    half: Half,
}

impl Deferred {
    /// Draws the uniform pair of one Box–Muller normal (cosine half).
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Deferred {
        // Avoid ln(0) by sampling u1 from the open interval.
        let u1: f64 = loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                break u;
            }
        };
        let u2: f64 = rng.gen();
        Deferred {
            u1,
            u2,
            half: Half::Cosine,
        }
    }

    /// Evaluates the normal: `sqrt(−2·ln u1) · cos(τ·u2)`, or `· sin`
    /// for the cached half of a [`NormalSource`] pair.
    pub fn value(self) -> f64 {
        let r = (-2.0 * self.u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * self.u2;
        match self.half {
            Half::Cosine => r * theta.cos(),
            Half::Sine => r * theta.sin(),
        }
    }

    /// An upper bound on `|value()|` from the binary exponent `e` of
    /// `u1` alone: `u1 ≥ 2^e`, so `−2·ln u1 ≤ −2·e·ln 2`, and
    /// `|cos|, |sin| ≤ 1`. Padded by a relative `1e-9`, far above the
    /// libm and rounding error of either side.
    pub fn bound(self) -> f64 {
        // `u1` is a nonzero multiple of 2⁻⁵³ below 1, so it is a normal
        // float and `e` lies in −53..=−1.
        let e = ((self.u1.to_bits() >> 52) & 0x7ff) as f64 - 1023.0;
        (-2.0 * std::f64::consts::LN_2 * e).sqrt() * BOUND_PAD
    }
}

/// Paired Box–Muller generator: each pair of uniforms yields *two*
/// standard normals (`r·cos θ` now, `r·sin θ` on the next call),
/// halving the uniform draws per normal relative to
/// [`sample_standard_normal`] (which discards the sine term to keep
/// the historical one-draw-per-normal stream).
///
/// The source caches the pending uniform pair, not a computed sine:
/// [`next_deferred`](NormalSource::next_deferred) hands out either half
/// as a [`Deferred`] draw, so a consumer that only needs
/// [`bound`](Deferred::bound) skips the transcendentals of both halves.
/// [`next`](NormalSource::next) is `next_deferred(..).value()`.
///
/// The output stream is a pure function of the call sequence against a
/// given RNG, so batched-kernel draws stay reproducible; it is *not*
/// the same stream as [`sample_standard_normal`], which is why the
/// batch-of-1 path never uses it.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let mut src = xbar::stats::NormalSource::new();
/// let a = src.next(&mut rng);
/// let b = src.next(&mut rng); // cached pair: no RNG advance
/// let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let mut src2 = xbar::stats::NormalSource::new();
/// assert_eq!((a, b), (src2.next(&mut rng2), src2.next(&mut rng2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct NormalSource {
    /// The uniform pair whose sine half has not been handed out yet.
    pending: Option<(f64, f64)>,
}

impl NormalSource {
    /// An empty source: the first [`next`](NormalSource::next) draws a
    /// fresh uniform pair.
    pub fn new() -> NormalSource {
        NormalSource::default()
    }

    /// Returns the next standard normal, drawing two uniforms from
    /// `rng` on every other call.
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.next_deferred(rng).value()
    }

    /// Returns the next standard normal unevaluated: the cosine half of
    /// a fresh uniform pair, or the sine half of the pending one.
    pub fn next_deferred<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Deferred {
        if let Some((u1, u2)) = self.pending.take() {
            return Deferred {
                u1,
                u2,
                half: Half::Sine,
            };
        }
        let z = Deferred::sample(rng);
        self.pending = Some((z.u1, z.u2));
        z
    }
}

/// Draws from `Binomial(n, p)`.
///
/// Uses CDF inversion (expected `O(n·p)` work) for small means and a
/// rounded, clamped Gaussian approximation when `n·p·(1−p) > 100`, which
/// is far beyond the accuracy the noise model needs.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
    assert!((0.0..=1.0).contains(&p), "p={p} out of range");
    // lint: allow(float_eq, exact degenerate-distribution sentinel; draws must be deterministic 0 at p=0)
    if n == 0 || p == 0.0 {
        return 0;
    }
    // lint: allow(float_eq, exact degenerate-distribution sentinel; draws must be deterministic n at p=1)
    if p == 1.0 {
        return n;
    }
    // Work with p ≤ 0.5 and mirror, keeping inversion cheap.
    if p > 0.5 {
        return n - sample_binomial(rng, n, 1.0 - p);
    }
    let mean = n as f64 * p;
    let var = mean * (1.0 - p);
    if var > 100.0 {
        let draw = sample_normal(rng, mean + 0.5, var.sqrt());
        return (draw.floor().max(0.0) as u32).min(n);
    }
    // CDF inversion.
    let u: f64 = rng.gen();
    let q = 1.0 - p;
    let ratio = p / q;
    let mut pmf = q.powi(n as i32);
    // lint: allow(float_eq, exact underflow-to-zero test: q^n denormal/zero would deadlock the inversion loop)
    if pmf == 0.0 {
        // Extremely small q^n (large n, moderate p): fall back to the
        // Gaussian approximation rather than loop on degenerate floats.
        let draw = sample_normal(rng, mean + 0.5, var.sqrt());
        return (draw.floor().max(0.0) as u32).min(n);
    }
    let mut cdf = pmf;
    let mut k = 0u32;
    while u > cdf && k < n {
        k += 1;
        pmf *= ratio * (n - k + 1) as f64 / k as f64;
        cdf += pmf;
    }
    k
}

/// Draws an exponential with the given mean.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential mean must be positive");
    let u: f64 = loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            break u;
        }
    };
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0x1234)
    }

    #[test]
    fn ln_factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn ln_choose_matches_pascal() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(128, 64) - (ln_factorial(128) - 2.0 * ln_factorial(64))).abs() < 1e-9);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(1u32, 0.3), (10, 0.05), (128, 0.145), (128, 0.9)] {
            let total: f64 = (0..=n).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn binomial_pmf_edge_probabilities() {
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 3, 0.0), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 4, 1.0), 0.0);
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
    }

    #[test]
    fn binomial_cdf_and_sf_complement() {
        let n = 50;
        let p = 0.2;
        for k in 1..=n {
            let total = binomial_cdf(n, k - 1, p) + binomial_sf(n, k, p);
            assert!((total - 1.0).abs() < 1e-9);
        }
        assert_eq!(binomial_cdf(10, 10, 0.3), 1.0);
        assert_eq!(binomial_sf(10, 0, 0.3), 1.0);
    }

    #[test]
    fn normal_sample_moments() {
        let mut rng = rng();
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = sample_normal(&mut rng, 3.0, 2.0);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn binomial_sample_moments_small() {
        let mut rng = rng();
        let (n_trials, n, p) = (20_000, 128u32, 0.05);
        let mut sum = 0u64;
        for _ in 0..n_trials {
            let k = sample_binomial(&mut rng, n, p);
            assert!(k <= n);
            sum += k as u64;
        }
        let mean = sum as f64 / n_trials as f64;
        assert!((mean - 6.4).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn binomial_sample_mirrored_p() {
        let mut rng = rng();
        let mut sum = 0u64;
        let trials = 20_000;
        for _ in 0..trials {
            sum += sample_binomial(&mut rng, 40, 0.9) as u64;
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 36.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn binomial_sample_gaussian_regime() {
        let mut rng = rng();
        let mut sum = 0u64;
        let trials = 20_000;
        for _ in 0..trials {
            let k = sample_binomial(&mut rng, 500, 0.5);
            assert!(k <= 500);
            sum += k as u64;
        }
        let mean = sum as f64 / trials as f64;
        assert!((mean - 250.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn binomial_sample_edges() {
        let mut rng = rng();
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 10, 1.0), 10);
    }

    #[test]
    fn normal_source_moments_and_pairing() {
        let mut rng = rng();
        let mut src = NormalSource::new();
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let x = src.next(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_source_cosine_branch_matches_single_draw() {
        // The first (cosine-branch) draw consumes the same uniforms in
        // the same order as the historical single-normal sampler.
        let mut a = rng();
        let mut b = rng();
        let mut src = NormalSource::new();
        assert_eq!(src.next(&mut a), sample_standard_normal(&mut b));
    }

    /// The historical eager single-draw sampler.
    fn eager_single<R: Rng>(rng: &mut R) -> f64 {
        let u1: f64 = loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                break u;
            }
        };
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// The historical eager paired sampler: `(cosine, sine)` halves.
    fn eager_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
        let u1: f64 = loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                break u;
            }
        };
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        (r * cos, r * sin)
    }

    #[test]
    fn deferred_value_reproduces_eager_samplers() {
        for seed in [1u64, 0x5EED, 0xDEAD_BEEF] {
            let mut eager = ChaCha8Rng::seed_from_u64(seed);
            let mut single = eager.clone();
            let mut deferred = eager.clone();
            for _ in 0..10_000 {
                let want = eager_single(&mut eager).to_bits();
                assert_eq!(sample_standard_normal(&mut single).to_bits(), want);
                assert_eq!(Deferred::sample(&mut deferred).value().to_bits(), want);
            }
            assert_eq!(single, eager, "seed {seed}: RNG position");
            assert_eq!(deferred, eager, "seed {seed}: RNG position");

            let mut eager = ChaCha8Rng::seed_from_u64(seed);
            let mut next_rng = eager.clone();
            let mut deferred_rng = eager.clone();
            let mut next = NormalSource::new();
            let mut deferred = NormalSource::new();
            for _ in 0..5_000 {
                let (cos, sin) = eager_pair(&mut eager);
                for want in [cos, sin] {
                    assert_eq!(next.next(&mut next_rng).to_bits(), want.to_bits());
                    let z = deferred.next_deferred(&mut deferred_rng);
                    assert_eq!(z.value().to_bits(), want.to_bits());
                }
                assert_eq!(next_rng, eager, "seed {seed}: RNG position");
                assert_eq!(deferred_rng, eager, "seed {seed}: RNG position");
            }
        }
    }

    #[test]
    fn bound_covers_value_at_every_binade_worst_case() {
        // θ = 0, π/2, π, 3π/2 put |cos| or |sin| at exactly 1; the rest
        // are interior angles.
        let u2s = [0.0, 0.25, 0.5, 0.75, 0.125, 0.3, 1.0 - 2f64.powi(-53)];
        // The smallest u1 of each binade maximises -ln u1 for its
        // exponent.
        let u1s = (-53..=-1).flat_map(|e| {
            let lowest = 2f64.powi(e);
            [lowest, lowest.next_up()]
        });
        for u1 in u1s {
            for u2 in u2s {
                for half in [Half::Cosine, Half::Sine] {
                    let z = Deferred { u1, u2, half };
                    assert!(
                        z.value().abs() <= z.bound(),
                        "u1 {u1:e} u2 {u2} {half:?}: |{}| > {}",
                        z.value(),
                        z.bound()
                    );
                }
            }
            // At the bottom of a binade the bound is tight up to its pad.
            let z = Deferred {
                u1,
                u2: 0.0,
                half: Half::Cosine,
            };
            if u1.to_bits().trailing_zeros() >= 52 {
                assert!(z.bound() <= z.value() * (1.0 + 1e-8), "u1 {u1:e}");
            }
        }
        let mut rng = rng();
        let mut src = NormalSource::new();
        for _ in 0..20_000 {
            let z = src.next_deferred(&mut rng);
            assert!(z.value().abs() <= z.bound());
        }
    }

    #[test]
    fn z_max_is_the_largest_bound() {
        let bound = |u1: f64| {
            Deferred {
                u1,
                u2: 0.0,
                half: Half::Cosine,
            }
            .bound()
        };
        // u1 = 2⁻⁵³ is the smallest uniform the sampler returns: a
        // nonzero multiple of 2⁻⁵³.
        assert_eq!(bound(2f64.powi(-53)).to_bits(), Z_MAX.to_bits());
        for e in -53..=-1 {
            let lowest = 2f64.powi(e);
            for u1 in [lowest, lowest.next_up(), 2.0 * lowest - 2f64.powi(-53)] {
                assert!(bound(u1) <= Z_MAX, "u1 {u1:e}");
            }
        }
    }

    #[test]
    fn exponential_sample_mean() {
        let mut rng = rng();
        let trials = 20_000;
        let mut sum = 0.0;
        for _ in 0..trials {
            sum += sample_exponential(&mut rng, 2.5);
        }
        let mean = sum / trials as f64;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
    }
}
