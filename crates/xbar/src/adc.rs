//! ADC quantization of bitline currents.

use crate::{DeviceParams, InputMask};

/// An idealized row ADC.
///
/// The converter digitizes a row current into the integer dot-product
/// contribution of that physical row. The driver electronics know the
/// input mask, so the data-independent offset current contributed by the
/// finite off-state conductance (`n_active · V · G_min`) is subtracted
/// before quantization, and the output is clamped to the representable
/// range `[0, n_active · max_level]`.
///
/// Mis-quantization — noise pushing the current across a `±0.5 LSB`
/// boundary — is exactly the integer additive error the AN codes are
/// designed to correct.
///
/// # Examples
///
/// ```
/// use xbar::{Adc, DeviceParams, InputMask};
///
/// let params = DeviceParams::default();
/// let adc = Adc::new(&params);
/// let mask = InputMask::all_ones(4);
///
/// // Four driven cells at levels 3, 1, 0, 2 → ideal output 6.
/// let current: f64 = [3, 1, 0, 2]
///     .iter()
///     .map(|&l| params.cell_current(l))
///     .sum();
/// assert_eq!(adc.quantize(current, &mask), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adc {
    /// Current per output LSB: `v_read · g_step`.
    lsb: f64,
    /// Reciprocal of `lsb`, precomputed for the batched read path
    /// ([`quantize_fast`](Adc::quantize_fast)).
    lsb_recip: f64,
    /// Offset current per active column: `v_read · g_min`.
    offset_per_active: f64,
    /// Largest level one cell can contribute.
    max_level: u32,
}

impl Adc {
    /// Creates the ADC matching a device's level spacing.
    pub fn new(params: &DeviceParams) -> Adc {
        let lsb = params.v_read * params.g_step();
        Adc {
            lsb,
            lsb_recip: 1.0 / lsb,
            offset_per_active: params.v_read / params.r_hi,
            max_level: params.max_level(),
        }
    }

    /// The current corresponding to one output LSB.
    pub fn lsb(&self) -> f64 {
        self.lsb
    }

    /// Quantizes a row current to its integer output for the given
    /// input mask.
    #[inline]
    pub fn quantize(&self, current: f64, mask: &InputMask) -> u32 {
        self.quantize_active(current, mask.count_ones())
    }

    /// [`quantize`](Adc::quantize) given the mask's precomputed
    /// active-column count, for read loops that quantize many rows
    /// under one mask.
    #[inline]
    pub(crate) fn quantize_active(&self, current: f64, active: u32) -> u32 {
        let corrected = current - active as f64 * self.offset_per_active;
        let code = (corrected / self.lsb).round();
        let max = (active * self.max_level) as f64;
        code.clamp(0.0, max) as u32
    }

    /// Quantizes a row current given a precomputed active-column count,
    /// dividing by multiply-with-reciprocal. Used by the batched read
    /// path, where the per-read divide is measurable; the reciprocal
    /// multiply can round differently from the exact divide within
    /// half an ulp of an LSB boundary, which the batched goldens pin.
    #[inline]
    pub(crate) fn quantize_fast(&self, current: f64, active: u32) -> u32 {
        let corrected = current - active as f64 * self.offset_per_active;
        let code = (corrected * self.lsb_recip).round();
        let max = (active * self.max_level) as f64;
        code_to_u32(code.clamp(0.0, max))
    }

    /// The ideal (noise-free) current for integer output `code` under
    /// `mask` — the inverse of [`quantize`](Adc::quantize) at boundary
    /// centers.
    pub fn ideal_current(&self, code: u32, mask: &InputMask) -> f64 {
        code as f64 * self.lsb + mask.count_ones() as f64 * self.offset_per_active
    }
}

/// `code as u32` for a clamped ADC code: NaN or an integer in
/// `[0, 2³¹)`, since a code is at most `128 · 255`.
///
/// Adding `2⁵²` puts such an integer, exactly, in the low mantissa
/// bits, so the conversion is a float add and a bit truncation, which
/// the compiler runs across vector lanes (it converts saturating
/// `as u32` one lane at a time). NaN, which `as u32` sends to 0, is
/// selected out; `−0.0 + 2⁵²` is `2⁵²`, so `−0.0` gives 0 too.
#[inline]
fn code_to_u32(code: f64) -> u32 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let low = (code + TWO_52).to_bits() as u32;
    if code.is_nan() {
        0
    } else {
        low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc_and_params() -> (Adc, DeviceParams) {
        let p = DeviceParams::default();
        (Adc::new(&p), p)
    }

    #[test]
    fn quantizes_exact_levels() {
        let (adc, p) = adc_and_params();
        let mask = InputMask::all_ones(3);
        for total in 0..=9u32 {
            // Compose any cell currents summing to `total` level units.
            let current = total as f64 * p.v_read * p.g_step() + 3.0 * p.v_read / p.r_hi;
            assert_eq!(adc.quantize(current, &mask), total);
        }
    }

    #[test]
    fn noise_below_half_lsb_is_absorbed() {
        let (adc, _) = adc_and_params();
        let mask = InputMask::all_ones(2);
        let clean = adc.ideal_current(3, &mask);
        assert_eq!(adc.quantize(clean + 0.49 * adc.lsb(), &mask), 3);
        assert_eq!(adc.quantize(clean - 0.49 * adc.lsb(), &mask), 3);
        assert_eq!(adc.quantize(clean + 0.51 * adc.lsb(), &mask), 4);
        assert_eq!(adc.quantize(clean - 0.51 * adc.lsb(), &mask), 2);
    }

    #[test]
    fn clamps_to_range() {
        let (adc, _) = adc_and_params();
        let mask = InputMask::all_ones(2);
        // 2 active cells × max level 3 → 6.
        assert_eq!(adc.quantize(1.0, &mask), 6);
        assert_eq!(adc.quantize(-1.0, &mask), 0);
    }

    #[test]
    fn roundtrip_through_ideal_current() {
        let (adc, _) = adc_and_params();
        let mask = InputMask::all_ones(7);
        for code in [0u32, 1, 5, 21] {
            assert_eq!(adc.quantize(adc.ideal_current(code, &mask), &mask), code);
        }
    }

    #[test]
    fn quantize_fast_agrees_with_quantize() {
        let (adc, p) = adc_and_params();
        for n in [1u32, 3, 17, 128] {
            let mask = InputMask::all_ones(n);
            for code in [0u32, 1, 2, 3 * n] {
                let clean = adc.ideal_current(code, &mask);
                for jitter in [-0.4, -0.1, 0.0, 0.1, 0.4] {
                    let current = clean + jitter * adc.lsb() + 0.3 * p.v_read / p.r_hi;
                    assert_eq!(
                        adc.quantize_fast(current, n),
                        adc.quantize(current, &mask),
                        "n={n} code={code} jitter={jitter}"
                    );
                }
            }
        }
    }

    #[test]
    fn code_conversion_matches_saturating_cast() {
        let mut codes = vec![0.0, -0.0, f64::NAN, -f64::NAN, 1.0, 32640.0];
        codes.extend((0..=32640).step_by(7).map(f64::from));
        for code in codes {
            assert_eq!(code_to_u32(code), code as u32, "{code}");
        }
    }

    #[test]
    fn offset_subtraction_tracks_active_count() {
        let (adc, p) = adc_and_params();
        // Same stored data, different numbers of active columns: the
        // offset correction keeps the code equal to the active sum.
        for n in [1u32, 4, 64, 128] {
            let mask = InputMask::all_ones(n);
            let current: f64 = (0..n).map(|_| p.cell_current(2)).sum();
            assert_eq!(adc.quantize(current, &mask), 2 * n);
        }
    }
}
