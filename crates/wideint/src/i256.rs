//! Signed 256-bit integer in sign-and-magnitude representation.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::U256;

/// A signed 256-bit integer stored as a sign and a [`U256`] magnitude.
///
/// Additive error syndromes in arithmetic codes can be negative (an analog
/// quantization error may push the digitized value above *or below* the
/// true result), so decoding needs small signed arithmetic around `U256`
/// values. `I256` provides just that: exact signed addition, subtraction
/// and comparison.
///
/// Negative zero is normalized away: a zero magnitude always compares and
/// formats as non-negative zero.
///
/// # Examples
///
/// ```
/// use wideint::{I256, U256};
///
/// let pos = I256::from(U256::from(5u64));
/// let neg = -I256::from(U256::from(8u64));
/// let sum = pos + neg;
/// assert_eq!(sum, I256::from_i128(-3));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct I256 {
    negative: bool,
    magnitude: U256,
}

impl I256 {
    /// The value `0`.
    pub const ZERO: I256 = I256 {
        negative: false,
        magnitude: U256::ZERO,
    };

    /// Creates a signed value from a sign flag and a magnitude.
    ///
    /// A zero magnitude always produces non-negative zero.
    #[inline]
    pub fn new(negative: bool, magnitude: U256) -> I256 {
        I256 {
            negative: negative && !magnitude.is_zero(),
            magnitude,
        }
    }

    /// Creates a value from an `i128`.
    #[inline]
    pub fn from_i128(v: i128) -> I256 {
        I256::new(v < 0, U256::from(v.unsigned_abs()))
    }

    /// Returns the magnitude (absolute value).
    #[inline]
    pub fn magnitude(self) -> U256 {
        self.magnitude
    }

    /// Returns `true` if the value is strictly negative.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.negative
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.magnitude.is_zero()
    }

    /// Converts to `i128`, returning `None` if the value does not fit.
    pub fn to_i128(self) -> Option<i128> {
        let mag = self.magnitude.to_u128()?;
        if self.negative {
            if mag > i128::MAX as u128 + 1 {
                None
            } else {
                Some((mag as i128).wrapping_neg())
            }
        } else if mag > i128::MAX as u128 {
            None
        } else {
            Some(mag as i128)
        }
    }

    /// Checked addition; `None` if the magnitude overflows 256 bits.
    pub fn checked_add(self, rhs: I256) -> Option<I256> {
        if self.negative == rhs.negative {
            Some(I256::new(
                self.negative,
                self.magnitude.checked_add(rhs.magnitude)?,
            ))
        } else if self.magnitude >= rhs.magnitude {
            Some(I256::new(
                self.negative,
                self.magnitude.wrapping_sub(rhs.magnitude),
            ))
        } else {
            Some(I256::new(
                rhs.negative,
                rhs.magnitude.wrapping_sub(self.magnitude),
            ))
        }
    }

    /// Checked subtraction; `None` if the magnitude overflows 256 bits.
    #[inline]
    pub fn checked_sub(self, rhs: I256) -> Option<I256> {
        self.checked_add(-rhs)
    }

    /// Checked multiplication; `None` if the magnitude overflows 256 bits.
    #[inline]
    pub fn checked_mul(self, rhs: I256) -> Option<I256> {
        Some(I256::new(
            self.negative != rhs.negative,
            self.magnitude.checked_mul(rhs.magnitude)?,
        ))
    }

    /// Euclidean remainder by a positive `u64` modulus: the result is
    /// always in `0..modulus`.
    ///
    /// This is the operation used to map a (possibly negative) additive
    /// syndrome to its residue class for correction-table lookup.
    ///
    /// Returns `None` if `modulus == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wideint::I256;
    /// let s = I256::from_i128(-5);
    /// assert_eq!(s.rem_euclid_u64(19), Some(14));
    /// ```
    pub fn rem_euclid_u64(self, modulus: u64) -> Option<u64> {
        let r = self.magnitude.rem_u64(modulus)?;
        if self.negative && r != 0 {
            Some(modulus - r)
        } else {
            Some(r)
        }
    }

    /// Exact division by a positive `u64` divisor.
    ///
    /// Returns `None` if `divisor == 0` or `self` is not divisible by
    /// `divisor`. Arithmetic-code decoding relies on exact divisions:
    /// after subtracting a syndrome whose residue matches, the corrected
    /// value is divisible by `A` by construction.
    ///
    /// # Examples
    ///
    /// ```
    /// use wideint::I256;
    /// assert_eq!(I256::from_i128(-38).div_exact_u64(19), Some(I256::from_i128(-2)));
    /// assert_eq!(I256::from_i128(-39).div_exact_u64(19), None);
    /// ```
    pub fn div_exact_u64(self, divisor: u64) -> Option<I256> {
        let (q, r) = self.magnitude.div_rem_u64(divisor)?;
        if r != 0 {
            None
        } else {
            Some(I256::new(self.negative, q))
        }
    }

    /// Shifts the magnitude left by `shift` bits (multiplication by
    /// `2^shift`), preserving the sign.
    ///
    /// # Panics
    ///
    /// Panics if the shifted magnitude would overflow 256 bits.
    #[must_use]
    pub fn shifted_left(self, shift: u32) -> I256 {
        if self.is_zero() {
            return I256::ZERO;
        }
        assert!(self.magnitude.bits() + shift <= 256, "I256 shift overflow");
        I256::new(self.negative, self.magnitude << shift)
    }

    /// Division by a positive `u64` divisor, rounded to the nearest
    /// integer (ties round away from zero).
    ///
    /// Returns `None` if `divisor == 0`. Used to recover a best-effort
    /// data value from an encoded result that still carries an
    /// uncorrectable error.
    ///
    /// # Examples
    ///
    /// ```
    /// use wideint::I256;
    /// assert_eq!(I256::from_i128(40).div_round_u64(19), Some(I256::from_i128(2)));
    /// assert_eq!(I256::from_i128(-48).div_round_u64(19), Some(I256::from_i128(-3)));
    /// ```
    pub fn div_round_u64(self, divisor: u64) -> Option<I256> {
        let (q, r) = self.magnitude.div_rem_u64(divisor)?;
        let rounded = if r as u128 * 2 >= divisor as u128 {
            q + U256::ONE
        } else {
            q
        };
        Some(I256::new(self.negative, rounded))
    }
}

impl From<U256> for I256 {
    #[inline]
    fn from(v: U256) -> I256 {
        I256::new(false, v)
    }
}

impl From<i64> for I256 {
    #[inline]
    fn from(v: i64) -> I256 {
        I256::from_i128(v as i128)
    }
}

impl Neg for I256 {
    type Output = I256;
    #[inline]
    fn neg(self) -> I256 {
        I256::new(!self.negative, self.magnitude)
    }
}

impl Add for I256 {
    type Output = I256;
    #[inline]
    fn add(self, rhs: I256) -> I256 {
        // lint: allow(panic_reachability, the Add operator trait cannot return Result; overflow here mirrors primitive integer overflow semantics, and coded-arithmetic callers bound operands via checked ops first)
        self.checked_add(rhs).expect("I256 addition overflow")
    }
}

impl Sub for I256 {
    type Output = I256;
    #[inline]
    fn sub(self, rhs: I256) -> I256 {
        self.checked_sub(rhs).expect("I256 subtraction overflow")
    }
}

impl Mul for I256 {
    type Output = I256;
    #[inline]
    fn mul(self, rhs: I256) -> I256 {
        self.checked_mul(rhs).expect("I256 multiplication overflow")
    }
}

impl AddAssign for I256 {
    #[inline]
    fn add_assign(&mut self, rhs: I256) {
        *self = *self + rhs;
    }
}

impl SubAssign for I256 {
    #[inline]
    fn sub_assign(&mut self, rhs: I256) {
        *self = *self - rhs;
    }
}

impl Ord for I256 {
    fn cmp(&self, other: &I256) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.magnitude.cmp(&other.magnitude),
            (true, true) => other.magnitude.cmp(&self.magnitude),
        }
    }
}

impl PartialOrd for I256 {
    #[inline]
    fn partial_cmp(&self, other: &I256) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Sum for I256 {
    fn sum<I: Iterator<Item = I256>>(iter: I) -> I256 {
        iter.fold(I256::ZERO, |acc, v| acc + v)
    }
}

impl fmt::Display for I256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.magnitude.to_string();
        f.pad_integral(!self.negative, "", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_zero_is_normalized() {
        let z = I256::new(true, U256::ZERO);
        assert!(!z.is_negative());
        assert_eq!(z, I256::ZERO);
        assert_eq!((-I256::ZERO), I256::ZERO);
        assert_eq!(I256::default(), I256::ZERO);
    }

    #[test]
    fn from_i128_roundtrip() {
        for v in [
            -170141183460469231731687303715884105728i128,
            -5,
            0,
            7,
            i128::MAX,
        ] {
            assert_eq!(I256::from_i128(v).to_i128(), Some(v));
        }
    }

    #[test]
    fn signed_addition() {
        let a = I256::from_i128(10);
        let b = I256::from_i128(-4);
        assert_eq!(a + b, I256::from_i128(6));
        assert_eq!(b + a, I256::from_i128(6));
        assert_eq!(a + (-a), I256::ZERO);
        assert_eq!(
            I256::from_i128(-3) + I256::from_i128(-4),
            I256::from_i128(-7)
        );
    }

    #[test]
    fn signed_subtraction() {
        assert_eq!(
            I256::from_i128(3) - I256::from_i128(10),
            I256::from_i128(-7)
        );
    }

    #[test]
    fn signed_multiplication() {
        assert_eq!(
            I256::from_i128(-3) * I256::from_i128(4),
            I256::from_i128(-12)
        );
        assert_eq!(
            I256::from_i128(-3) * I256::from_i128(-4),
            I256::from_i128(12)
        );
    }

    #[test]
    fn euclid_residue_of_negative_syndrome() {
        // -2^i mod A lands in 0..A regardless of sign.
        let s = I256::from_i128(-(1i128 << 20));
        let r = s.rem_euclid_u64(79).unwrap();
        assert!(r < 79);
        let back = (r as i128 - (-(1i128 << 20))) % 79;
        assert_eq!(back, 0);
        assert_eq!(I256::ZERO.rem_euclid_u64(19), Some(0));
        assert_eq!(I256::from_i128(-19).rem_euclid_u64(19), Some(0));
        assert!(I256::ZERO.rem_euclid_u64(0).is_none());
    }

    #[test]
    fn ordering_across_signs() {
        let vals = [
            I256::from_i128(-10),
            I256::from_i128(-1),
            I256::ZERO,
            I256::from_i128(1),
            I256::from_i128(10),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn display_negative() {
        assert_eq!(I256::from_i128(-42).to_string(), "-42");
        assert_eq!(I256::ZERO.to_string(), "0");
    }

    #[test]
    fn sum_mixed_signs() {
        let total: I256 = [3i64, -5, 7, -1].into_iter().map(I256::from).sum();
        assert_eq!(total, I256::from_i128(4));
    }

    #[test]
    fn overflow_detected() {
        let max = I256::from(U256::MAX);
        assert!(max.checked_add(I256::from_i128(1)).is_none());
        assert!(max.checked_mul(I256::from_i128(2)).is_none());
        assert!(max.checked_add(max).is_none());
    }
}
