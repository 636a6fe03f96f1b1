//! Unsigned 256-bit integer.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{
    Add, AddAssign, BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Div, Mul,
    MulAssign, Not, Rem, Shl, ShlAssign, Shr, ShrAssign, Sub, SubAssign,
};
use std::str::FromStr;

/// An unsigned 256-bit integer stored as four little-endian `u64` limbs.
///
/// `U256` supports the exact arithmetic required by arithmetic
/// error-correcting codes: wide multiplication, division with remainder,
/// and bit-level access. Arithmetic operators panic on overflow (like the
/// built-in integer types in debug mode, but unconditionally), while the
/// `checked_*`, `wrapping_*` and `overflowing_*` methods give explicit
/// control.
///
/// # Examples
///
/// ```
/// use wideint::U256;
///
/// let x = U256::from(u128::MAX);
/// let y = x + U256::ONE;
/// assert_eq!(y >> 128u32, U256::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value `1`.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };
    /// The number of bits in the type.
    pub const BITS: u32 = 256;

    /// Creates a value from little-endian limbs (`limbs[0]` is least
    /// significant).
    ///
    /// # Examples
    ///
    /// ```
    /// use wideint::U256;
    /// let x = U256::from_limbs([5, 0, 0, 0]);
    /// assert_eq!(x, U256::from(5u64));
    /// ```
    #[inline]
    pub const fn from_limbs(limbs: [u64; 4]) -> U256 {
        U256 { limbs }
    }

    /// Returns the little-endian limb representation.
    #[inline]
    pub const fn to_limbs(self) -> [u64; 4] {
        self.limbs
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.limbs[0] == 0 && self.limbs[1] == 0 && self.limbs[2] == 0 && self.limbs[3] == 0
    }

    /// Returns `2^exp`.
    ///
    /// # Panics
    ///
    /// Panics if `exp >= 256`.
    #[inline]
    pub fn pow2(exp: u32) -> U256 {
        assert!(exp < 256, "pow2 exponent {exp} out of range");
        U256::ONE << exp
    }

    /// Returns the value of bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[inline]
    pub fn bit(self, i: u32) -> bool {
        assert!(i < 256, "bit index {i} out of range");
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1 // lint: allow(lossy_cast, i < 256 so the limb index is < 4)
    }

    /// Returns a copy of `self` with bit `i` set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[inline]
    #[must_use]
    pub fn with_bit(mut self, i: u32, value: bool) -> U256 {
        assert!(i < 256, "bit index {i} out of range");
        let limb = &mut self.limbs[(i / 64) as usize]; // lint: allow(lossy_cast, i < 256 so the limb index is < 4)
        if value {
            *limb |= 1 << (i % 64);
        } else {
            *limb &= !(1 << (i % 64));
        }
        self
    }

    /// Returns the number of leading zero bits.
    #[inline]
    pub fn leading_zeros(self) -> u32 {
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if limb != 0 {
                return (3 - i as u32) * 64 + limb.leading_zeros(); // lint: allow(lossy_cast, i is a limb index < 4)
            }
        }
        256
    }

    /// Returns the number of trailing zero bits (256 for zero).
    #[inline]
    pub fn trailing_zeros(self) -> u32 {
        for (i, &limb) in self.limbs.iter().enumerate() {
            if limb != 0 {
                return i as u32 * 64 + limb.trailing_zeros(); // lint: allow(lossy_cast, i is a limb index < 4)
            }
        }
        256
    }

    /// Returns the number of one bits.
    #[inline]
    pub fn count_ones(self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }

    /// Returns the minimal number of bits needed to represent the value
    /// (`0` for zero).
    #[inline]
    pub fn bits(self) -> u32 {
        256 - self.leading_zeros()
    }

    /// Addition returning the wrapped result and a carry flag.
    #[inline]
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Subtraction returning the wrapped result and a borrow flag.
    #[inline]
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Multiplication returning the low 256 bits and an overflow flag.
    pub fn overflowing_mul(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u64;
            for j in 0..4 {
                let wide = self.limbs[i] as u128 * rhs.limbs[j] as u128
                    + out[i + j] as u128
                    + carry as u128;
                out[i + j] = wide as u64; // lint: allow(lossy_cast, intentional low-half extraction of the 128-bit partial product)
                carry = (wide >> 64) as u64; // lint: allow(lossy_cast, high half fits after the shift)
            }
            out[i + 4] = out[i + 4].wrapping_add(carry);
        }
        let overflow = out[4] | out[5] | out[6] | out[7] != 0;
        (
            U256 {
                limbs: [out[0], out[1], out[2], out[3]],
            },
            overflow,
        )
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction; `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked multiplication; `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Wrapping (modulo `2^256`) addition.
    #[inline]
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping (modulo `2^256`) subtraction.
    #[inline]
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Wrapping (modulo `2^256`) multiplication.
    #[inline]
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        self.overflowing_mul(rhs).0
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    #[inline]
    pub fn saturating_sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).unwrap_or(U256::ZERO)
    }

    /// Multiplies by a `u64`, returning `None` on overflow.
    #[inline]
    pub fn checked_mul_u64(self, rhs: u64) -> Option<U256> {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let wide = self.limbs[i] as u128 * rhs as u128 + carry as u128;
            out[i] = wide as u64; // lint: allow(lossy_cast, intentional low-half extraction of the 128-bit partial product)
            carry = (wide >> 64) as u64; // lint: allow(lossy_cast, high half fits after the shift)
        }
        if carry != 0 {
            None
        } else {
            Some(U256 { limbs: out })
        }
    }

    /// Divides by a `u64` divisor, returning `(quotient, remainder)`.
    ///
    /// Long division, limb by limb from the top. Zero high limbs are
    /// skipped (their quotient limbs are zero and the remainder stays
    /// 0), a limb reached with a zero remainder takes one `u64`
    /// division, and every other limb one `u128` division whose
    /// remainder is taken by multiply-subtract, so a value that fits
    /// one limb costs one machine division.
    ///
    /// Returns `None` if `divisor == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wideint::U256;
    /// let (q, r) = U256::from(1000u64).div_rem_u64(19).unwrap();
    /// assert_eq!((q, r), (U256::from(52u64), 12));
    /// ```
    #[inline]
    pub fn div_rem_u64(self, divisor: u64) -> Option<(U256, u64)> {
        if divisor == 0 {
            return None;
        }
        let mut quotient = [0u64; 4];
        let mut rem = 0u64;
        let top = self
            .limbs
            .iter()
            .rposition(|&l| l != 0)
            .map_or(0, |i| i + 1);
        for i in (0..top).rev() {
            let limb = self.limbs[i];
            if rem == 0 {
                quotient[i] = limb / divisor;
                rem = limb % divisor;
            } else {
                // Long-division invariant: rem < divisor <= u64::MAX
                // going in, so cur < divisor * 2^64 and the per-limb
                // quotient fits in 64 bits.
                let cur = (u128::from(rem) << 64) | u128::from(limb);
                let q = (cur / u128::from(divisor)) as u64; // lint: allow(lossy_cast, quotient < 2^64 by the long-division invariant)
                quotient[i] = q;
                rem = (cur - u128::from(q) * u128::from(divisor)) as u64; // lint: allow(lossy_cast, the remainder is below divisor, a u64)
            }
        }
        Some((U256 { limbs: quotient }, rem))
    }

    /// Returns `self % divisor` for a `u64` divisor, or `None` if
    /// `divisor == 0`.
    #[inline]
    pub fn rem_u64(self, divisor: u64) -> Option<u64> {
        self.div_rem_u64(divisor).map(|(_, r)| r)
    }

    /// Full division with remainder.
    ///
    /// Returns `None` if `divisor` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use wideint::U256;
    /// let n = U256::from(12345u64);
    /// let d = U256::from(79u64);
    /// let (q, r) = n.div_rem(d).unwrap();
    /// assert_eq!(q * d + r, n);
    /// ```
    pub fn div_rem(self, divisor: U256) -> Option<(U256, U256)> {
        if divisor.is_zero() {
            return None;
        }
        if divisor.bits() <= 64 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0])?;
            return Some((q, U256::from(r)));
        }
        Some(self.div_rem_bitwise(divisor))
    }

    /// Binary long division by a nonzero divisor, one quotient bit at a
    /// time: the general path of [`div_rem`](U256::div_rem), and the
    /// independent reference its `u64` fast path is tested against.
    fn div_rem_bitwise(self, divisor: U256) -> (U256, U256) {
        if self < divisor {
            return (U256::ZERO, self);
        }
        // Long division, one bit at a time, starting from the highest bit
        // of the dividend that could produce a nonzero quotient bit.
        let shift = divisor.leading_zeros() - self.leading_zeros();
        let mut quotient = U256::ZERO;
        let mut rem = self;
        let mut d = divisor << shift;
        for i in (0..=shift).rev() {
            if rem >= d {
                rem = rem.wrapping_sub(d);
                quotient = quotient.with_bit(i, true);
            }
            d = d >> 1u32;
        }
        (quotient, rem)
    }

    /// Converts to `u64`, returning `None` if the value does not fit.
    #[inline]
    pub fn to_u64(self) -> Option<u64> {
        if self.limbs[1] | self.limbs[2] | self.limbs[3] == 0 {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// Converts to `u128`, returning `None` if the value does not fit.
    #[inline]
    pub fn to_u128(self) -> Option<u128> {
        if self.limbs[2] | self.limbs[3] == 0 {
            Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64)
        } else {
            None
        }
    }

    /// Extracts `width` bits starting at bit `lo` as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `lo + width > 256`.
    pub fn extract_bits(self, lo: u32, width: u32) -> u64 {
        assert!(width <= 64, "extract width {width} > 64");
        assert!(lo + width <= 256, "extract range out of bounds");
        if width == 0 {
            return 0;
        }
        let shifted = self >> lo;
        let lowest = shifted.limbs[0];
        if width == 64 {
            lowest
        } else {
            lowest & ((1u64 << width) - 1)
        }
    }
}

impl From<u8> for U256 {
    #[inline]
    fn from(v: u8) -> U256 {
        U256::from(u64::from(v))
    }
}

impl From<u16> for U256 {
    #[inline]
    fn from(v: u16) -> U256 {
        U256::from(u64::from(v))
    }
}

impl From<u32> for U256 {
    #[inline]
    fn from(v: u32) -> U256 {
        U256::from(u64::from(v))
    }
}

impl From<u64> for U256 {
    #[inline]
    fn from(v: u64) -> U256 {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }
}

impl From<u128> for U256 {
    #[inline]
    fn from(v: u128) -> U256 {
        U256 {
            // lint: allow(lossy_cast, intentional limb split of the u128)
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }
}

impl From<usize> for U256 {
    #[inline]
    fn from(v: usize) -> U256 {
        U256::from(v as u64) // lint: allow(lossy_cast, usize is at most 64 bits on every supported target)
    }
}

impl TryFrom<U256> for u64 {
    type Error = ParseU256Error;
    fn try_from(v: U256) -> Result<u64, ParseU256Error> {
        v.to_u64().ok_or(ParseU256Error::Overflow)
    }
}

impl TryFrom<U256> for u128 {
    type Error = ParseU256Error;
    fn try_from(v: U256) -> Result<u128, ParseU256Error> {
        v.to_u128().ok_or(ParseU256Error::Overflow)
    }
}

impl Ord for U256 {
    #[inline]
    fn cmp(&self, other: &U256) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    #[inline]
    fn partial_cmp(&self, other: &U256) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for U256 {
    type Output = U256;
    #[inline]
    fn add(self, rhs: U256) -> U256 {
        // lint: allow(panic_reachability, the Add operator trait cannot return Result; overflow here mirrors primitive integer overflow semantics, and coded-arithmetic callers bound operands via checked_mul/checked_add first)
        self.checked_add(rhs).expect("U256 addition overflow")
    }
}

impl Sub for U256 {
    type Output = U256;
    #[inline]
    fn sub(self, rhs: U256) -> U256 {
        self.checked_sub(rhs).expect("U256 subtraction underflow")
    }
}

impl Mul for U256 {
    type Output = U256;
    #[inline]
    fn mul(self, rhs: U256) -> U256 {
        self.checked_mul(rhs).expect("U256 multiplication overflow")
    }
}

impl Div for U256 {
    type Output = U256;
    #[inline]
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).expect("U256 division by zero").0
    }
}

impl Rem for U256 {
    type Output = U256;
    #[inline]
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).expect("U256 division by zero").1
    }
}

impl AddAssign for U256 {
    #[inline]
    fn add_assign(&mut self, rhs: U256) {
        *self = *self + rhs;
    }
}

impl SubAssign for U256 {
    #[inline]
    fn sub_assign(&mut self, rhs: U256) {
        *self = *self - rhs;
    }
}

impl MulAssign for U256 {
    #[inline]
    fn mul_assign(&mut self, rhs: U256) {
        *self = *self * rhs;
    }
}

macro_rules! impl_shift {
    ($ty:ty) => {
        impl Shl<$ty> for U256 {
            type Output = U256;
            #[inline]
            fn shl(self, shift: $ty) -> U256 {
                // A `shift as u32` here would wrap for shifts >= 2^32
                // and silently shift by the low bits instead; saturate,
                // so any shift too big for u32 flushes to zero below.
                let shift = u32::try_from(shift).unwrap_or(u32::MAX);
                if shift >= 256 {
                    return U256::ZERO;
                }
                let limb_shift = (shift / 64) as usize; // lint: allow(lossy_cast, shift < 256 so the limb index is < 4)
                let bit_shift = shift % 64;
                let mut out = [0u64; 4];
                for i in (limb_shift..4).rev() {
                    out[i] = self.limbs[i - limb_shift] << bit_shift;
                    if bit_shift > 0 && i > limb_shift {
                        out[i] |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
                    }
                }
                U256 { limbs: out }
            }
        }

        impl Shr<$ty> for U256 {
            type Output = U256;
            #[inline]
            fn shr(self, shift: $ty) -> U256 {
                // Same wrap hazard as `shl`: saturate oversized shifts
                // instead of truncating them.
                let shift = u32::try_from(shift).unwrap_or(u32::MAX);
                if shift >= 256 {
                    return U256::ZERO;
                }
                let limb_shift = (shift / 64) as usize; // lint: allow(lossy_cast, shift < 256 so the limb index is < 4)
                let bit_shift = shift % 64;
                let mut out = [0u64; 4];
                for i in 0..(4 - limb_shift) {
                    out[i] = self.limbs[i + limb_shift] >> bit_shift;
                    if bit_shift > 0 && i + limb_shift + 1 < 4 {
                        out[i] |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
                    }
                }
                U256 { limbs: out }
            }
        }

        impl ShlAssign<$ty> for U256 {
            #[inline]
            fn shl_assign(&mut self, shift: $ty) {
                *self = *self << shift;
            }
        }

        impl ShrAssign<$ty> for U256 {
            #[inline]
            fn shr_assign(&mut self, shift: $ty) {
                *self = *self >> shift;
            }
        }
    };
}

impl_shift!(u32);
impl_shift!(usize);

impl BitAnd for U256 {
    type Output = U256;
    #[inline]
    fn bitand(self, rhs: U256) -> U256 {
        U256 {
            limbs: [
                self.limbs[0] & rhs.limbs[0],
                self.limbs[1] & rhs.limbs[1],
                self.limbs[2] & rhs.limbs[2],
                self.limbs[3] & rhs.limbs[3],
            ],
        }
    }
}

impl BitOr for U256 {
    type Output = U256;
    #[inline]
    fn bitor(self, rhs: U256) -> U256 {
        U256 {
            limbs: [
                self.limbs[0] | rhs.limbs[0],
                self.limbs[1] | rhs.limbs[1],
                self.limbs[2] | rhs.limbs[2],
                self.limbs[3] | rhs.limbs[3],
            ],
        }
    }
}

impl BitXor for U256 {
    type Output = U256;
    #[inline]
    fn bitxor(self, rhs: U256) -> U256 {
        U256 {
            limbs: [
                self.limbs[0] ^ rhs.limbs[0],
                self.limbs[1] ^ rhs.limbs[1],
                self.limbs[2] ^ rhs.limbs[2],
                self.limbs[3] ^ rhs.limbs[3],
            ],
        }
    }
}

impl BitAndAssign for U256 {
    #[inline]
    fn bitand_assign(&mut self, rhs: U256) {
        *self = *self & rhs;
    }
}

impl BitOrAssign for U256 {
    #[inline]
    fn bitor_assign(&mut self, rhs: U256) {
        *self = *self | rhs;
    }
}

impl BitXorAssign for U256 {
    #[inline]
    fn bitxor_assign(&mut self, rhs: U256) {
        *self = *self ^ rhs;
    }
}

impl Not for U256 {
    type Output = U256;
    #[inline]
    fn not(self) -> U256 {
        U256 {
            limbs: [
                !self.limbs[0],
                !self.limbs[1],
                !self.limbs[2],
                !self.limbs[3],
            ],
        }
    }
}

impl Sum for U256 {
    fn sum<I: Iterator<Item = U256>>(iter: I) -> U256 {
        iter.fold(U256::ZERO, |acc, v| acc + v)
    }
}

impl Product for U256 {
    fn product<I: Iterator<Item = U256>>(iter: I) -> U256 {
        iter.fold(U256::ONE, |acc, v| acc * v)
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        let mut digits = Vec::with_capacity(78);
        let mut v = *self;
        while !v.is_zero() {
            let (q, r) = v.div_rem_u64(10).expect("nonzero divisor");
            digits.push(b'0' + r as u8); // lint: allow(lossy_cast, r < 10 from div_rem_u64(10))
            v = q;
        }
        digits.reverse();
        let s = std::str::from_utf8(&digits).expect("ASCII digits");
        f.pad_integral(true, "", s)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        let mut seen = false;
        for &limb in self.limbs.iter().rev() {
            if seen {
                s.push_str(&format!("{limb:016x}"));
            } else if limb != 0 {
                s.push_str(&format!("{limb:x}"));
                seen = true;
            }
        }
        if !seen {
            s.push('0');
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::Binary for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        let mut seen = false;
        for &limb in self.limbs.iter().rev() {
            if seen {
                s.push_str(&format!("{limb:064b}"));
            } else if limb != 0 {
                s.push_str(&format!("{limb:b}"));
                seen = true;
            }
        }
        if !seen {
            s.push('0');
        }
        f.pad_integral(true, "0b", &s)
    }
}

/// Error produced when parsing or converting a [`U256`] fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseU256Error {
    /// The string was empty.
    Empty,
    /// A character was not a decimal digit.
    InvalidDigit,
    /// The value does not fit in the target type.
    Overflow,
}

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseU256Error::Empty => write!(f, "cannot parse integer from empty string"),
            ParseU256Error::InvalidDigit => write!(f, "invalid digit found in string"),
            ParseU256Error::Overflow => write!(f, "number too large to fit in target type"),
        }
    }
}

impl Error for ParseU256Error {}

impl FromStr for U256 {
    type Err = ParseU256Error;

    fn from_str(s: &str) -> Result<U256, ParseU256Error> {
        if s.is_empty() {
            return Err(ParseU256Error::Empty);
        }
        let mut v = U256::ZERO;
        for c in s.bytes() {
            let digit = match c {
                b'0'..=b'9' => u64::from(c - b'0'),
                _ => return Err(ParseU256Error::InvalidDigit),
            };
            v = v
                .checked_mul_u64(10)
                .and_then(|v| v.checked_add(U256::from(digit)))
                .ok_or(ParseU256Error::Overflow)?;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert_eq!(U256::ZERO + U256::ONE, U256::ONE);
        assert_eq!(U256::default(), U256::ZERO);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let x = U256::from(u64::MAX);
        let y = x + U256::ONE;
        assert_eq!(y.to_limbs(), [0, 1, 0, 0]);
    }

    #[test]
    fn overflowing_add_wraps() {
        let (v, carry) = U256::MAX.overflowing_add(U256::ONE);
        assert!(carry);
        assert_eq!(v, U256::ZERO);
    }

    #[test]
    fn sub_with_borrow() {
        let x = U256::from_limbs([0, 1, 0, 0]);
        let y = x - U256::ONE;
        assert_eq!(y, U256::from(u64::MAX));
    }

    #[test]
    fn overflowing_sub_underflow() {
        let (v, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(v, U256::MAX);
    }

    #[test]
    fn mul_small() {
        assert_eq!(U256::from(7u64) * U256::from(6u64), U256::from(42u64));
    }

    #[test]
    fn mul_wide() {
        let x = U256::from(u128::MAX);
        let y = x.checked_mul(U256::from(2u64)).unwrap();
        assert_eq!(y, (U256::ONE << 129u32) - U256::from(2u64));
    }

    #[test]
    fn mul_overflow_detected() {
        assert!(U256::MAX.checked_mul(U256::from(2u64)).is_none());
        let half = U256::ONE << 128u32;
        assert!(half.checked_mul(half).is_none());
    }

    #[test]
    fn div_rem_u64_matches_u128() {
        let n = U256::from(0xDEAD_BEEF_u128 << 32 | 0x1234);
        let (q, r) = n.div_rem_u64(19).unwrap();
        let n128 = n.to_u128().unwrap();
        assert_eq!(q.to_u128().unwrap(), n128 / 19);
        assert_eq!(r as u128, n128 % 19);
    }

    proptest::proptest! {
        /// The limb-skipping `u64` division agrees with the bit-serial
        /// long division on values of every limb count, for the
        /// divisors at the edges of its paths and random ones.
        #[test]
        fn div_rem_u64_matches_bitwise_division(
            limbs in proptest::prelude::any::<[u64; 4]>(),
            width in 0usize..=4,
            random in 1u64..,
        ) {
            let mut limbs = limbs;
            limbs[width..].fill(0);
            let n = U256::from_limbs(limbs);
            for d in [1, 3, 1 << 16, u64::MAX, random] {
                let (q, r) = n.div_rem_u64(d).unwrap();
                proptest::prop_assert_eq!(
                    (q, U256::from(r)),
                    n.div_rem_bitwise(U256::from(d)),
                    "{:?} / {}", n, d
                );
            }
        }
    }

    #[test]
    fn div_rem_full_roundtrip() {
        let n = U256::from_limbs([0x1234, 0x5678, 0x9abc, 0x1]);
        let d = U256::from_limbs([0xffff, 0x3, 0, 0]);
        let (q, r) = n.div_rem(d).unwrap();
        assert!(r < d);
        assert_eq!(q * d + r, n);
    }

    #[test]
    fn div_by_zero_is_none() {
        assert!(U256::ONE.div_rem(U256::ZERO).is_none());
        assert!(U256::ONE.div_rem_u64(0).is_none());
    }

    #[test]
    fn div_smaller_dividend() {
        let (q, r) = U256::from(5u64)
            .div_rem(U256::from_limbs([0, 1, 0, 0]))
            .unwrap();
        assert_eq!(q, U256::ZERO);
        assert_eq!(r, U256::from(5u64));
    }

    #[test]
    fn shl_shr_roundtrip() {
        let x = U256::from(0xABCDu64);
        for shift in [0u32, 1, 63, 64, 65, 127, 128, 200] {
            assert_eq!((x << shift) >> shift, x, "shift {shift}");
        }
        assert_eq!(x << 256u32, U256::ZERO);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_usize_shifts_saturate_to_zero() {
        // Regression: `shift as u32` used to wrap, so a shift of
        // 2^32 + 3 silently shifted by 3 instead of flushing to zero.
        let x = U256::from(0xDEAD_BEEFu64);
        let huge = (1usize << 32) + 3;
        assert_eq!(x << huge, U256::ZERO);
        assert_eq!(x >> huge, U256::ZERO);
        // Small usize shifts still behave like their u32 counterparts.
        assert_eq!(x << 3usize, x << 3u32);
        assert_eq!(x >> 3usize, x >> 3u32);
    }

    #[test]
    fn bit_access() {
        let x = U256::pow2(200);
        assert!(x.bit(200));
        assert!(!x.bit(199));
        assert_eq!(x.trailing_zeros(), 200);
        assert_eq!(x.bits(), 201);
        assert_eq!(x.count_ones(), 1);
        let y = x.with_bit(200, false);
        assert!(y.is_zero());
    }

    #[test]
    fn extract_bits_works() {
        let x = (U256::from(0xABu64) << 16u32) | U256::from(0xCDu64);
        assert_eq!(x.extract_bits(16, 8), 0xAB);
        assert_eq!(x.extract_bits(0, 8), 0xCD);
        assert_eq!(x.extract_bits(0, 64), 0xAB_0000 | 0xCD);
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let vals = [
            U256::ZERO,
            U256::ONE,
            U256::from(1234567890123456789u64),
            U256::MAX,
        ];
        for v in vals {
            let s = v.to_string();
            assert_eq!(s.parse::<U256>().unwrap(), v);
        }
        assert_eq!(
            U256::MAX.to_string(),
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
        );
    }

    #[test]
    fn parse_errors() {
        assert_eq!("".parse::<U256>(), Err(ParseU256Error::Empty));
        assert_eq!("12a".parse::<U256>(), Err(ParseU256Error::InvalidDigit));
        let too_big = format!("{}0", U256::MAX);
        assert_eq!(too_big.parse::<U256>(), Err(ParseU256Error::Overflow));
    }

    #[test]
    fn hex_and_binary_format() {
        assert_eq!(format!("{:x}", U256::from(255u64)), "ff");
        assert_eq!(format!("{:b}", U256::from(5u64)), "101");
        assert_eq!(format!("{:x}", U256::ZERO), "0");
        let big = U256::ONE << 64u32;
        assert_eq!(format!("{big:x}"), "10000000000000000");
    }

    #[test]
    fn ordering() {
        let a = U256::from(5u64);
        let b = U256::from_limbs([0, 1, 0, 0]);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn sum_and_product() {
        let vals = [1u64, 2, 3, 4].map(U256::from);
        assert_eq!(vals.iter().copied().sum::<U256>(), U256::from(10u64));
        assert_eq!(vals.iter().copied().product::<U256>(), U256::from(24u64));
    }

    #[test]
    fn conversions() {
        assert_eq!(U256::from(5u8), U256::from(5u64));
        assert_eq!(U256::from(5u16), U256::from(5u64));
        assert_eq!(U256::from(5u32), U256::from(5u64));
        assert_eq!(U256::from(5usize), U256::from(5u64));
        assert_eq!(u64::try_from(U256::from(7u64)).unwrap(), 7);
        assert!(u64::try_from(U256::MAX).is_err());
        assert_eq!(u128::try_from(U256::from(7u128)).unwrap(), 7);
        assert!(u128::try_from(U256::MAX).is_err());
    }

    #[test]
    fn bitops() {
        let a = U256::from(0b1100u64);
        let b = U256::from(0b1010u64);
        assert_eq!(a & b, U256::from(0b1000u64));
        assert_eq!(a | b, U256::from(0b1110u64));
        assert_eq!(a ^ b, U256::from(0b0110u64));
        assert_eq!(!U256::ZERO, U256::MAX);
    }
}
