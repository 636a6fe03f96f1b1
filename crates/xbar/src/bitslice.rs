//! Bit slicing of weight words into physical-row cell levels (§II-B1,
//! Figure 2 of the paper).
//!
//! A logical matrix row of `W`-bit weights is stored across
//! `ceil(W / c)` physical rows of `c`-bit cells: physical row `r` holds
//! bits `[r·c, (r+1)·c)` of every weight. The shift-and-add reduction
//! tree recombines the per-row ADC outputs with weights `2^{r·c}`.

use wideint::U256;

/// Slices words into per-bit-position cell levels and reduces row
/// outputs back into integers.
///
/// # Examples
///
/// Figure 2 of the paper — the logical row `[5, 9, 6, 7]` sliced at one
/// bit per cell:
///
/// ```
/// use xbar::BitSlicer;
///
/// let slicer = BitSlicer::new(1, 4);
/// let rows = slicer.slice_words(&[5, 9, 6, 7]);
/// assert_eq!(rows[0], vec![1, 1, 0, 1]); // LSBs
/// assert_eq!(rows[1], vec![0, 0, 1, 1]);
/// assert_eq!(rows[2], vec![1, 0, 1, 1]);
/// assert_eq!(rows[3], vec![0, 1, 0, 0]); // MSBs
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitSlicer {
    cell_bits: u32,
    word_bits: u32,
}

impl BitSlicer {
    /// Creates a slicer for `word_bits`-bit words on `cell_bits`-bit
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell_bits` is 0 or greater than 8, or if `word_bits`
    /// is 0 or greater than 256.
    pub fn new(cell_bits: u32, word_bits: u32) -> BitSlicer {
        assert!(
            (1..=8).contains(&cell_bits),
            "cell_bits {cell_bits} out of range 1..=8"
        );
        assert!(
            (1..=256).contains(&word_bits),
            "word_bits {word_bits} out of range 1..=256"
        );
        BitSlicer {
            cell_bits,
            word_bits,
        }
    }

    /// Bits per cell.
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// Bits per word.
    pub fn word_bits(&self) -> u32 {
        self.word_bits
    }

    /// Physical rows needed per word: `ceil(word_bits / cell_bits)`.
    pub fn rows_per_word(&self) -> u32 {
        self.word_bits.div_ceil(self.cell_bits)
    }

    /// Bit position of physical row `r`'s least significant bit.
    pub fn row_lsb(&self, row: u32) -> u32 {
        row * self.cell_bits
    }

    /// Slices `u64` words: result `[r][j]` is the level of column `j` in
    /// physical row `r`.
    ///
    /// # Panics
    ///
    /// Panics if any word exceeds `word_bits` or `word_bits > 64`.
    pub fn slice_words(&self, words: &[u64]) -> Vec<Vec<u32>> {
        assert!(
            self.word_bits <= 64,
            "use slice_wide for words over 64 bits"
        );
        self.slice_wide(&words.iter().map(|&w| U256::from(w)).collect::<Vec<_>>())
    }

    /// Slices arbitrary-width words (e.g. AN-encoded 128-bit groups).
    ///
    /// Each word is checked once and split into its four 64-bit limbs;
    /// a cell then reads one limb, or two where it straddles a limb
    /// boundary. Bits above `word_bits` are zero in a checked word, so
    /// a top row narrower than `cell_bits` needs no extra mask.
    ///
    /// # Panics
    ///
    /// Panics if any word exceeds `word_bits`.
    pub fn slice_wide(&self, words: &[U256]) -> Vec<Vec<u32>> {
        let limbs: Vec<[u64; 4]> = words
            .iter()
            .map(|w| {
                assert!(
                    w.bits() <= self.word_bits,
                    "word of {} bits exceeds {}-bit slicer",
                    w.bits(),
                    self.word_bits
                );
                w.to_limbs()
            })
            .collect();
        let mask = (1u64 << self.cell_bits) - 1;
        (0..self.rows_per_word())
            .map(|r| {
                let lo = self.row_lsb(r);
                let (limb, shift) = ((lo / 64) as usize, lo % 64);
                // Only a cell starting in limbs 0–2 can spill into the
                // next one; `shift > 56` then, so `64 − shift` is < 8.
                let next = (shift + self.cell_bits > 64 && limb < 3).then_some(limb + 1);
                limbs
                    .iter()
                    .map(|w| {
                        let mut v = w[limb] >> shift;
                        if let Some(n) = next {
                            v |= w[n] << (64 - shift);
                        }
                        (v & mask) as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// Recombines per-row integer outputs with the shift-and-add tree:
    /// `Σ outputs[r] · 2^{r·cell_bits}`.
    ///
    /// Each term is `outputs[r] << r·cell_bits` truncated to 256 bits
    /// (bits shifted past the top are dropped), and the sum panics on
    /// overflow like `U256` addition.
    ///
    /// A row whose shift starts in limb `i < 3` is added, shifted by
    /// `shift % 64`, into a `u128` accumulator for that limb; the
    /// accumulators are recombined with two `U256` adds at the end.
    /// Rows have distinct shifts, so one limb's terms are at most
    /// `Σ_{s<64} (2⁶⁴−1)·2^s < 2¹²⁸` and no accumulator can overflow.
    /// Rows starting in the top limb, whose terms may be truncated, are
    /// added as `U256` exactly as before.
    pub fn reduce(&self, outputs: &[u64]) -> U256 {
        let mut limbs = [0u128; 3];
        let mut top = U256::ZERO;
        for (r, &o) in outputs.iter().enumerate() {
            let shift = self.row_lsb(r as u32);
            match limbs.get_mut((shift / 64) as usize) {
                Some(acc) => *acc += u128::from(o) << (shift % 64),
                None => top += U256::from(o) << shift,
            }
        }
        let [a0, a1, a2] = limbs;
        let low = U256::from_limbs([a0 as u64, a1 as u64, a2 as u64, 0]);
        let carried =
            U256::from_limbs([0, (a0 >> 64) as u64, (a1 >> 64) as u64, (a2 >> 64) as u64]);
        low + carried + top
    }

    /// [`reduce`](BitSlicer::reduce) in one `u128`, for stacks whose
    /// reduction provably fits: the caller bounds the row outputs so
    /// that `Σ outputs[r] · 2^{r·cell_bits} < 2¹²⁸` (debug builds check
    /// the sum for overflow). Then it equals `reduce` exactly.
    pub fn reduce_u128(&self, outputs: &[u64]) -> u128 {
        outputs
            .iter()
            .enumerate()
            .map(|(r, &o)| u128::from(o) << self.row_lsb(r as u32))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_per_word_rounds_up() {
        assert_eq!(BitSlicer::new(2, 16).rows_per_word(), 8);
        assert_eq!(BitSlicer::new(3, 16).rows_per_word(), 6);
        assert_eq!(BitSlicer::new(5, 16).rows_per_word(), 4);
        // The paper's example: 137-bit coded groups at 4 bits/cell → 35.
        assert_eq!(BitSlicer::new(4, 137).rows_per_word(), 35);
    }

    #[test]
    fn slice_reduce_roundtrip_u64() {
        for cell_bits in 1..=5 {
            let slicer = BitSlicer::new(cell_bits, 16);
            let words = [0u64, 1, 0x1234, 0xFFFF, 0x8001];
            let rows = slicer.slice_words(&words);
            assert_eq!(rows.len(), slicer.rows_per_word() as usize);
            // Reduce each column independently: outputs[r] = level, so
            // the reduction of column j's levels reconstructs word j.
            for (j, &w) in words.iter().enumerate() {
                let col: Vec<u64> = rows.iter().map(|r| r[j] as u64).collect();
                assert_eq!(slicer.reduce(&col).to_u64(), Some(w));
            }
        }
    }

    #[test]
    fn slice_wide_roundtrip() {
        let slicer = BitSlicer::new(2, 130);
        let w = (U256::ONE << 129u32) | U256::from(0xABCDu64);
        let rows = slicer.slice_wide(&[w]);
        assert_eq!(rows.len(), 65);
        let col: Vec<u64> = rows.iter().map(|r| r[0] as u64).collect();
        assert_eq!(slicer.reduce(&col), w);
    }

    #[test]
    fn levels_bounded_by_cell_bits() {
        let slicer = BitSlicer::new(3, 16);
        let rows = slicer.slice_words(&[0xFFFF, 0x1234]);
        for row in &rows {
            for &level in row {
                assert!(level < 8);
            }
        }
    }

    #[test]
    fn partial_top_row() {
        // 16-bit words on 3-bit cells: the top row holds only 1 bit.
        let slicer = BitSlicer::new(3, 16);
        let rows = slicer.slice_words(&[0xFFFF]);
        assert_eq!(rows[5][0], 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn word_too_wide_panics() {
        BitSlicer::new(2, 8).slice_words(&[0x100]);
    }

    #[test]
    #[should_panic(expected = "word of 138 bits exceeds 137-bit slicer")]
    fn wide_word_too_wide_panics_with_its_width() {
        let fits = U256::ONE << 136u32;
        BitSlicer::new(4, 137).slice_wide(&[fits, fits << 1u32]);
    }

    #[test]
    fn limb_slicing_matches_per_cell_extraction() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x511CE);
        for cell_bits in 1..=8 {
            for word_bits in [1u32, 16, 63, 64, 65, 128, 137, 192, 255, 256] {
                let slicer = BitSlicer::new(cell_bits, word_bits);
                // Random words of every width up to `word_bits`, plus the
                // all-ones word, so rows straddling a limb boundary see
                // set bits on both sides.
                let mut words: Vec<U256> = (0..40)
                    .map(|i| {
                        let w = U256::from_limbs([
                            rng.next_u64(),
                            rng.next_u64(),
                            rng.next_u64(),
                            rng.next_u64(),
                        ]);
                        w >> (256 - 1 - (i * 7) % word_bits)
                    })
                    .collect();
                words.push(U256::MAX >> (256 - word_bits));
                words.push(U256::ZERO);
                let rows = slicer.slice_wide(&words);
                assert_eq!(rows.len(), slicer.rows_per_word() as usize);
                for (r, row) in rows.iter().enumerate() {
                    let lo = slicer.row_lsb(r as u32);
                    let width = cell_bits.min(word_bits - lo);
                    for (j, w) in words.iter().enumerate() {
                        assert_eq!(
                            row[j] as u64,
                            w.extract_bits(lo, width),
                            "c={cell_bits} w={word_bits} row {r} word {j}"
                        );
                    }
                }
            }
        }
    }

    /// The historical reduction: one `U256` shift-and-add per row,
    /// with `None` where that fold's addition overflows.
    fn fold_reduce(slicer: &BitSlicer, outputs: &[u64]) -> Option<U256> {
        outputs
            .iter()
            .enumerate()
            .try_fold(U256::ZERO, |acc, (r, &o)| {
                acc.checked_add(U256::from(o) << slicer.row_lsb(r as u32))
            })
    }

    #[test]
    fn limb_reduce_matches_fold() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB175);
        let mut compared = 0;
        for cell_bits in 1..=5 {
            let slicer = BitSlicer::new(cell_bits, 256);
            for rows in 1..=137 {
                // ADC-sized codes up to full 64-bit words.
                for width in [1u32, 15, 40, 64] {
                    let outputs: Vec<u64> =
                        (0..rows).map(|_| rng.next_u64() >> (64 - width)).collect();
                    if let Some(want) = fold_reduce(&slicer, &outputs) {
                        assert_eq!(
                            slicer.reduce(&outputs),
                            want,
                            "c={cell_bits} rows={rows} w={width}"
                        );
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 1500, "only {compared} stacks compared");
    }

    #[test]
    fn u128_reduce_matches_wide_reduce() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x128);
        for cell_bits in 1..=5 {
            for word_bits in [16u32, 26, 40, 100] {
                let slicer = BitSlicer::new(cell_bits, word_bits);
                let rows = slicer.rows_per_word() as usize;
                for width in [1u32, 9, 12] {
                    // Row outputs of at most `width` bits keep the sum
                    // below 2^(span + width) ≤ 2^118.
                    let outputs: Vec<u64> =
                        (0..rows).map(|_| rng.next_u64() >> (64 - width)).collect();
                    assert_eq!(
                        U256::from(slicer.reduce_u128(&outputs)),
                        slicer.reduce(&outputs),
                        "c={cell_bits} w={word_bits} width={width}"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_truncates_terms_shifted_past_the_top() {
        // Row 63 of 4-bit cells sits at bit 252: only 4 bits of its
        // output survive the shift, and that is no overflow.
        let slicer = BitSlicer::new(4, 256);
        let mut outputs = vec![0u64; 70];
        outputs[63] = u64::MAX;
        outputs[64] = 7; // shifted out entirely
        outputs[0] = 3;
        assert_eq!(
            Some(slicer.reduce(&outputs)),
            fold_reduce(&slicer, &outputs)
        );
        assert_eq!(
            slicer.reduce(&outputs),
            (U256::from(15u64) << 252u32) | U256::from(3u64)
        );
    }

    #[test]
    #[should_panic(expected = "U256 addition overflow")]
    fn reduce_overflow_panics_like_fold() {
        let slicer = BitSlicer::new(4, 256);
        let outputs = vec![u64::MAX; 64];
        assert_eq!(fold_reduce(&slicer, &outputs), None);
        slicer.reduce(&outputs);
    }

    #[test]
    fn reduce_with_dot_product_outputs() {
        // Row outputs are dot products, not single levels: the reduction
        // must still weight them by 2^{r·c}.
        let slicer = BitSlicer::new(2, 4);
        // outputs: row 0 → 7, row 1 → 5 ⇒ 7 + 5·4 = 27.
        assert_eq!(slicer.reduce(&[7, 5]).to_u64(), Some(27));
    }
}
