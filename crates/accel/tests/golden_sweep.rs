//! Full-noise goldens across cell widths.
//!
//! The engine goldens in `engine.rs` pin 2-bit cells only. The row
//! read's trap table and its word-width bookkeeping both depend on the
//! cell width and the stack's coded width, so this sweep pins a digest
//! of the outputs and the `DecodeStats` of every combination of
//!
//! - scheme: NoECC, Static16, Static128, ABN-9;
//! - cell bits 1 to 5;
//! - stuck-at fault rate 0 and 1e-3;
//! - batch 1 and 3;
//! - `max_retries` 0 and 2;
//! - 40 and 100 input columns (rows up to and past 64 cells, whose
//!   trap words have high halves),
//!
//! one digest per scheme, with every other noise source at its default.
//! Any change to the draw order, the float expressions of a read or the
//! integer bookkeeping of a group-cycle moves a digest.

use accel::{AccelConfig, CrossbarProvider, DecodeStats, ProtectionScheme};
use neural::{MvmEngineProvider, QuantizedMatrix, Tensor};

/// Output rows of the swept matrix: one full 8-lane group and a
/// partial one.
const OUT: usize = 10;

/// An `OUT × columns` matrix: one chunk.
fn matrix(columns: usize) -> QuantizedMatrix {
    let weights: Vec<f32> = (0..OUT * columns)
        .map(|i| ((i as f32) * 0.377).sin() * 0.8)
        .collect();
    QuantizedMatrix::from_tensor(&Tensor::from_vec(vec![OUT, columns], weights))
}

/// Six dense input vectors (most bit-planes nonzero): two calls of
/// up to three.
fn inputs(columns: usize) -> Vec<u16> {
    (0..6 * columns as u64)
        .map(|i| ((i * 2654435761 + 977) % 65536) as u16)
        .collect()
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &DecodeStats) {
        for w in [
            s.clean,
            s.corrected,
            s.uncorrectable,
            s.miscorrected,
            s.silent_a,
            s.retries,
            s.uncoded,
        ] {
            self.word(w);
        }
    }
}

/// The digest of one scheme's sweep: per column count, cell width,
/// fault rate, batch and retry budget, two calls on one engine, then
/// the provider's decode statistics; with the retries the sweep
/// performed.
fn sweep(scheme: &ProtectionScheme) -> (u64, u64) {
    let mut digest = Digest::new();
    let mut retries = 0;
    for columns in [40, 100] {
        let m = matrix(columns);
        let all = inputs(columns);
        for bits in 1..=5u32 {
            for fault_rate in [0.0, 1e-3] {
                for batch in [1usize, 3] {
                    for max_retries in [0u32, 2] {
                        let mut config = AccelConfig::new(scheme.clone())
                            .with_cell_bits(bits)
                            .with_fault_rate(fault_rate)
                            .with_batch(batch);
                        config.max_retries = max_retries;
                        let seed =
                            u64::from(bits) * 1000 + u64::from(max_retries) * 10 + batch as u64;
                        let provider = CrossbarProvider::new(config, seed);
                        let mut engine = provider.build(&m);
                        let mut out = Vec::new();
                        for call in 0..2 {
                            let ins = &all[call * batch * columns..(call + 1) * batch * columns];
                            engine.mvm_batch_into(ins, batch, &mut out);
                            for &y in &out {
                                digest.word(y as u64);
                            }
                        }
                        digest.stats(&provider.stats());
                        retries += provider.stats().retries;
                    }
                }
            }
        }
    }
    (digest.0, retries)
}

#[test]
fn golden_digests_across_cell_widths() {
    let pinned: [(ProtectionScheme, u64); 4] = [
        (ProtectionScheme::None, 10324290047032631353),
        (ProtectionScheme::Static16, 18206411585515029150),
        (ProtectionScheme::Static128, 9803093590202275562),
        (ProtectionScheme::data_aware(9), 14175721771759018361),
    ];
    let mut got = Vec::new();
    for (scheme, _) in &pinned {
        let (digest, retries) = sweep(scheme);
        // Every coded scheme has untrusted decodes somewhere in the
        // sweep, so the retry re-reads are pinned too.
        assert_eq!(
            retries > 0,
            scheme.is_coded(),
            "{}: {retries} retries",
            scheme.label()
        );
        got.push((scheme.label(), digest));
    }
    let want: Vec<(String, u64)> = pinned.iter().map(|(s, d)| (s.label(), *d)).collect();
    assert_eq!(got, want);
}
