//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! checksum guarding campaign checkpoint payloads.
//!
//! Hand-rolled (this workspace vendors no registry crates) with a
//! const-built 256-entry table; the algorithm matches zlib's `crc32`,
//! so checkpoints remain verifiable with any standard tool.

const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// CRC-32 of `bytes` (IEEE, reflected, init/final-xor `0xFFFFFFFF`).
///
/// ```
/// // The classic check vector every IEEE CRC-32 must satisfy.
/// assert_eq!(chaos::crc::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(chaos::crc::crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        let idx = ((crc ^ byte as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let payload = b"{\"epoch\":3,\"rate\":0.125}";
        let base = crc32(payload);
        let mut copy = payload.to_vec();
        for bit in 0..copy.len() * 8 {
            copy[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&copy), base, "flip of bit {bit} went undetected");
            copy[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
