//! The CRC-32 envelope shared by the campaign checkpoint slots and the
//! grid lease files.
//!
//! A sealed record is one JSON header line, a newline, then the
//! payload bytes:
//!
//! ```text
//! {"ckpt":2,"generation":G,"len":L,"crc32":C}     checkpoint slot
//! {"lease":1,"len":L,"crc32":C}                   grid lease
//! ```
//!
//! The header's first key tags the record kind and carries its format
//! version; `len` and `crc32` (IEEE) cover the payload. [`Envelope::open`]
//! checks all three before handing the payload back, so a torn write
//! (short payload) or a flipped bit (CRC mismatch) is rejected with a
//! reason instead of being parsed.

use serde::{Deserialize, Value};

/// One sealed record kind: the header key that tags it and the format
/// version this binary writes and accepts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Envelope {
    /// Header key carrying the version (`ckpt`, `lease`).
    pub tag: &'static str,
    /// Format version written into, and required from, the header.
    pub version: u64,
}

impl Envelope {
    /// Seals `body` behind a header line. `generation`, when given,
    /// sits between the version and `len`.
    pub fn seal(&self, generation: Option<u64>, body: &[u8]) -> Vec<u8> {
        let generation = generation.map_or(String::new(), |g| format!(",\"generation\":{g}"));
        let mut out = format!(
            "{{\"{}\":{}{generation},\"len\":{},\"crc32\":{}}}\n",
            self.tag,
            self.version,
            body.len(),
            chaos::crc::crc32(body)
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    /// Verifies a sealed record — header shape, version, payload
    /// length, CRC-32 — and returns the header's `generation` (if it
    /// has one) with the payload. Any failure is a short reason string.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(Option<u64>, &'a [u8]), String> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("no envelope header line")?;
        let header_text =
            std::str::from_utf8(&bytes[..nl]).map_err(|_| "envelope header is not UTF-8")?;
        let header: Value = serde_json::from_str(header_text)
            .map_err(|e| format!("bad envelope header: {e:?}"))?;
        let field = |key: &str| -> Result<Option<u64>, String> {
            header
                .get(key)
                .map(|v| u64::from_value(v).map_err(|e| format!("bad envelope header: {key}: {e}")))
                .transpose()
        };
        let required = |key: &str| {
            field(key)?.ok_or_else(|| format!("bad envelope header: missing field `{key}`"))
        };
        let version = required(self.tag)?;
        if version != self.version {
            return Err(format!(
                "{} envelope version {version} but this binary writes {}",
                self.tag, self.version
            ));
        }
        let len = required("len")?;
        let crc32 = required("crc32")?;
        let body = &bytes[nl + 1..];
        if body.len() as u64 != len {
            return Err(format!(
                "payload is {} bytes but the header promises {len} (torn write)",
                body.len()
            ));
        }
        let crc = u64::from(chaos::crc::crc32(body));
        if crc != crc32 {
            return Err(format!(
                "payload CRC-32 {crc:#010x} does not match header {crc32:#010x} (corruption)"
            ));
        }
        Ok((field("generation")?, body))
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::SLOT_ENVELOPE as SLOT;
    use crate::grid::lease::LEASE_ENVELOPE as LEASE;

    #[test]
    fn sealed_bytes_are_pinned() {
        // The on-disk format: any drift here strands every checkpoint
        // slot and lease file already written.
        let body = br#"{"cell":"c0","owner":"driver-1","generation":3,"status":"claimed"}"#;
        let expect = |header: &[u8]| [header, b"\n", body].concat();
        assert_eq!(
            SLOT.seal(Some(7), body),
            expect(br#"{"ckpt":2,"generation":7,"len":66,"crc32":2371463409}"#)
        );
        assert_eq!(
            LEASE.seal(None, body),
            expect(br#"{"lease":1,"len":66,"crc32":2371463409}"#)
        );
        // Each kind opens its own records and refuses the other's.
        let slot = SLOT.seal(Some(7), body);
        assert_eq!(SLOT.open(&slot), Ok((Some(7), body.as_slice())));
        assert!(LEASE.open(&slot).is_err());
    }
}
