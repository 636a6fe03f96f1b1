//! The durable-I/O path shared by campaigns and the grid driver: the
//! CRC-32 envelope that seals checkpoint slots, plus the one verified
//! write and the one verified read every durable artifact goes
//! through.
//!
//! A sealed record is one JSON header line, a newline, then the
//! payload bytes:
//!
//! ```text
//! {"ckpt":3,"generation":G,"len":L,"crc32":C}
//! ```
//!
//! The header's first key tags the record kind and carries its format
//! version; `len` and `crc32` (IEEE) cover the payload. [`Envelope::open`]
//! checks all of them before handing the payload back, so a torn write
//! (short payload) or a flipped bit (CRC mismatch) is rejected with a
//! reason instead of being parsed.
//!
//! [`write`] and [`read`] carry no format of their own, so they also
//! serve the plain-JSON artifacts (a campaign's final results, the grid
//! manifest and lost-cell markers):
//!
//! - **write** lands the bytes atomically ([`chaos::fs::write_atomic`]),
//!   reads them back and compares, and retries any failure;
//! - **read** rereads until two consecutive reads agree byte for byte,
//!   then parses. A transient read fault (a flipped bit, an I/O error)
//!   cannot repeat itself exactly, so agreeing bytes are the file's
//!   bytes: a parse failure on them is the only permanent verdict.
//!
//! Both roll a [`ChaosDice`] seam per attempt and share one budget,
//! [`IO_RETRIES`].

use std::path::Path;

use chaos::Seam;
use serde::{Deserialize, Value};

use crate::campaign::ChaosDice;

/// Extra attempts a verified write or read may spend. Sized from the
/// standard chaos rates: a write attempt faults 28 % of the time
/// (errors, torn prefixes, and bit flips caught by the read-back), so
/// nine attempts all fail with probability 0.28⁹ ≈ 1e-5. A read needs
/// two consecutive clean reads among nine, which fails far more rarely
/// at the 6 % read-flip rate.
pub(crate) const IO_RETRIES: u32 = 8;

/// One sealed record kind: the header key that tags it and the format
/// version this binary writes and accepts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Envelope {
    /// Header key carrying the version (`ckpt`).
    pub tag: &'static str,
    /// Format version written into, and required from, the header.
    pub version: u64,
}

impl Envelope {
    /// Seals `body` behind a header line carrying `generation`.
    pub fn seal(&self, generation: u64, body: &[u8]) -> Vec<u8> {
        let mut out = format!(
            "{{\"{}\":{},\"generation\":{generation},\"len\":{},\"crc32\":{}}}\n",
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
    /// length, CRC-32 — and returns the header's generation with the
    /// payload. Any failure is a short reason string.
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(u64, &'a [u8]), String> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("no envelope header line")?;
        let header_text =
            std::str::from_utf8(&bytes[..nl]).map_err(|_| "envelope header is not UTF-8")?;
        let header: Value = serde_json::from_str(header_text)
            .map_err(|e| format!("bad envelope header: {e:?}"))?;
        let required = |key: &str| -> Result<u64, String> {
            let value = header
                .get(key)
                .ok_or_else(|| format!("bad envelope header: missing field `{key}`"))?;
            u64::from_value(value).map_err(|e| format!("bad envelope header: {key}: {e}"))
        };
        let version = required(self.tag)?;
        if version != self.version {
            return Err(format!(
                "{} envelope version {version} but this binary writes {}",
                self.tag, self.version
            ));
        }
        let generation = required("generation")?;
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
        Ok((generation, body))
    }
}

/// Why a verified [`read`] produced no value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReadError {
    /// Nothing exists at the path.
    Missing,
    /// Two consecutive reads agreed on bytes that do not parse: the
    /// file itself is bad, and rereading cannot help.
    Corrupt(String),
    /// No two consecutive reads agreed within the budget.
    Unreadable(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Missing => write!(f, "missing"),
            ReadError::Corrupt(reason) => write!(f, "{reason}"),
            ReadError::Unreadable(reason) => write!(f, "unreadable: {reason}"),
        }
    }
}

/// Writes `payload` to `path` atomically and reads it back, retrying
/// up to [`IO_RETRIES`] times. Each attempt rolls `seam` once; the
/// read-back rolls nothing, since the write's roll already decided the
/// attempt's fate. Returns the last failure when every attempt fails.
pub(crate) fn write(
    path: &Path,
    payload: &[u8],
    dice: &mut ChaosDice,
    seam: Seam,
) -> Result<(), String> {
    let mut last = String::new();
    for _ in 0..=IO_RETRIES {
        match chaos::fs::write_atomic(path, payload, dice.fault(seam)) {
            Ok(()) => match chaos::fs::read(path, None) {
                Ok(bytes) if bytes == payload => return Ok(()),
                Ok(_) => last = "read-back found corrupted bytes".into(),
                Err(e) => last = format!("read-back failed: {e}"),
            },
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!(
        "{}: every one of {} write attempts failed: {last}",
        path.display(),
        IO_RETRIES + 1
    ))
}

/// Reads `path` until two consecutive reads agree byte for byte, then
/// parses the agreed bytes. Each read rolls [`Seam::CheckpointRead`].
///
/// # Errors
///
/// [`ReadError::Missing`] when no file exists, [`ReadError::Corrupt`]
/// when the agreed bytes fail `parse`, and [`ReadError::Unreadable`]
/// when no two consecutive reads within the budget agree.
pub(crate) fn read<T>(
    path: &Path,
    dice: &mut ChaosDice,
    parse: impl Fn(&[u8]) -> Result<T, String>,
) -> Result<T, ReadError> {
    if !path.exists() {
        return Err(ReadError::Missing);
    }
    let mut previous: Option<Vec<u8>> = None;
    let mut last = String::from("reads disagreed");
    for _ in 0..=IO_RETRIES {
        match chaos::fs::read(path, dice.fault(Seam::CheckpointRead)) {
            Ok(bytes) => {
                if previous.as_ref() == Some(&bytes) {
                    return parse(&bytes).map_err(ReadError::Corrupt);
                }
                previous = Some(bytes);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(ReadError::Missing),
            Err(e) => last = e.to_string(),
        }
    }
    Err(ReadError::Unreadable(format!(
        "no two consecutive reads of {} agreed in {} attempts ({last})",
        path.display(),
        IO_RETRIES + 1
    )))
}

/// Parses UTF-8 JSON bytes into `T`; the plain-artifact `parse` for
/// [`read`].
pub(crate) fn parse_json<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "payload is not UTF-8")?;
    serde_json::from_str(text).map_err(|e| format!("parse: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SLOT_ENVELOPE as SLOT;
    use chaos::IoFault;

    fn temp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("envelope-{}-{name}", std::process::id()))
    }

    #[test]
    fn sealed_bytes_are_pinned() {
        // The on-disk format: any drift here strands every checkpoint
        // slot already written.
        let body = br#"{"epochs":4,"completed":[]}"#;
        let sealed = SLOT.seal(7, body);
        assert_eq!(
            sealed,
            [
                br#"{"ckpt":3,"generation":7,"len":27,"crc32":3451563776}"#.as_slice(),
                b"\n",
                body
            ]
            .concat()
        );
        assert_eq!(SLOT.open(&sealed), Ok((7, body.as_slice())));
        // A record of another kind (or version) is refused.
        let other = Envelope {
            tag: "other",
            version: 1,
        };
        assert!(SLOT.open(&other.seal(7, body)).is_err());
    }

    #[test]
    fn read_waits_for_agreement_and_only_agreed_garbage_is_permanent() {
        let path = temp_file("agree.json");
        let payload = br#"{"count":715360}"#;
        write(&path, payload, &mut ChaosDice::new(None), Seam::FinalWrite).expect("write");
        let count = |bytes: &[u8]| -> Result<u64, String> {
            let value: Value = parse_json(bytes)?;
            value
                .get("count")
                .map(|v| u64::from_value(v))
                .transpose()?
                .ok_or_else(|| "no count".to_string())
        };
        // Flip bit 0 of the `6` on the first read: `715360` reads as
        // `715370`, which still parses. The clean second read disagrees,
        // the third agrees with it, and only the true value comes back.
        let digit = payload.iter().position(|&b| b == b'6').expect("digit") as u64;
        let flip = IoFault::BitFlip { roll: digit * 8 };
        let mut dice = ChaosDice::scripted(vec![(Seam::CheckpointRead, 0, flip)]);
        assert_eq!(read(&path, &mut dice, count), Ok(715_360));
        // Every other read flipped, and always differently: no two
        // consecutive reads agree, which is not a verdict on the file.
        let script = (0..=u64::from(IO_RETRIES))
            .map(|i| (Seam::CheckpointRead, i, IoFault::BitFlip { roll: i * 8 }))
            .filter(|(_, i, _)| i % 2 == 0)
            .collect();
        match read(&path, &mut ChaosDice::scripted(script), count) {
            Err(ReadError::Unreadable(_)) => {}
            other => panic!("expected Unreadable, got {other:?}"),
        }
        // Agreed bytes that fail to parse are the permanent verdict.
        std::fs::write(&path, b"{\"count\":").expect("truncate");
        match read(&path, &mut ChaosDice::new(None), count) {
            Err(ReadError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            read(&path, &mut ChaosDice::new(None), count),
            Err(ReadError::Missing)
        );
    }

    #[test]
    fn write_retries_until_the_read_back_verifies() {
        let path = temp_file("write.json");
        let payload = b"{\"cell\":\"c0\"}";
        // A torn attempt, then a silent flip: both burn a retry, and the
        // third attempt lands the exact bytes.
        let mut dice = ChaosDice::scripted(vec![
            (Seam::FinalWrite, 0, IoFault::Torn { roll: 3 }),
            (Seam::FinalWrite, 1, IoFault::BitFlip { roll: 9 }),
        ]);
        write(&path, payload, &mut dice, Seam::FinalWrite).expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), payload);
        // A seam that faults every attempt exhausts the budget.
        let script = (0..=u64::from(IO_RETRIES))
            .map(|i| {
                (
                    Seam::FinalWrite,
                    i,
                    IoFault::Error(chaos::IoErrorKind::Eio),
                )
            })
            .collect();
        let err = write(&path, payload, &mut ChaosDice::scripted(script), Seam::FinalWrite)
            .expect_err("every attempt faulted");
        assert!(err.contains("9 write attempts"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
