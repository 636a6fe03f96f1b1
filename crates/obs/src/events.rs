//! The append-only JSONL event log.
//!
//! Events are discrete, *cold-path* records — one per campaign epoch,
//! per completed shard, per injected fault — in contrast to the metrics shards,
//! which absorb millions of hot-path updates. Allocation is therefore
//! fine here, and every [`emit`] renders and writes one line
//! immediately (no buffering), so a crashed run keeps every event up
//! to the failure point.
//!
//! # Line format
//!
//! Each line is a flat JSON object:
//!
//! ```json
//! {"v":5,"ts_ns":123456,"type":"shard_done","shard":2,"lo":8,"hi":16,"duration_ns":41000}
//! ```
//!
//! - `v` — schema version, [`crate::schema::VERSION`];
//! - `ts_ns` — monotonic nanoseconds from [`crate::now_ns`] at emit
//!   time (process-relative, *not* wall-clock time of day);
//! - `type` — event type, matched field-by-field against
//!   [`crate::schema::EVENTS`];
//! - remaining keys — the event's fields, in builder insertion order.
//!
//! Unsigned integers are rendered as JSON integers and are kept below
//! 2^53 by every producer in this workspace, so parsers with an IEEE
//! double number type (including the vendored `serde_json` stub) read
//! them back exactly. Floats use Rust's shortest-round-trip `Display`;
//! a non-finite float renders as `null` (no producer emits one).
//!
//! # Sinks
//!
//! One process-global sink: a file ([`log_to_file`]), an in-memory
//! buffer for tests ([`log_to_memory`] / [`take_memory`]), or nothing
//! (the default — [`emit`] is then a cheap early return). In a
//! disabled build ([`crate::enabled`]` == false`) all of this
//! compiles to no-ops and no file is ever created.

/// The largest integer an IEEE-double-based JSON parser round-trips
/// exactly (2^53 − 1). [`Event::u64`] enforces this bound for every
/// producer: debug builds assert, release builds saturate to it.
pub const MAX_JSON_INT: u64 = (1u64 << 53) - 1;

#[cfg(feature = "enabled")]
pub use imp::*;
#[cfg(not(feature = "enabled"))]
pub use noop::*;

#[cfg(feature = "enabled")]
mod imp {
    use crate::clock::now_ns;
    use std::fmt::Write as _;
    use std::fs::File;
    use std::io::{self, Read as _, Seek as _, Write as _};
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// A simulated failure of one event-line write (chaos testing; see
    /// [`set_write_fault_hook`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WriteFault {
        /// The line write fails outright; the line is lost but framing
        /// stays intact.
        Error,
        /// Only a prefix of the line reaches the file (torn mid-line);
        /// `roll` selects the cut. The sink restores framing with a
        /// newline, leaving one unparseable line behind.
        Torn {
            /// Entropy selecting the truncation point.
            roll: u64,
        },
    }

    /// Decides the fault (if any) for the `n`-th line written since the
    /// hook was installed.
    type FaultHook = Box<dyn FnMut(u64) -> Option<WriteFault> + Send>;

    enum SinkState {
        Off,
        File {
            file: File,
            hook: Option<FaultHook>,
            /// Lines attempted since this sink was installed (the
            /// hook's operation index).
            index: u64,
            /// A previous write left the file without a trailing
            /// newline; emit a bare `\n` before the next line to
            /// restore framing.
            pending_newline: bool,
        },
        Memory(Vec<String>),
    }

    static SINK: Mutex<SinkState> = Mutex::new(SinkState::Off);

    /// Event lines lost or mangled by real or injected write failures
    /// since process start (see [`write_failures`]).
    static WRITE_FAILURES: AtomicU64 = AtomicU64::new(0);

    fn lock() -> MutexGuard<'static, SinkState> {
        SINK.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    enum FieldValue {
        U64(u64),
        F64(f64),
        Str(String),
        Bool(bool),
    }

    /// One structured event, built field-by-field and handed to
    /// [`emit`]. Field order in the output line is insertion order.
    pub struct Event {
        ty: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    }

    impl Event {
        /// Starts an event of the given type (see
        /// [`crate::schema::EVENTS`] for the documented types).
        pub fn new(ty: &'static str) -> Event {
            Event {
                ty,
                fields: Vec::new(),
            }
        }

        /// Appends an unsigned-integer field.
        ///
        /// Values are bounded at [`MAX_JSON_INT`](super::MAX_JSON_INT)
        /// (2^53 − 1) so double-based JSON parsers round-trip them
        /// exactly — the builder enforces this, so callers need no
        /// checks of their own: debug builds panic on a violation,
        /// release builds saturate to the bound. Fields that can
        /// legitimately span the full u64 range (64-bit seeds) go
        /// through [`Event::str`] as decimal strings instead.
        #[must_use]
        pub fn u64(mut self, key: &'static str, value: u64) -> Event {
            debug_assert!(
                value <= super::MAX_JSON_INT,
                "event field {key}={value} exceeds 2^53-1 and would not \
                 round-trip through an f64-based JSON parser"
            );
            let value = value.min(super::MAX_JSON_INT);
            self.fields.push((key, FieldValue::U64(value)));
            self
        }

        /// Appends a float field (rendered via shortest-round-trip
        /// `Display`; non-finite values render as `null`).
        #[must_use]
        pub fn f64(mut self, key: &'static str, value: f64) -> Event {
            self.fields.push((key, FieldValue::F64(value)));
            self
        }

        /// Appends a string field (JSON-escaped on render).
        #[must_use]
        pub fn str(mut self, key: &'static str, value: &str) -> Event {
            self.fields.push((key, FieldValue::Str(value.to_string())));
            self
        }

        /// Appends a boolean field.
        #[must_use]
        pub fn bool(mut self, key: &'static str, value: bool) -> Event {
            self.fields.push((key, FieldValue::Bool(value)));
            self
        }

        fn render(&self) -> String {
            let mut out = String::new();
            let _ = write!(
                out,
                "{{\"v\":{},\"ts_ns\":{},\"type\":",
                crate::schema::VERSION,
                now_ns()
            );
            push_json_str(&mut out, self.ty);
            for (key, value) in &self.fields {
                out.push(',');
                push_json_str(&mut out, key);
                out.push(':');
                match value {
                    FieldValue::U64(v) => {
                        let _ = write!(out, "{v}");
                    }
                    FieldValue::F64(v) if v.is_finite() => {
                        let _ = write!(out, "{v}");
                    }
                    FieldValue::F64(_) => out.push_str("null"),
                    FieldValue::Str(v) => push_json_str(&mut out, v),
                    FieldValue::Bool(v) => {
                        let _ = write!(out, "{v}");
                    }
                }
            }
            out.push('}');
            out
        }
    }

    fn push_json_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Writes one event line to the active sink; a cheap early return
    /// when no sink is active. Write errors — real or injected through
    /// [`set_write_fault_hook`] — are swallowed after being counted
    /// ([`write_failures`]): the event log is diagnostic output and
    /// must never fail the run it observes. A torn line is repaired by
    /// prefixing the *next* line with a bare newline, so one fault
    /// mangles at most one line and framing recovers by itself.
    pub fn emit(event: Event) {
        let mut sink = lock();
        match &mut *sink {
            SinkState::Off => {}
            SinkState::File {
                file,
                hook,
                index,
                pending_newline,
            } => {
                let fault = hook.as_mut().and_then(|h| h(*index));
                *index += 1;
                if *pending_newline {
                    // Restore framing after an earlier torn/failed
                    // write before appending this line.
                    if file.write_all(b"\n").is_err() {
                        WRITE_FAILURES.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    *pending_newline = false;
                }
                let mut line = event.render();
                line.push('\n');
                let bytes = line.as_bytes();
                match fault {
                    Some(WriteFault::Error) => {
                        // The whole line is lost; framing is intact.
                        WRITE_FAILURES.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(WriteFault::Torn { roll }) => {
                        // A strict prefix (without the newline) lands;
                        // the next emit repairs framing.
                        let keep = 1 + (roll as usize) % (bytes.len() - 1);
                        let _ = file.write_all(&bytes[..keep]);
                        WRITE_FAILURES.fetch_add(1, Ordering::Relaxed);
                        *pending_newline = true;
                    }
                    None => {
                        if file.write_all(bytes).is_err() {
                            // A real failure may have written any
                            // prefix; assume framing is broken.
                            WRITE_FAILURES.fetch_add(1, Ordering::Relaxed);
                            *pending_newline = true;
                        }
                    }
                }
            }
            SinkState::Memory(lines) => lines.push(event.render()),
        }
    }

    /// Starts logging events to `path` (created or truncated).
    /// Replaces any previously active sink.
    pub fn log_to_file(path: &Path) -> io::Result<()> {
        // lint: allow(chaos_seam_coverage, live append-only JSONL stream; rename semantics cannot apply, and torn writes are injected downstream via set_write_fault_hook at this very seam)
        let file = File::create(path)?;
        *lock() = SinkState::File {
            file,
            hook: None,
            index: 0,
            pending_newline: false,
        };
        Ok(())
    }

    /// Starts logging events to `path`, *appending* to an existing log
    /// instead of truncating it — the resume twin of [`log_to_file`].
    ///
    /// A crash (or an injected torn write) can leave the file's last
    /// line incomplete; that partial line is truncated away first, so
    /// the reopened log is valid JSONL from byte 0 and every complete
    /// line of the interrupted run is preserved. Replaces any
    /// previously active sink.
    pub fn log_to_file_resume(path: &Path) -> io::Result<()> {
        // lint: allow(chaos_seam_coverage, append-mode reopen of the live JSONL stream; partial-line truncation below is the torn-write recovery the durability tests drive through set_write_fault_hook)
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // Keep everything up to (and including) the last newline; a
        // trailing partial line is dropped.
        let keep = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(pos) => (pos + 1) as u64,
            None => 0,
        };
        file.set_len(keep)?;
        file.seek(io::SeekFrom::End(0))?;
        *lock() = SinkState::File {
            file,
            hook: None,
            index: 0,
            pending_newline: false,
        };
        Ok(())
    }

    /// Installs (or clears, with `None`) the write-fault hook on the
    /// active file sink. The hook is called with the index of each
    /// line about to be written (0-based, counted since the sink was
    /// installed) and returns the fault to inject, if any. No-op on a
    /// non-file sink. Chaos-testing support; the `repro-chaos` crate
    /// and DESIGN.md's failure-model section describe the seams.
    pub fn set_write_fault_hook(hook: Option<Box<dyn FnMut(u64) -> Option<WriteFault> + Send>>) {
        if let SinkState::File {
            hook: slot, index, ..
        } = &mut *lock()
        {
            *slot = hook;
            *index = 0;
        }
    }

    /// Event lines lost or mangled by write failures (real or
    /// injected) since process start. Monotonic; never reset.
    pub fn write_failures() -> u64 {
        WRITE_FAILURES.load(Ordering::Relaxed)
    }

    /// Starts logging events to an in-memory buffer (test support).
    /// Replaces any previously active sink.
    pub fn log_to_memory() {
        *lock() = SinkState::Memory(Vec::new());
    }

    /// Drains and returns the in-memory buffer's lines (empty if the
    /// active sink is not the memory sink). Logging continues.
    pub fn take_memory() -> Vec<String> {
        match &mut *lock() {
            SinkState::Memory(lines) => std::mem::take(lines),
            _ => Vec::new(),
        }
    }

    /// Deactivates the sink; a file sink is closed (every line was
    /// already written through).
    pub fn stop_logging() {
        *lock() = SinkState::Off;
    }
}

#[cfg(not(feature = "enabled"))]
mod noop {
    use std::io;
    use std::path::Path;

    /// A simulated write failure (disabled build: carried by the no-op
    /// hook signature only).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WriteFault {
        /// The line write fails outright.
        Error,
        /// Only a prefix of the line reaches the file.
        Torn {
            /// Entropy selecting the truncation point.
            roll: u64,
        },
    }

    /// One structured event (disabled build: zero-sized, the builder
    /// records nothing).
    pub struct Event(());

    impl Event {
        /// Starts an event of the given type (no-op).
        pub fn new(_ty: &'static str) -> Event {
            Event(())
        }

        /// Appends an unsigned-integer field (no-op).
        #[must_use]
        pub fn u64(self, _key: &'static str, _value: u64) -> Event {
            self
        }

        /// Appends a float field (no-op).
        #[must_use]
        pub fn f64(self, _key: &'static str, _value: f64) -> Event {
            self
        }

        /// Appends a string field (no-op).
        #[must_use]
        pub fn str(self, _key: &'static str, _value: &str) -> Event {
            self
        }

        /// Appends a boolean field (no-op).
        #[must_use]
        pub fn bool(self, _key: &'static str, _value: bool) -> Event {
            self
        }
    }

    /// Writes one event line (no-op: disabled builds have no sink).
    #[inline(always)]
    pub fn emit(_event: Event) {}

    /// Starts logging to a file (disabled build: returns `Ok` without
    /// creating or touching any file).
    #[inline(always)]
    pub fn log_to_file(_path: &Path) -> io::Result<()> {
        Ok(())
    }

    /// Resumes logging to a file (disabled build: returns `Ok` without
    /// creating or touching any file).
    #[inline(always)]
    pub fn log_to_file_resume(_path: &Path) -> io::Result<()> {
        Ok(())
    }

    /// Installs the write-fault hook (no-op: there is no sink).
    #[inline(always)]
    pub fn set_write_fault_hook(
        _hook: Option<Box<dyn FnMut(u64) -> Option<WriteFault> + Send>>,
    ) {
    }

    /// Write-failure count (disabled build: always 0).
    #[inline(always)]
    pub fn write_failures() -> u64 {
        0
    }

    /// Starts logging to memory (no-op).
    #[inline(always)]
    pub fn log_to_memory() {}

    /// Returns the in-memory buffer (disabled build: always empty).
    #[inline(always)]
    pub fn take_memory() -> Vec<String> {
        Vec::new()
    }

    /// Deactivates the sink (no-op).
    #[inline(always)]
    pub fn stop_logging() {}
}
