//! The versioned JSONL event schema, as machine-readable data.
//!
//! DESIGN.md §8 documents this schema in prose; this module *is* the
//! schema, and tests validate emitted event logs against it so the
//! documentation cannot drift from the code. Compiled identically in
//! enabled and disabled builds (it is pure data).
//!
//! # Versioning
//!
//! Every line carries `"v":` [`VERSION`]. The version bumps when a
//! field is removed, renamed, or changes type/meaning; *adding* a new
//! event type or appending a new field to an existing type is
//! backwards-compatible and does not bump it. Consumers should ignore
//! unknown keys and unknown event types.
//!
//! # Common fields
//!
//! Every event line carries, before its per-type fields:
//!
//! - `v` (u64) — schema version;
//! - `ts_ns` (u64) — monotonic nanoseconds since the process's first
//!   clock read ([`crate::now_ns`]); process-relative, comparable
//!   within one log, not across runs;
//! - `type` (string) — one of the [`EVENTS`] entries below.
//!
//! All per-type fields are required: a producer emits every field of
//! its type on every line.

/// Current schema version, written as `"v"` on every line.
///
/// v2: the shard-retry event's `seed` re-typed u64 → string. Derived
/// shard seeds span the full u64 range (epoch seeds are wrapping
/// golden-ratio offsets from the campaign seed), which exceeds the
/// 2^53 exact-integer window JSON numbers guarantee; a decimal string
/// carries the exact value at any width.
///
/// v3: a resident socket service's request lifecycle joined the
/// schema (three request and engine-swap events) along with the
/// one-time `obs_overflow` registry warning. Bumped — rather than
/// riding the additive rule — because service logs were a new
/// consumer surface: a v3 reader knew rejected requests were *logged*,
/// so their absence meant none happened. The three service events
/// were later retired along with the service, their only producer;
/// the version stays, since no surviving event changed shape.
///
/// v4: the grid coordination lifecycle joins the schema
/// (`grid_cell_done`, `grid_cell_lost`, and a lease-takeover event).
/// Bumped for the same reason as v3: grid driver logs are a new
/// consumer surface — a v4 reader knows lost cells and takeovers are
/// *logged*, so their absence in a driver log proves a clean run,
/// which a v3 reader could not conclude.
///
/// v5: the grid dropped its lease files, and with them
/// `lease_takeover` and the `generation` field of `grid_cell_done`.
/// Bumped because a field was removed: a v4 reader would expect
/// `generation` on every done cell. Later, the in-process shard
/// retry and loss budget were removed, and with them the only
/// producers of the shard-retry and shard-lost events. The version
/// stays, as it did when the service events retired: no surviving
/// event changed shape, and an absent retry line still means no retry
/// happened. `chaos_fault` gained the `shard` seam and the `panic`
/// fault value, which the additive rule covers.
pub const VERSION: u64 = 5;

/// JSON type of one event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// JSON integer, kept below 2^53 by producers so double-based
    /// parsers round-trip it exactly.
    U64,
    /// JSON number (finite; a non-finite value would render `null`,
    /// and no producer emits one).
    F64,
    /// JSON string.
    Str,
    /// JSON `true`/`false`.
    Bool,
}

/// One named, typed field of an event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field key as it appears on the JSON line.
    pub name: &'static str,
    /// Required JSON type of the value.
    pub kind: FieldKind,
}

/// One event type: its `"type"` tag and its required fields (beyond
/// the common `v`/`ts_ns`/`type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpec {
    /// Value of the line's `"type"` key.
    pub event_type: &'static str,
    /// Required per-type fields, in canonical emission order.
    pub fields: &'static [FieldSpec],
}

const U64: FieldKind = FieldKind::U64;
const F64: FieldKind = FieldKind::F64;
const STR: FieldKind = FieldKind::Str;

const fn field(name: &'static str, kind: FieldKind) -> FieldSpec {
    FieldSpec { name, kind }
}

/// Every event type the workspace emits, in schema version
/// [`VERSION`].
///
/// - `campaign_epoch` — one line per evaluated epoch of
///   `accel::campaign::run` / `resume`: the epoch's position on the
///   lifetime axis (`writes`, `fault_rate` = stuck-cell fraction),
///   accuracy (`misclassification`, `top5_misclassification`,
///   `flip_rate`, `samples`), the ECC decode tallies
///   (`clean`…`uncoded`, matching `accel::DecodeStats`), and wall
///   timings (`eval_ns`, `program_ns` = re-program + A-search time
///   inside the evaluation, `checkpoint_ns` = checkpoint write
///   latency, 0 when no checkpoint was due).
/// - `shard_done` — one line per completed Monte-Carlo worker shard in
///   `accel::sim::evaluate`: sample range `[lo, hi)` and the shard's
///   wall duration.
/// - `checkpoint_write_failed` — a periodic checkpoint write failed
///   every retry and the campaign continued without it (the previous
///   generation remains the recovery point).
/// - `checkpoint_fallback` — resume found a corrupt/torn checkpoint
///   artifact (CRC or parse failure) and fell back to the newest
///   generation that verified; `used_generation` is the epoch count
///   recovery actually proceeds from.
/// - `chaos_fault` — a `chaos::ChaosSchedule` injected a fault at a
///   seam: where (`seam`), which operation (`index`), and what
///   (`fault`: `eio`/`enospc`/`torn`/`bitflip` at an I/O seam; at the
///   `shard` seam, `panic`, with `index` the shard). Emitted by the
///   seam owner so chaos runs are self-documenting — a worker whose
///   epoch fails on an injected panic logs it here first.
/// - `obs_overflow` — the one-time structured twin of the registry-cap
///   stderr warning: which registry overflowed (`what`: `counter` /
///   `series`), the first refused name, and the cap. At most one line
///   per process; the `obs_dropped_registrations` counter carries the
///   running total.
/// - `grid_cell_done` — one line per grid cell the driver verified
///   complete: the cell id and its index in spec-expansion order, how
///   many worker attempts this run spent on it (0 = already complete,
///   1 = first try), the epochs in the cell's final artifact, and the
///   cell's wall time from dispatch to verification.
/// - `grid_cell_lost` — one line per cell dropped under
///   `--max-lost-cells` graceful degradation: the cell, how many
///   attempts were burned, and the final failure reason
///   (`spawn`/`exit`/`watchdog`/`verify`). The merged summary records
///   the same cell as an explicit gap, and `cells/<id>.lost` marks it.
pub const EVENTS: &[EventSpec] = &[
    EventSpec {
        event_type: "campaign_epoch",
        fields: &[
            field("scheme", STR),
            field("epoch", U64),
            field("writes", F64),
            field("fault_rate", F64),
            field("misclassification", F64),
            field("top5_misclassification", F64),
            field("flip_rate", F64),
            field("samples", U64),
            field("clean", U64),
            field("corrected", U64),
            field("uncorrectable", U64),
            field("miscorrected", U64),
            field("silent_a", U64),
            field("retries", U64),
            field("uncoded", U64),
            field("eval_ns", U64),
            field("program_ns", U64),
            field("checkpoint_ns", U64),
            field("lost_samples", U64),
        ],
    },
    EventSpec {
        event_type: "shard_done",
        fields: &[
            field("shard", U64),
            field("lo", U64),
            field("hi", U64),
            field("duration_ns", U64),
        ],
    },
    EventSpec {
        event_type: "checkpoint_write_failed",
        fields: &[
            field("path", STR),
            field("attempts", U64),
            field("error", STR),
        ],
    },
    EventSpec {
        event_type: "checkpoint_fallback",
        fields: &[
            field("path", STR),
            field("reason", STR),
            field("used_generation", U64),
        ],
    },
    EventSpec {
        event_type: "chaos_fault",
        fields: &[
            field("seam", STR),
            field("index", U64),
            field("fault", STR),
        ],
    },
    EventSpec {
        event_type: "obs_overflow",
        fields: &[
            field("what", STR),
            field("name", STR),
            field("cap", U64),
        ],
    },
    EventSpec {
        event_type: "grid_cell_done",
        fields: &[
            field("cell", STR),
            field("index", U64),
            field("attempts", U64),
            field("epochs", U64),
            field("duration_ns", U64),
        ],
    },
    EventSpec {
        event_type: "grid_cell_lost",
        fields: &[
            field("cell", STR),
            field("index", U64),
            field("attempts", U64),
            field("reason", STR),
        ],
    },
];

/// Looks up the spec for an event type tag, if it is part of this
/// schema version.
pub fn spec_for(event_type: &str) -> Option<&'static EventSpec> {
    EVENTS.iter().find(|spec| spec.event_type == event_type)
}
