//! Seeded, deterministic fault injection for the harness's I/O and
//! execution seams.
//!
//! Long lifetime campaigns (see `accel::campaign`) survive crashes by
//! checkpointing, but a recovery path that is never exercised is a
//! recovery path that does not work. This crate makes every failure
//! mode the durability layer claims to handle *injectable on demand
//! and reproducible bit-for-bit*:
//!
//! - **I/O faults** at the checkpoint / event-log seams: simulated
//!   `EIO`/`ENOSPC` write errors, torn writes that truncate mid-byte,
//!   and silent single-bit corruption ([`IoFault`], applied by
//!   [`fs::write_atomic`] / [`fs::read`]);
//! - **Execution faults** inside Monte-Carlo worker shards: seeded or
//!   pinned mid-shard panics ([`ShardChaos`]);
//! - a **schedule** tying it together: [`ChaosSchedule`] derives every
//!   fault decision from a pure integer hash of
//!   `(chaos_seed, seam, index)`, so the same seed replays the same
//!   faults at the same points with no stored state — a failing soak
//!   run is a one-line repro.
//!
//! Probabilities are expressed in permille (integer, 0..=1000) so the
//! schedule stays `Eq`/hashable and no float ever enters a fault
//! decision. With no schedule installed the hardened code paths run
//! fault-free; [`fs::write_atomic`] doubles as the production
//! temp-file + atomic-rename writer.
//!
//! # Example
//!
//! ```
//! use chaos::{ChaosConfig, ChaosSchedule, Seam};
//!
//! let config = ChaosConfig {
//!     write_error_permille: 500,
//!     ..ChaosConfig::default()
//! };
//! let schedule = ChaosSchedule::new(7, config);
//! // Decisions are a pure function of (seed, seam, index): replaying
//! // the schedule yields the identical fault sequence.
//! for index in 0..100 {
//!     assert_eq!(
//!         schedule.io_fault(Seam::CheckpointWrite, index),
//!         schedule.io_fault(Seam::CheckpointWrite, index),
//!     );
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod fs;
mod schedule;

pub use schedule::{ChaosConfig, ChaosSchedule, ExecFault, IoErrorKind, IoFault, Seam, ShardChaos};
