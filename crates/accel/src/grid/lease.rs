//! The grid's atomically-claimed, generation-numbered lease files.
//!
//! One lease file per grid cell records who is (or was) responsible
//! for it. Leases are an *acceleration*, never the truth: the cell's
//! checkpoint slots and final artifact are what recovery actually
//! trusts, so every lease operation is allowed to fail without
//! endangering results — a driver that cannot record a claim simply
//! proceeds and re-verifies artifacts where a lease would have let it
//! skip.
//!
//! # Protocol
//!
//! A lease is a CRC'd envelope (sealed by the same code as the
//! campaign checkpoint slots) over a tiny JSON state: cell id, owner
//! token, generation, status (`claimed` / `done` / `lost`). Claiming is
//! read → write(+1) → read-back:
//!
//! 1. read the current lease ([`Seam::LeaseRead`] under chaos). A
//!    missing or unreadable lease observes generation 0; `done` is
//!    terminal and wins immediately.
//! 2. write the whole file atomically ([`chaos::fs::write_atomic`],
//!    [`Seam::LeaseWrite`]) with `generation = max(observed, floor)+1`
//!    and status `claimed`. The `floor` is the highest generation this
//!    claimant has ever seen for the cell, so a torn lease cannot roll
//!    its own clock backwards.
//! 3. read the file back and compare owner + generation: seeing its
//!    own write means the claim is **verified won**; seeing another
//!    owner means a concurrent claimant raced past (the caller backs
//!    off); an unreadable read-back after retries degrades to
//!    [`ClaimOutcome::Unrecorded`] — the caller may still run the cell
//!    because cell work is idempotent.
//!
//! Taking over a lease whose recorded owner differs is legal by
//! construction — the operator contract is one live driver per grid
//! directory, so a foreign `claimed` lease can only have been left by
//! a killed driver. The takeover is surfaced as a `lease_takeover`
//! event, so a v4 event log proves whether recovery ever happened.
//!
//! Generation numbers are monotone per lease lifetime: every verified
//! transition writes strictly more than it observed, and the floor
//! keeps one claimant from regressing its own clock. A lease destroyed
//! beyond parsing (torn + bit-flipped past the CRC) starts a new
//! lifetime at generation `floor + 1`; the recovery matrix in
//! DESIGN.md spells out why that is safe (artifacts, not leases, carry
//! results).

use std::path::Path;

use chaos::Seam;
use serde::{Deserialize, Serialize};

use super::ChaosDice;
use crate::envelope::Envelope;

/// Lease envelope format version.
pub const LEASE_VERSION: u64 = 1;

/// The lease envelope: a `{"lease":1,"len":L,"crc32":C}` header line
/// ahead of the compact [`LeaseState`] JSON.
pub(crate) const LEASE_ENVELOPE: Envelope = Envelope {
    tag: "lease",
    version: LEASE_VERSION,
};

/// The recorded coordination state of one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaseState {
    /// Cell id the lease belongs to (defense against misplaced files).
    pub cell: String,
    /// Claimant token (e.g. `driver-<pid>`); compared on read-back.
    pub owner: String,
    /// Claim generation, strictly increasing per lease lifetime.
    pub generation: u64,
    /// `claimed`, `done`, or `lost`. Only `done` is terminal.
    pub status: String,
}

/// What a lease read observed.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseView {
    /// No lease file exists (cell never claimed).
    Missing,
    /// The lease parsed and its CRC verified.
    Valid(LeaseState),
    /// The file exists but cannot be trusted (torn, corrupt, or the
    /// read itself failed every retry).
    Corrupt(String),
}

/// The result of a claim attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimOutcome {
    /// The read-back saw our own write: the claim is verified.
    Won {
        /// Generation the claim was sealed at.
        generation: u64,
        /// The previous owner, when this claim displaced a foreign
        /// lease (the caller emits `lease_takeover`).
        takeover_from: Option<LeaseState>,
    },
    /// The lease is `done`: the cell's work is complete and terminal.
    AlreadyDone {
        /// Generation the cell was sealed at.
        generation: u64,
    },
    /// The read-back saw a different owner: a concurrent claimant won.
    Lost {
        /// The state the read-back observed.
        observed: LeaseState,
    },
    /// The claim could not be durably recorded (every write or
    /// read-back attempt failed). The caller may still run the cell —
    /// work is idempotent — but gets no skip/coordination benefit.
    Unrecorded {
        /// Why the last attempt failed.
        reason: String,
    },
}

/// Renders a lease file: envelope header, then the state JSON.
fn render(state: &LeaseState) -> Result<Vec<u8>, String> {
    let body = serde_json::to_string(state).map_err(|e| format!("serialize lease: {e:?}"))?;
    Ok(LEASE_ENVELOPE.seal(None, body.as_bytes()))
}

/// Opens and verifies lease bytes: envelope, then the state JSON.
fn parse(bytes: &[u8]) -> Result<LeaseState, String> {
    let (_, body) = LEASE_ENVELOPE.open(bytes)?;
    let text = std::str::from_utf8(body).map_err(|_| "payload is not UTF-8")?;
    serde_json::from_str(text).map_err(|e| format!("bad lease state: {e:?}"))
}

/// Reads a lease once (one chaos roll on [`Seam::LeaseRead`]).
fn read_once(path: &Path, dice: &mut ChaosDice) -> LeaseView {
    if !path.exists() {
        return LeaseView::Missing;
    }
    let fault = dice.fault(Seam::LeaseRead);
    match chaos::fs::read(path, fault) {
        Ok(bytes) => match parse(&bytes) {
            Ok(state) => LeaseView::Valid(state),
            Err(reason) => LeaseView::Corrupt(reason),
        },
        Err(e) => LeaseView::Corrupt(format!("read failed: {e}")),
    }
}

/// Reads a lease, retrying corrupt/failed reads up to `retries` extra
/// times (each with a fresh chaos roll, so an injected read fault does
/// not repeat deterministically).
pub fn read(path: &Path, dice: &mut ChaosDice, retries: u32) -> LeaseView {
    let mut view = read_once(path, dice);
    for _ in 0..retries {
        match view {
            LeaseView::Corrupt(_) => view = read_once(path, dice),
            _ => break,
        }
    }
    view
}

/// Writes a lease atomically, retrying failed writes up to `retries`
/// extra times. Does not read back; [`claim`] and [`mark`] do.
pub fn write(
    path: &Path,
    state: &LeaseState,
    dice: &mut ChaosDice,
    retries: u32,
) -> Result<(), String> {
    let payload = render(state)?;
    let mut last = String::new();
    for _ in 0..=retries {
        let fault = dice.fault(Seam::LeaseWrite);
        match chaos::fs::write_atomic(path, &payload, fault) {
            Ok(()) => return Ok(()),
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("lease write failed every attempt: {last}"))
}

/// Claims `cell` for `owner`: read, write `max(observed, floor) + 1`,
/// read back and verify. See the module docs for the full protocol.
///
/// `force` re-claims even a `done` lease — the driver passes it after
/// the cell's artifact failed verification, when the lease's word must
/// yield to the (missing) truth. Without `force`, `done` is terminal.
pub fn claim(
    path: &Path,
    cell: &str,
    owner: &str,
    floor: u64,
    force: bool,
    dice: &mut ChaosDice,
    retries: u32,
) -> ClaimOutcome {
    let (observed, takeover_from) = match read(path, dice, retries) {
        LeaseView::Valid(state) => {
            if state.status == "done" && !force {
                return ClaimOutcome::AlreadyDone {
                    generation: state.generation,
                };
            }
            let takeover = (state.owner != owner).then(|| state.clone());
            (state.generation, takeover)
        }
        LeaseView::Missing => (0, None),
        // An unreadable lease observes generation 0; the floor keeps
        // our own clock from regressing, and a foreign lease lifetime
        // legitimately restarts (the artifacts carry the real state).
        LeaseView::Corrupt(_) => (0, None),
    };
    let generation = observed.max(floor) + 1;
    let state = LeaseState {
        cell: cell.to_string(),
        owner: owner.to_string(),
        generation,
        status: "claimed".to_string(),
    };
    if let Err(reason) = write(path, &state, dice, retries) {
        return ClaimOutcome::Unrecorded { reason };
    }
    match read(path, dice, retries) {
        LeaseView::Valid(seen) if seen.owner == state.owner && seen.generation == generation => {
            ClaimOutcome::Won {
                generation,
                takeover_from,
            }
        }
        LeaseView::Valid(observed) => ClaimOutcome::Lost { observed },
        LeaseView::Missing => ClaimOutcome::Unrecorded {
            reason: "lease vanished between write and read-back".into(),
        },
        LeaseView::Corrupt(reason) => ClaimOutcome::Unrecorded {
            reason: format!("read-back unverifiable: {reason}"),
        },
    }
}

/// Seals a cell's lease at `status` (`done` / `lost`), read-back
/// verified. Failure is reported but non-fatal to the grid: the merge
/// step trusts artifacts, not leases.
pub fn mark(
    path: &Path,
    cell: &str,
    owner: &str,
    generation: u64,
    status: &str,
    dice: &mut ChaosDice,
    retries: u32,
) -> Result<(), String> {
    let state = LeaseState {
        cell: cell.to_string(),
        owner: owner.to_string(),
        generation,
        status: status.to_string(),
    };
    write(path, &state, dice, retries)?;
    match read(path, dice, retries) {
        LeaseView::Valid(seen) if seen == state => Ok(()),
        LeaseView::Valid(seen) => Err(format!(
            "read-back saw {}:{} ({}) instead of our seal",
            seen.owner, seen.generation, seen.status
        )),
        LeaseView::Missing => Err("lease vanished between write and read-back".into()),
        LeaseView::Corrupt(reason) => Err(format!("read-back unverifiable: {reason}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn quiet_dice() -> ChaosDice {
        ChaosDice::new(None)
    }

    fn temp_lease(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lease-{}-{name}.lease", std::process::id()))
    }

    #[test]
    fn claim_then_done_is_terminal() {
        let path = temp_lease("terminal");
        let _ = std::fs::remove_file(&path);
        let mut dice = quiet_dice();
        let won = claim(&path, "c0", "driver-1", 0, false, &mut dice, 2);
        let ClaimOutcome::Won { generation, takeover_from } = won else {
            panic!("expected Won, got {won:?}");
        };
        assert_eq!(generation, 1);
        assert!(takeover_from.is_none());
        mark(&path, "c0", "driver-1", generation, "done", &mut dice, 2).expect("seal done");
        // Every later claim — same or different owner — sees terminal.
        for owner in ["driver-1", "driver-2"] {
            assert_eq!(
                claim(&path, "c0", owner, 0, false, &mut dice, 2),
                ClaimOutcome::AlreadyDone { generation: 1 }
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn takeover_reports_previous_owner_and_bumps_generation() {
        let path = temp_lease("takeover");
        let _ = std::fs::remove_file(&path);
        let mut dice = quiet_dice();
        let ClaimOutcome::Won { generation: g1, .. } =
            claim(&path, "c1", "driver-old", 0, false, &mut dice, 2)
        else {
            panic!("first claim failed");
        };
        // A new driver (the old one is dead — the operator contract)
        // takes the cell over; the displaced lease is reported.
        match claim(&path, "c1", "driver-new", 0, false, &mut dice, 2) {
            ClaimOutcome::Won {
                generation,
                takeover_from: Some(prev),
            } => {
                assert_eq!(generation, g1 + 1);
                assert_eq!(prev.owner, "driver-old");
                assert_eq!(prev.generation, g1);
            }
            other => panic!("expected takeover Won, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn floor_prevents_own_clock_regression_after_corruption() {
        let path = temp_lease("floor");
        let _ = std::fs::remove_file(&path);
        let mut dice = quiet_dice();
        let ClaimOutcome::Won { generation, .. } =
            claim(&path, "c2", "driver-1", 0, false, &mut dice, 2)
        else {
            panic!("claim failed");
        };
        let ClaimOutcome::Won { generation: g2, .. } =
            claim(&path, "c2", "driver-1", generation, false, &mut dice, 2)
        else {
            panic!("re-claim failed");
        };
        assert!(g2 > generation);
        // Destroy the lease beyond parsing; the floor still advances
        // the claimant's own clock.
        std::fs::write(&path, b"garbage").expect("corrupt");
        match claim(&path, "c2", "driver-1", g2, false, &mut dice, 2) {
            ClaimOutcome::Won { generation: g3, .. } => assert!(g3 > g2, "{g3} <= {g2}"),
            other => panic!("expected Won, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    // The interleaving model: each op is one full claim or seal by one
    // of two claimants, with an optional injected write fault for its
    // lease write. Ops apply sequentially in an arbitrary order —
    // the histories a single-file rename protocol can linearize — and
    // the properties the grid relies on must hold for every history:
    //
    // 1. generation-monotone: within one lease lifetime (between
    //    destructions), valid on-disk generations never decrease, and
    //    each claimant's verified wins strictly exceed its floor;
    // 2. done is terminal: after any verified `done` seal, every later
    //    claim returns AlreadyDone;
    // 3. idempotent replay: the same history replayed from scratch
    //    lands the same final lease bytes.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn claims_are_generation_monotone_and_idempotent(
            ops in proptest::collection::vec((0u8..2, 0u8..4), 1..24),
            // 24 encodes "never seal"; the vendored proptest has no
            // Option strategy.
            seal_at_raw in 0usize..25,
        ) {
            let seal_at = (seal_at_raw < 24).then_some(seal_at_raw);
            // The vendored proptest's prop_assert* are plain asserts,
            // so the runner can be a panicking helper function.
            fn run(
                tag: &str,
                ops: &[(u8, u8)],
                seal_at: Option<usize>,
            ) -> (Vec<u8>, bool) {
                let path = std::env::temp_dir().join(format!(
                    "lease-prop-{}-{tag}.lease",
                    std::process::id()
                ));
                let _ = std::fs::remove_file(&path);
                // Per-claimant floors, as the driver keeps them.
                let mut floors = [0u64; 2];
                let mut done_sealed = false;
                // Generation of the last valid probe, `None` across a
                // lifetime boundary (missing or destroyed lease).
                let mut prev_valid: Option<u64> = None;
                for (step, &(who, fault_kind)) in ops.iter().enumerate() {
                    let who = who as usize;
                    let owner = ["driver-a", "driver-b"][who];
                    // Inject the chosen fault into this op's first
                    // lease write; retries then roll clean, which is
                    // what the schedule's independent rolls give in
                    // practice.
                    let mut dice = ChaosDice::scripted(match fault_kind {
                        1 => Some(chaos::IoFault::Error(chaos::IoErrorKind::Eio)),
                        2 => Some(chaos::IoFault::Torn { roll: step as u64 }),
                        3 => Some(chaos::IoFault::BitFlip { roll: step as u64 }),
                        _ => None,
                    });
                    if seal_at == Some(step) && !done_sealed {
                        let gen = floors[who].max(prev_valid.unwrap_or(0)) + 1;
                        if mark(&path, "cell", owner, gen, "done", &mut dice, 3).is_ok() {
                            done_sealed = true;
                            floors[who] = gen;
                        }
                    } else {
                        match claim(&path, "cell", owner, floors[who], false, &mut dice, 3) {
                            ClaimOutcome::Won { generation, .. } => {
                                prop_assert!(
                                    generation > floors[who],
                                    "claimant {owner} regressed its own clock"
                                );
                                prop_assert!(!done_sealed, "claim won after terminal done");
                                floors[who] = generation;
                            }
                            ClaimOutcome::AlreadyDone { .. } => {
                                prop_assert!(done_sealed, "AlreadyDone before any done seal");
                            }
                            ClaimOutcome::Lost { .. } => {
                                // Sequential full claims cannot lose
                                // their own read-back.
                                prop_assert!(
                                    false,
                                    "sequential claim lost its own read-back"
                                );
                            }
                            ClaimOutcome::Unrecorded { .. } => {
                                // Injected fault survived retries; the
                                // caller proceeds without coordination.
                            }
                        }
                    }
                    // Generation-monotone within a lease lifetime:
                    // consecutive valid probes never regress. A
                    // destroyed lease (corrupt probe) starts a new
                    // lifetime and resets the clock — the documented
                    // recovery semantics.
                    let mut probe = ChaosDice::new(None);
                    match read(&path, &mut probe, 0) {
                        LeaseView::Valid(state) => {
                            if let Some(prev) = prev_valid {
                                prop_assert!(
                                    state.generation >= prev,
                                    "on-disk generation regressed {prev} -> {} \
                                     within one lease lifetime",
                                    state.generation
                                );
                            }
                            prev_valid = Some(state.generation);
                        }
                        LeaseView::Missing | LeaseView::Corrupt(_) => prev_valid = None,
                    }
                }
                let bytes = std::fs::read(&path).unwrap_or_default();
                let _ = std::fs::remove_file(&path);
                (bytes, done_sealed)
            }
            let (first, first_done) = run("x", &ops, seal_at);
            let (second, second_done) = run("y", &ops, seal_at);
            // Replaying the identical history is byte-identical: the
            // protocol holds no hidden nondeterminism.
            prop_assert_eq!(first, second);
            prop_assert_eq!(first_done, second_done);
        }
    }
}
