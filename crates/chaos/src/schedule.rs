//! The deterministic fault schedule: every injection decision is a
//! pure integer hash of `(seed, seam, index)`.
//!
//! No schedule state mutates between decisions, so decisions commute:
//! callers may ask in any order (or twice) and get the same answer,
//! which is what makes a chaos run replayable after a crash — the
//! recovered process re-derives exactly the faults the dead one saw.

/// SplitMix64 finalizer: a full-avalanche 64-bit mixing step.
///
/// The standard constants (Steele et al., "Fast splittable pseudorandom
/// number generators"); every fault roll funnels through this.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a decision key down to one u64 by folding each word through
/// [`mix`]. Word order matters, so `(seam, index)` and `(index, seam)`
/// roll differently.
fn roll(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3; // pi fraction: an arbitrary non-zero start
    for &w in words {
        acc = mix(acc ^ w);
    }
    acc
}

/// An I/O seam the schedule can inject faults into.
///
/// Each seam rolls independently: a fault at `CheckpointWrite` index 3
/// says nothing about `EventWrite` index 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seam {
    /// Periodic campaign checkpoint writes (the A/B generation slots).
    CheckpointWrite,
    /// Checkpoint reads during `--resume`.
    CheckpointRead,
    /// The final campaign results file written on completion.
    FinalWrite,
    /// JSONL event-log line writes in the obs sink.
    EventWrite,
    /// Spawning a grid worker process (a fault here models fork/exec
    /// failure: the attempt is charged and the cell retried).
    ProcessSpawn,
}

impl Seam {
    /// Stable label used in diagnostics and `chaos_fault` obs events.
    pub fn label(self) -> &'static str {
        match self {
            Seam::CheckpointWrite => "checkpoint_write",
            Seam::CheckpointRead => "checkpoint_read",
            Seam::FinalWrite => "final_write",
            Seam::EventWrite => "event_write",
            Seam::ProcessSpawn => "process_spawn",
        }
    }

    // Seam ids feed the per-seam roll keys, so they are append-only
    // and never reused or renumbered: adding id 9 (grid spawns) could
    // not perturb the fault sequence any existing seed produces at
    // earlier seams. Retired ids stay reserved rather than shift a
    // surviving seam and every fault script keyed on it: 5–8 (a
    // removed socket service) and 10–11 (removed grid lease files).
    fn id(self) -> u64 {
        match self {
            Seam::CheckpointWrite => 1,
            Seam::CheckpointRead => 2,
            Seam::FinalWrite => 3,
            Seam::EventWrite => 4,
            Seam::ProcessSpawn => 9,
        }
    }
}

/// Which simulated OS error an [`IoFault::Error`] surfaces as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoErrorKind {
    /// A generic I/O failure (`EIO`): the operation fails outright.
    Eio,
    /// Device out of space (`ENOSPC`): the write fails outright.
    Enospc,
}

/// A fault to apply to one filesystem operation.
///
/// The `roll` payloads carry the entropy that parameterizes the fault
/// (truncation point, flipped bit) so the fault site needs no further
/// schedule access: [`crate::fs`] derives the concrete cut/bit from
/// `roll % len` at application time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFault {
    /// The operation fails with a simulated OS error; for writes the
    /// destination is left untouched.
    Error(IoErrorKind),
    /// A torn write/read: only a strict prefix of the bytes makes it
    /// through (possibly cutting a multi-byte token mid-byte), and the
    /// caller sees an error for writes, short data for reads.
    Torn {
        /// Entropy selecting the truncation point.
        roll: u64,
    },
    /// Silent corruption: every byte goes through but one bit is
    /// flipped, and the caller sees success. Only an end-to-end
    /// checksum can catch this.
    BitFlip {
        /// Entropy selecting the flipped bit.
        roll: u64,
    },
}

impl IoFault {
    /// Stable label used in diagnostics and `chaos_fault` obs events.
    pub fn label(&self) -> &'static str {
        match self {
            IoFault::Error(IoErrorKind::Eio) => "eio",
            IoFault::Error(IoErrorKind::Enospc) => "enospc",
            IoFault::Torn { .. } => "torn",
            IoFault::BitFlip { .. } => "bitflip",
        }
    }
}

/// A fault to apply inside a Monte-Carlo worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecFault {
    /// Panic mid-shard: the evaluation returns a typed worker-panic
    /// error, and whoever runs the campaign (the grid's cell attempt)
    /// retries it.
    Panic,
}

/// Worker-shard fault injection policy, carried on `AccelConfig`.
///
/// `PanicOn` pins a fault to one shard — what the unit tests use;
/// `Seeded` rolls per shard from a seed — what a [`ChaosSchedule`]
/// hands out per epoch. `Off` is the default and costs one branch per
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardChaos {
    /// No injection (production default).
    #[default]
    Off,
    /// Panic on the given shard.
    PanicOn {
        /// Target shard index.
        shard: u64,
    },
    /// Roll per shard: panic with probability `panic_permille`/1000.
    Seeded {
        /// Seed for the per-shard rolls (a per-epoch stream already
        /// folded in by [`ChaosSchedule::shard_chaos`]).
        seed: u64,
        /// Permille probability of a panic.
        panic_permille: u32,
    },
}

impl ShardChaos {
    /// The fault (if any) to inject into `shard`. Pure: same
    /// arguments, same answer.
    pub fn decide(&self, shard: u64) -> Option<ExecFault> {
        match *self {
            ShardChaos::Off => None,
            ShardChaos::PanicOn { shard: s } => (shard == s).then_some(ExecFault::Panic),
            ShardChaos::Seeded {
                seed,
                panic_permille,
            } => {
                // The trailing 0 is the retired in-process attempt
                // word, kept so every seed still panics the shards it
                // always panicked on a first try.
                let r = (roll(&[seed, shard, 0]) % 1000) as u32;
                (r < panic_permille).then_some(ExecFault::Panic)
            }
        }
    }
}

/// Per-seam fault rates, in permille (0 = never, 1000 = always).
///
/// At each seam the categories are evaluated in declaration order
/// against a single roll, so their permilles partition `[0, 1000)`;
/// sums past 1000 saturate (earlier categories swallow later ones).
/// The default is all-zero: a schedule with a default config injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ChaosConfig {
    /// Checkpoint/final write (and the grid's manifest and lost-cell
    /// marker writes) fails outright (`EIO`/`ENOSPC`).
    pub write_error_permille: u32,
    /// Checkpoint/final write is torn (prefix lands, caller errors).
    pub write_torn_permille: u32,
    /// Checkpoint/final write silently flips one bit.
    pub write_bitflip_permille: u32,
    /// Checkpoint or grid-artifact read fails outright.
    pub read_error_permille: u32,
    /// Checkpoint or grid-artifact read returns silently corrupted
    /// bytes.
    pub read_bitflip_permille: u32,
    /// Event-log line write fails outright.
    pub event_error_permille: u32,
    /// Event-log line write is torn mid-line.
    pub event_torn_permille: u32,
    /// Worker shard panics mid-shard.
    pub shard_panic_permille: u32,
    /// Spawning a grid worker process fails outright (the attempt is
    /// charged against the cell's retry budget).
    pub spawn_error_permille: u32,
}

impl ChaosConfig {
    /// The rate set behind the CLI's bare `--chaos-seed`: every seam
    /// faulted often enough that a short campaign exercises each
    /// recovery path, but rarely enough that bounded retries converge.
    pub fn standard() -> Self {
        ChaosConfig {
            write_error_permille: 120,
            write_torn_permille: 80,
            write_bitflip_permille: 80,
            read_error_permille: 0,
            read_bitflip_permille: 60,
            event_error_permille: 40,
            event_torn_permille: 40,
            shard_panic_permille: 100,
            spawn_error_permille: 80,
        }
    }
}

/// A seeded fault schedule: the single source of truth for which
/// operation fails, how, in a chaos run.
///
/// Decisions are pure functions of `(seed, seam, index)` — the
/// schedule holds no mutable state, so clones and replays agree with
/// the original bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChaosSchedule {
    seed: u64,
    config: ChaosConfig,
}

impl ChaosSchedule {
    /// A schedule drawing faults at `config`'s rates from `seed`.
    pub fn new(seed: u64, config: ChaosConfig) -> Self {
        ChaosSchedule { seed, config }
    }

    /// The schedule behind the CLI's `--chaos-seed` flag:
    /// [`ChaosConfig::standard`] rates at the given seed.
    pub fn standard(seed: u64) -> Self {
        ChaosSchedule::new(seed, ChaosConfig::standard())
    }

    /// The seed this schedule was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault rates this schedule draws from.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// The fault (if any) for the `index`-th operation at `seam`.
    ///
    /// `index` is the caller's operation counter for that seam (e.g.
    /// "third checkpoint-write attempt this process"). Pure: replaying
    /// the same counter sequence replays the same faults.
    pub fn io_fault(&self, seam: Seam, index: u64) -> Option<IoFault> {
        let c = &self.config;
        let (error_p, torn_p, flip_p) = match seam {
            Seam::CheckpointWrite | Seam::FinalWrite => (
                c.write_error_permille,
                c.write_torn_permille,
                c.write_bitflip_permille,
            ),
            Seam::CheckpointRead => (c.read_error_permille, 0, c.read_bitflip_permille),
            Seam::EventWrite => (c.event_error_permille, c.event_torn_permille, 0),
            Seam::ProcessSpawn => (c.spawn_error_permille, 0, 0),
        };
        let r = (roll(&[self.seed, seam.id(), index, 0]) % 1000) as u32;
        if r < error_p {
            // Low bit of a second roll picks the flavor of hard error.
            let kind = if roll(&[self.seed, seam.id(), index, 1]) & 1 == 0 {
                IoErrorKind::Eio
            } else {
                IoErrorKind::Enospc
            };
            Some(IoFault::Error(kind))
        } else if r < error_p.saturating_add(torn_p) {
            Some(IoFault::Torn {
                roll: roll(&[self.seed, seam.id(), index, 2]),
            })
        } else if r < error_p.saturating_add(torn_p).saturating_add(flip_p) {
            Some(IoFault::BitFlip {
                roll: roll(&[self.seed, seam.id(), index, 3]),
            })
        } else {
            None
        }
    }

    /// The worker-shard injection policy for `epoch`: a
    /// [`ShardChaos::Seeded`] whose stream is derived from this
    /// schedule's seed and the epoch, at the config's shard rates.
    pub fn shard_chaos(&self, epoch: u64) -> ShardChaos {
        let c = &self.config;
        if c.shard_panic_permille == 0 {
            return ShardChaos::Off;
        }
        ShardChaos::Seeded {
            seed: roll(&[self.seed, 0x5AD_C4A05, epoch]),
            panic_permille: c.shard_panic_permille,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let a = ChaosSchedule::standard(1);
        let b = ChaosSchedule::standard(2);
        let mut diverged = false;
        for index in 0..200 {
            assert_eq!(
                a.io_fault(Seam::CheckpointWrite, index),
                a.io_fault(Seam::CheckpointWrite, index),
                "schedule is not pure at index {index}"
            );
            diverged |= a.io_fault(Seam::CheckpointWrite, index)
                != b.io_fault(Seam::CheckpointWrite, index);
        }
        assert!(diverged, "seeds 1 and 2 agreed on 200 straight decisions");
    }

    #[test]
    fn zero_config_never_faults_and_full_rate_always_does() {
        let quiet = ChaosSchedule::new(9, ChaosConfig::default());
        let loud = ChaosSchedule::new(
            9,
            ChaosConfig {
                write_error_permille: 1000,
                ..ChaosConfig::default()
            },
        );
        for index in 0..500 {
            assert_eq!(quiet.io_fault(Seam::CheckpointWrite, index), None);
            assert_eq!(quiet.io_fault(Seam::EventWrite, index), None);
            assert!(matches!(
                loud.io_fault(Seam::FinalWrite, index),
                Some(IoFault::Error(_))
            ));
        }
    }

    #[test]
    fn observed_rates_track_the_permilles() {
        let schedule = ChaosSchedule::new(
            77,
            ChaosConfig {
                write_error_permille: 100,
                write_torn_permille: 100,
                write_bitflip_permille: 100,
                ..ChaosConfig::default()
            },
        );
        let n = 20_000u64;
        let mut faults = 0usize;
        for index in 0..n {
            if schedule.io_fault(Seam::CheckpointWrite, index).is_some() {
                faults += 1;
            }
        }
        let rate = faults as f64 / n as f64;
        assert!(
            (0.25..0.35).contains(&rate),
            "expected ~30% combined fault rate, observed {rate:.3}"
        );
    }

    #[test]
    fn seams_roll_independently() {
        let schedule = ChaosSchedule::new(
            5,
            ChaosConfig {
                write_error_permille: 300,
                event_error_permille: 300,
                ..ChaosConfig::default()
            },
        );
        let mut differ = false;
        for index in 0..100 {
            differ |= schedule.io_fault(Seam::CheckpointWrite, index).is_some()
                != schedule.io_fault(Seam::EventWrite, index).is_some();
        }
        assert!(differ, "checkpoint and event seams rolled identically");
    }

    #[test]
    fn scripted_shard_chaos_pins_exact_points() {
        let pinned = ShardChaos::PanicOn { shard: 1 };
        assert_eq!(pinned.decide(1), Some(ExecFault::Panic));
        assert_eq!(pinned.decide(0), None);
        assert_eq!(pinned.decide(2), None);

        assert_eq!(ShardChaos::Off.decide(0), None);
    }

    #[test]
    fn grid_seams_fault_at_standard_rates_without_disturbing_old_seams() {
        // The grid's spawn seam (id 9) keys its rolls on its own seam
        // id, so its rate must not change what any seed injects at the
        // campaign seams — the chaos_soak golden (seed 7) depends on
        // this.
        let before = ChaosSchedule::new(
            7,
            ChaosConfig {
                spawn_error_permille: 0,
                ..ChaosConfig::standard()
            },
        );
        let after = ChaosSchedule::standard(7);
        for seam in [
            Seam::CheckpointWrite,
            Seam::CheckpointRead,
            Seam::FinalWrite,
            Seam::EventWrite,
        ] {
            for index in 0..300 {
                assert_eq!(before.io_fault(seam, index), after.io_fault(seam, index));
            }
        }
        // And spawns fail at their standard rate: often enough to
        // exercise cell retries, rarely enough that bounded retries
        // converge. Spawn failures are hard errors only: there is no
        // meaningful torn or silently-corrupt fork/exec.
        let faults = (0..1000)
            .filter(|&i| after.io_fault(Seam::ProcessSpawn, i).is_some())
            .count();
        assert!(
            (1..700).contains(&faults),
            "spawn faulted {faults}/1000 rolls"
        );
        for index in 0..1000 {
            assert!(matches!(
                after.io_fault(Seam::ProcessSpawn, index),
                None | Some(IoFault::Error(_))
            ));
        }
    }

    #[test]
    fn seam_ids_are_pinned() {
        // Every roll key hashes the seam id, so an id change would
        // re-script every chaos run and break the chaos_soak and
        // grid_soak goldens. Ids 5–8 and 10–11 stay retired.
        let seams = [
            Seam::CheckpointWrite,
            Seam::CheckpointRead,
            Seam::FinalWrite,
            Seam::EventWrite,
            Seam::ProcessSpawn,
        ];
        let ids: Vec<u64> = seams.iter().map(|s| s.id()).collect();
        assert_eq!(ids, [1, 2, 3, 4, 9]);
    }

    #[test]
    fn seeded_shard_chaos_rerolls_on_retry() {
        // A retried grid cell runs under a freshly derived chaos seed,
        // so its shards roll again: at a 50% panic rate, some shard
        // must panic under one seed and pass under the next within a
        // small window — the property cell retries rely on to converge.
        let loud = ChaosConfig {
            shard_panic_permille: 500,
            ..ChaosConfig::default()
        };
        let first = ChaosSchedule::new(31, loud).shard_chaos(0);
        let retry = ChaosSchedule::new(32, loud).shard_chaos(0);
        let recovered =
            (0..64).any(|s| first.decide(s) == Some(ExecFault::Panic) && retry.decide(s).is_none());
        assert!(recovered, "no shard recovered on retry in 64 tries");
        // The per-epoch streams differ, and a stream is stable.
        let sched = ChaosSchedule::new(
            13,
            ChaosConfig {
                shard_panic_permille: 400,
                ..ChaosConfig::default()
            },
        );
        assert_ne!(sched.shard_chaos(0), sched.shard_chaos(1));
        assert_eq!(sched.shard_chaos(3), sched.shard_chaos(3));
        // No panic rate, no shard chaos.
        assert_eq!(
            ChaosSchedule::new(13, ChaosConfig::default()).shard_chaos(0),
            ShardChaos::Off
        );
    }
}
