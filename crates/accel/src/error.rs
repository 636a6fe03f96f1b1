//! Structured errors for the accelerator evaluation stack.
//!
//! The simulation entry points ([`sim::evaluate`](crate::sim::evaluate),
//! [`campaign`](crate::campaign)) run for hours at realistic sample
//! counts, so recoverable failures — a bad config, a panicking worker, a
//! corrupt checkpoint — must surface as values the caller can report and
//! act on, not process aborts. This hand-rolled `thiserror`-style enum
//! (crates.io is unavailable in this environment) is that surface.

use ancode::CodeError;

/// An error produced by the accelerator simulation stack.
///
/// # Examples
///
/// ```
/// use accel::AccelError;
///
/// // Errors render as actionable messages and match structurally.
/// let err = AccelError::WorkerPanic {
///     shard: 3,
///     seed: 99,
///     message: "boom".into(),
/// };
/// assert_eq!(err.to_string(), "worker shard 3 (seed 99) panicked: boom");
/// assert!(matches!(err, AccelError::WorkerPanic { shard: 3, .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AccelError {
    /// The evaluation request carried no test samples.
    EmptyTestSet,
    /// The image tensor and label slice disagree on the sample count,
    /// or the image tensor is not `[n, features]`.
    ShapeMismatch {
        /// What the caller supplied, e.g. `"images tensor is rank 1"`.
        detail: String,
    },
    /// The accelerator configuration is internally inconsistent.
    InvalidConfig(String),
    /// Code construction / A-search failed while mapping a matrix.
    Code(CodeError),
    /// A Monte-Carlo worker shard panicked, so the evaluation cannot
    /// complete. A grid cell attempt that sees this is retried.
    WorkerPanic {
        /// Index of the failed shard (worker thread).
        shard: usize,
        /// RNG seed the shard ran with.
        seed: u64,
        /// Panic payload, when it was a string.
        message: String,
    },
    /// Reading or writing a campaign checkpoint failed.
    Checkpoint {
        /// Path of the checkpoint involved.
        path: String,
        /// Underlying I/O or parse failure.
        message: String,
    },
    /// A campaign was opened on a checkpoint recorded under different
    /// campaign parameters than the ones requested.
    ResumeMismatch(String),
    /// The grid driver failed at a coordination step (spec parsing,
    /// manifest validation, worker spawn, cell bookkeeping, merge).
    Grid {
        /// What the driver was doing (e.g. `"spec"`, `"manifest"`,
        /// `"cells"`, `"merge"`).
        stage: String,
        /// Underlying failure.
        message: String,
    },
    /// The inference service failed to start or tear down cleanly.
    Service {
        /// What the service was doing (e.g. `"bind"`, `"join"`).
        stage: String,
        /// Underlying failure.
        message: String,
    },
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::EmptyTestSet => {
                write!(f, "evaluation requested over an empty test set")
            }
            AccelError::ShapeMismatch { detail } => {
                write!(f, "test-set shape mismatch: {detail}")
            }
            AccelError::InvalidConfig(detail) => {
                write!(f, "invalid accelerator configuration: {detail}")
            }
            AccelError::Code(e) => write!(f, "code construction failed: {e}"),
            AccelError::WorkerPanic {
                shard,
                seed,
                message,
            } => write!(f, "worker shard {shard} (seed {seed}) panicked: {message}"),
            AccelError::Checkpoint { path, message } => {
                write!(f, "checkpoint {path}: {message}")
            }
            AccelError::ResumeMismatch(detail) => {
                write!(f, "checkpoint does not match requested campaign: {detail}")
            }
            AccelError::Grid { stage, message } => {
                write!(f, "grid {stage}: {message}")
            }
            AccelError::Service { stage, message } => {
                write!(f, "inference service {stage}: {message}")
            }
        }
    }
}

impl std::error::Error for AccelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccelError::Code(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodeError> for AccelError {
    fn from(e: CodeError) -> Self {
        AccelError::Code(e)
    }
}
