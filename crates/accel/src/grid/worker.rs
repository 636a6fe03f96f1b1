//! Grid worker launchers: one cell, one campaign, one worker.
//!
//! A worker owns exactly one cell attempt. In **process** mode the
//! driver spawns a fresh `campaign` CLI invocation per attempt —
//! crash isolation for free (SIGKILL the worker; its cell resumes from
//! its own checkpoint slots) and the mode the grid soak kills things
//! in. In **in-process** mode the worker is a thread running
//! [`Campaign`] directly against
//! pre-trained problems the caller supplies — no subprocess overhead,
//! used by unit tests and callers embedding the grid in a larger
//! program.
//!
//! Both modes write the exact same artifacts through the exact same
//! campaign substrate, so the driver cannot tell them apart by their
//! results — only by what it can kill.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use chaos::ChaosSchedule;
use neural::{QuantizedNetwork, Tensor};

use super::{GridCell, GridSpec};
use crate::campaign::Campaign;
use crate::AccelError;

/// A pre-trained workload an in-process worker evaluates: quantized
/// network, test images, test labels.
pub type Problem = (QuantizedNetwork, Tensor, Vec<usize>);

/// How the driver turns a queued cell into running work.
pub enum Launcher {
    /// Spawn `<program> campaign …` per attempt (the production mode;
    /// killable, crash-isolated).
    Process {
        /// Path of the CLI binary to spawn.
        program: PathBuf,
    },
    /// Run the campaign on a thread against caller-supplied problems,
    /// keyed by model label (any of [`neural::workload::MODELS`]).
    InProcess {
        /// Pre-trained problems shared across worker threads.
        problems: HashMap<String, Arc<Problem>>,
    },
}

/// A live worker the driver polls.
pub enum Handle {
    /// A spawned CLI subprocess.
    Process(Child),
    /// A worker thread, plus the cached outcome once joined (so
    /// repeated polls keep reporting the real result instead of
    /// consuming it on the first join).
    Thread {
        /// The join handle; `None` once joined.
        handle: Option<std::thread::JoinHandle<Result<(), AccelError>>>,
        /// Outcome cached at join time.
        outcome: Option<Poll>,
    },
}

/// One poll of a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// Still working.
    Running,
    /// Finished. `ok` is process exit-success / thread `Ok`; `detail`
    /// carries the exit status or error text for retry diagnostics.
    Exited {
        /// Whether the worker reported success.
        ok: bool,
        /// Exit status or error description.
        detail: String,
    },
}

impl Handle {
    /// Non-blocking status check. Polling an exited worker again
    /// re-reports the cached outcome.
    pub fn poll(&mut self) -> Poll {
        match self {
            Handle::Process(child) => match child.try_wait() {
                Ok(Some(status)) => Poll::Exited {
                    ok: status.success(),
                    detail: status.to_string(),
                },
                Ok(None) => Poll::Running,
                Err(e) => Poll::Exited {
                    ok: false,
                    detail: format!("wait failed: {e}"),
                },
            },
            Handle::Thread { handle, outcome } => {
                if let Some(cached) = outcome.as_ref() {
                    return cached.clone();
                }
                let finished = handle.as_ref().map(|h| h.is_finished()).unwrap_or(true);
                if !finished {
                    return Poll::Running;
                }
                let polled = match handle.take() {
                    Some(h) => match h.join() {
                        Ok(Ok(())) => Poll::Exited {
                            ok: true,
                            detail: "ok".into(),
                        },
                        Ok(Err(e)) => Poll::Exited {
                            ok: false,
                            detail: e.to_string(),
                        },
                        Err(_) => Poll::Exited {
                            ok: false,
                            detail: "worker thread panicked".into(),
                        },
                    },
                    None => Poll::Exited {
                        ok: false,
                        detail: "no thread handle".into(),
                    },
                };
                *outcome = Some(polled.clone());
                polled
            }
        }
    }

    /// Kills the worker if it can be killed. Subprocesses get SIGKILL
    /// (their cells resume from checkpoint slots — that is the whole
    /// design); threads cannot be killed and are left to finish, which
    /// is why watchdogs only apply to process launchers.
    pub fn kill(&mut self) {
        if let Handle::Process(child) = self {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Launcher {
    /// Starts one attempt of `cell`, writing its final artifact to
    /// `artifact` and its event log to `events`. `chaos_seed` seeds
    /// the worker's own fault injection (derived per attempt by the
    /// driver; `None` in production).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Grid`] (stage `spawn`) when the process
    /// cannot be spawned or the in-process launcher has no problem for
    /// the cell's model.
    pub fn launch(
        &self,
        spec: &GridSpec,
        cell: &GridCell,
        artifact: &Path,
        events: &Path,
        chaos_seed: Option<u64>,
    ) -> Result<Handle, AccelError> {
        match self {
            Launcher::Process { program } => {
                let mut cmd = Command::new(program);
                cmd.arg("campaign")
                    .arg(&cell.scheme)
                    .arg(spec.epochs.to_string())
                    .arg("--model")
                    .arg(&cell.model)
                    .arg("--samples")
                    .arg(spec.samples.to_string())
                    .arg("--train")
                    .arg(spec.train.to_string())
                    .arg("--seed")
                    .arg(cell.seed.to_string())
                    .arg("--threads")
                    .arg(spec.threads.to_string())
                    .arg("--cell-bits")
                    .arg(cell.cell_bits.to_string())
                    // f64 Display is shortest-roundtrip, so the worker
                    // parses back the exact spec value.
                    .arg("--writes-per-epoch")
                    .arg(format!("{}", cell.writes_per_epoch))
                    .arg("--initial-writes")
                    .arg(format!("{}", spec.initial_writes))
                    .arg("--checkpoint-every")
                    .arg(spec.checkpoint_every.to_string())
                    .arg("--error-model")
                    .arg(&spec.error_model)
                    .arg("--out")
                    .arg(artifact)
                    .arg("--events")
                    .arg(events)
                    .arg("--resume-or-new")
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null());
                // The worker applies each override through the same
                // `CampaignConfig::apply` that `GridSpec::cell_config`
                // uses in-process.
                for (knob, value) in cell.knobs() {
                    let json = serde_json::to_string(value).map_err(|e| AccelError::Grid {
                        stage: "spawn".into(),
                        message: format!("knob {knob} of {}: {e:?}", cell.id),
                    })?;
                    cmd.arg("--set").arg(format!("{knob}={json}"));
                }
                if let Some(seed) = chaos_seed {
                    cmd.arg("--chaos-seed").arg(seed.to_string());
                }
                let child = cmd.spawn().map_err(|e| AccelError::Grid {
                    stage: "spawn".into(),
                    message: format!("spawn {} for {}: {e}", program.display(), cell.id),
                })?;
                Ok(Handle::Process(child))
            }
            Launcher::InProcess { problems } => {
                let problem =
                    problems
                        .get(&cell.model)
                        .cloned()
                        .ok_or_else(|| AccelError::Grid {
                            stage: "spawn".into(),
                            message: format!(
                                "no in-process problem registered for model {}",
                                cell.model
                            ),
                        })?;
                let config = spec.cell_config(cell)?;
                let artifact = artifact.to_path_buf();
                let chaos = chaos_seed.map(ChaosSchedule::standard);
                let handle = std::thread::spawn(move || -> Result<(), AccelError> {
                    let (qnet, images, labels) = &*problem;
                    let mut campaign =
                        Campaign::new_or_resume_with_chaos(config, &artifact, chaos)?;
                    campaign.run(qnet, images, labels)?;
                    // A resume that found every epoch already in the
                    // slots has nothing to run; make sure the final
                    // artifact still lands.
                    campaign.finalize()
                });
                Ok(Handle::Thread {
                    handle: Some(handle),
                    outcome: None,
                })
            }
        }
    }
}
