//! Grid worker launchers: one cell, one campaign, one worker.
//!
//! A worker owns exactly one cell attempt. In **process** mode the
//! driver spawns `<program> campaign <spec> <cell-id> --dir <dir>
//! [--chaos-seed S]` per attempt — crash isolation for free (SIGKILL
//! the worker; its cell resumes from its own checkpoint slots) and the
//! mode the grid soak kills things in. In **in-process** mode the
//! worker is a thread evaluating pre-trained problems the caller
//! supplies — no subprocess overhead, used by unit tests and callers
//! embedding the grid in a larger program.
//!
//! Both modes run the cell through [`run_cell`], so the driver cannot
//! tell them apart by their results — only by what it can kill.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use chaos::ChaosSchedule;
use neural::{QuantizedNetwork, Tensor};

use super::{artifact_path, GridCell, GridSpec};
use crate::campaign::{Campaign, CampaignState};
use crate::AccelError;

/// A pre-trained workload an in-process worker evaluates: quantized
/// network, test images, test labels.
pub type Problem = (QuantizedNetwork, Tensor, Vec<usize>);

/// Opens, runs and finalizes one attempt of `cell`, the one cell runner
/// of both launchers: the config comes from [`GridSpec::cell_config`],
/// the campaign checkpoints to the cell's artifact in `dir` and resumes
/// whatever of it verifies ([`Campaign::open`]), under `chaos` (the
/// worker's fault schedule; `None` in production).
///
/// # Errors
///
/// Returns the campaign's error. Its finished epochs are saved to the
/// checkpoint slots first, so the next attempt resumes them.
pub fn run_cell(
    spec: &GridSpec,
    cell: &GridCell,
    dir: &Path,
    problem: &Problem,
    chaos: Option<ChaosSchedule>,
) -> Result<CampaignState, AccelError> {
    let (qnet, images, labels) = problem;
    let config = spec.cell_config(cell)?;
    let mut campaign = Campaign::open(config, &artifact_path(dir, cell), chaos)?;
    if let Err(e) = campaign.run(qnet, images, labels) {
        // Best effort: the error being returned is the one that matters.
        let _ = campaign.save_checkpoint();
        return Err(e);
    }
    // A resume that found every epoch already in the slots has nothing
    // to run; make sure the final artifact still lands.
    campaign.finalize()?;
    Ok(campaign.state().clone())
}

/// How the driver turns a queued cell into running work.
pub enum Launcher {
    /// Spawn `<program> campaign <spec> <cell-id> --dir <dir>` per
    /// attempt (the production mode; killable, crash-isolated).
    Process {
        /// Path of the CLI binary to spawn.
        program: PathBuf,
        /// Path of the spec file the worker reads; it must hold the
        /// driver's spec, which the worker's manifest check enforces.
        spec: PathBuf,
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
    /// Starts one attempt of `cell`, whose artifacts live in the grid
    /// directory `dir`. `chaos_seed` seeds the worker's own fault
    /// injection (derived per attempt by the driver; `None` in
    /// production).
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
        dir: &Path,
        chaos_seed: Option<u64>,
    ) -> Result<Handle, AccelError> {
        match self {
            Launcher::Process {
                program,
                spec: spec_path,
            } => {
                let mut cmd = Command::new(program);
                cmd.arg("campaign")
                    .arg(spec_path)
                    .arg(&cell.id)
                    .arg("--dir")
                    .arg(dir)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null());
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
                let (spec, cell, dir) = (spec.clone(), cell.clone(), dir.to_path_buf());
                let chaos = chaos_seed.map(ChaosSchedule::standard);
                let handle = std::thread::spawn(move || -> Result<(), AccelError> {
                    run_cell(&spec, &cell, &dir, &problem, chaos).map(drop)
                });
                Ok(Handle::Thread {
                    handle: Some(handle),
                    outcome: None,
                })
            }
        }
    }
}
