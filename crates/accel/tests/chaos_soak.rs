//! The chaos soak: a full lifetime campaign with deterministic faults
//! injected at every I/O seam the durability layer hardens — periodic
//! checkpoint writes (errors, torn writes, silent bit flips),
//! checkpoint reads during resume (bit flips), and the final results
//! write — interrupted mid-flight ("kill") and resumed. Worker-shard
//! panics are off here: a panic fails its epoch, and recovering it is
//! the grid's cell retry (`grid_soak.rs` and the grid unit tests).
//!
//! The headline property of the whole subsystem: the recovered
//! campaign's final results are **byte-identical** to a fault-free
//! uninterrupted run, and the same `(seed, chaos_seed)` pair replays
//! the same recovery bit-for-bit.
//!
//! The chaos seed is pinned: faults are a pure function of
//! `(chaos_seed, seam, index)`, so this test exercises one fixed,
//! locally-verified fault script rather than a flaky random one. A
//! failing soak is therefore a one-line repro:
//! `reram-ecc campaign --seed 41 --chaos-seed 7 ...`.

use std::path::{Path, PathBuf};

use accel::campaign::{Campaign, CampaignConfig};
use accel::{AccelConfig, ProtectionScheme};
use chaos::{ChaosConfig, ChaosSchedule};
use neural::{QuantizedNetwork, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pinned chaos seed. Verified to drive the standard fault rates
/// through every recovery path this test asserts on; change it only
/// together with the assertions below.
const CHAOS_SEED: u64 = 7;

/// The obs event sink is process-global, and every test here emits
/// into it (under `--features obs`): serialize them so the fault
/// transcript never interleaves with a neighboring lifecycle.
static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// A tiny trained network and test set (the campaign unit tests'
/// recipe: small test split, because the soak evaluates it many
/// times). Trained once per process — every test soaks the same model.
fn tiny_problem() -> (&'static QuantizedNetwork, &'static Tensor, &'static [usize]) {
    static PROBLEM: std::sync::OnceLock<(QuantizedNetwork, Tensor, Vec<usize>)> =
        std::sync::OnceLock::new();
    let (qnet, images, labels) = PROBLEM.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = neural::models::mlp2(&mut rng);
        let mut train = neural::data::digits(400, 1);
        neural::data::shuffle(&mut train, 2);
        for _ in 0..3 {
            net.train_epoch(&train.images, &train.labels, 32, 0.1);
        }
        let test = neural::data::digits(8, 99);
        let qnet = QuantizedNetwork::from_network(&net);
        (qnet, test.images, test.labels)
    });
    (qnet, images, labels)
}

/// The standard fault mix at the pinned seed, minus shard panics.
fn soak_schedule() -> ChaosSchedule {
    ChaosSchedule::new(
        CHAOS_SEED,
        ChaosConfig {
            shard_panic_permille: 0,
            ..ChaosConfig::standard()
        },
    )
}

/// The campaign under soak: single-threaded (one shard per epoch), a
/// steep wear schedule, and checkpoints every epoch.
fn soak_config() -> CampaignConfig {
    let mut config = CampaignConfig::new(AccelConfig::new(ProtectionScheme::None), 4, 41);
    config.threads = 1;
    config.writes_per_epoch = 2e5;
    config
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chaos-soak-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// One full chaotic lifecycle: fresh campaign under injection, killed
/// after two of four epochs, resumed (read seam under injection too),
/// run to completion. Returns the final results bytes.
fn chaotic_lifecycle(
    dir: &Path,
    qnet: &QuantizedNetwork,
    images: &Tensor,
    labels: &[usize],
) -> String {
    let schedule = soak_schedule();
    let path = dir.join("campaign.json");

    let mut first = Campaign::new(soak_config())
        .expect("campaign")
        .with_checkpoint(path.clone())
        .with_chaos(schedule);
    first
        .run_epochs(qnet, images, labels, 2)
        .expect("pre-kill epochs");
    assert_eq!(first.completed_epochs(), 2);
    // "Kill": the process dies here; only what the checkpoint slots
    // hold survives.
    drop(first);

    let mut resumed = Campaign::resume_with_chaos(soak_config(), &path, Some(schedule))
        .expect("resume under chaos");
    assert!(
        resumed.completed_epochs() <= 2,
        "resume cannot know epochs the checkpoint never recorded"
    );
    resumed.run(qnet, images, labels).expect("post-kill epochs");
    std::fs::read_to_string(&path).expect("final results")
}

#[test]
fn soaked_campaign_recovers_byte_identical_to_clean_run() {
    let _g = guard();
    let (qnet, images, labels) = tiny_problem();

    // Fault-free, uninterrupted, checkpoint-free reference.
    let mut reference = Campaign::new(soak_config()).expect("campaign");
    reference.run(&qnet, &images, &labels).expect("clean run");
    let reference_json = reference.state().to_json().expect("json");

    // The same campaign dragged through the full fault gauntlet.
    let dir = scratch_dir("lifecycle");
    let soaked = chaotic_lifecycle(&dir, &qnet, &images, &labels);
    assert_eq!(
        soaked, reference_json,
        "chaos + kill + resume must not change a single byte of the results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_replays_bit_for_bit() {
    let _g = guard();
    let (qnet, images, labels) = tiny_problem();
    let dir_a = scratch_dir("replay-a");
    let dir_b = scratch_dir("replay-b");
    let a = chaotic_lifecycle(&dir_a, &qnet, &images, &labels);
    let b = chaotic_lifecycle(&dir_b, &qnet, &images, &labels);
    assert_eq!(
        a, b,
        "same (seed, chaos_seed) must replay the identical recovery"
    );
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// The event log is the soak's flight recorder: under `--features obs`
/// the chaos run must announce its injected faults (`chaos_fault`) and
/// the replayed lifecycle must produce the identical fault transcript
/// (timestamps excluded — they are the one nondeterministic field).
#[cfg(feature = "obs")]
#[test]
fn soak_fault_transcript_is_deterministic() {
    let _g = guard();
    let (qnet, images, labels) = tiny_problem();

    let transcript = |dir: &Path| -> Vec<String> {
        obs::events::log_to_memory();
        let _ = chaotic_lifecycle(dir, &qnet, &images, &labels);
        let lines = obs::events::take_memory();
        obs::events::stop_logging();
        // `checkpoint_fallback` events carry the artifact's absolute
        // path; normalize the per-lifecycle scratch dir away so the
        // two replays compare on fault content alone.
        let dir_str = dir.display().to_string();
        lines
            .into_iter()
            .filter(|l| {
                l.contains("\"type\":\"chaos_fault\"")
                    || l.contains("\"type\":\"checkpoint_fallback\"")
                    || l.contains("\"type\":\"checkpoint_write_failed\"")
            })
            .map(|l| strip_ts(l).replace(&dir_str, "<dir>"))
            .collect()
    };

    let dir_a = scratch_dir("transcript-a");
    let dir_b = scratch_dir("transcript-b");
    let a = transcript(&dir_a);
    let b = transcript(&dir_b);
    assert!(
        !a.is_empty(),
        "the pinned chaos seed must actually inject faults"
    );
    assert!(
        a.iter().any(|l| l.contains("\"seam\":\"checkpoint_write\"")),
        "transcript: {a:#?}"
    );
    assert_eq!(a, b, "fault transcript must replay bit-for-bit");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Drops the `"ts_ns":<n>,` field from an event line; everything else
/// in the transcript is deterministic.
#[cfg(feature = "obs")]
fn strip_ts(line: String) -> String {
    match (line.find("\"ts_ns\":"), line.find("\"type\":")) {
        (Some(start), Some(end)) if start < end => {
            format!("{}{}", &line[..start], &line[end..])
        }
        _ => line,
    }
}
