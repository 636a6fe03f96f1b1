//! Grid-runner soak: kill anything, resume, get the same bytes.
//!
//! The tentpole invariant, end to end through the real binary: a
//! `campaign-grid` sweep whose worker processes AND driver are
//! SIGKILLed mid-run under the standard chaos schedule (seed 7), then
//! resumed with the same command line, produces a
//! `grid_summary.json` byte-identical to an uninterrupted fault-free
//! run. Cell artifacts, checkpoint slots, and the manifest absorb every
//! kill and every injected worker panic; nothing is re-randomized by a
//! retry.
//!
//! Also here: merge resumability (the merge step regenerates the
//! summary byte-identically from per-cell artifacts whatever state a
//! kill left the old summary in) and field-by-field validation of the
//! driver's recorded grid events against `obs::schema`.
//!
//! Also here: the two launchers agree — process workers and
//! `--in-process` threads merge byte-identical summaries.
//!
//! Each test owns its own directories under the system temp dir, so
//! the tests are parallel-safe; runs are deterministic, so directories
//! are removed up front and rebuilt, and removed again when the test
//! passes (a failing test leaves them for inspection).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Two cells (NoECC and ABN-9 on one tiny mlp2 workload), three
/// epochs, per-epoch checkpoints — small enough for debug-mode soaks,
/// structured enough that a kill lands mid-cell with real state in the
/// A/B slots. Under chaos seed 7, epoch 2 of the ABN-9 cell panics on
/// its first two attempts of each driver run, so the soak always
/// retries a worker panic.
const SPEC: &str = r#"{
  "version": 1,
  "models": ["mlp2"],
  "schemes": ["NoECC", "ABN-9"],
  "cell_bits": [2],
  "writes_per_epoch": [200000.0],
  "seeds": [41],
  "epochs": 3,
  "samples": 4,
  "train": 120,
  "threads": 1,
  "checkpoint_every": 1,
  "initial_writes": 1000000.0,
  "error_model": "mc"
}"#;

fn soak_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reram_grid_soak_{tag}_{}", std::process::id()))
}

fn write_spec(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create spec dir");
    let path = dir.join("spec.json");
    std::fs::write(&path, SPEC).expect("write spec");
    path
}

/// A `campaign-grid` driver invocation against `dir`, run from the
/// spec's directory so the weight cache (`results/weights/`, relative
/// to the working directory) lands beside the spec, not in the source
/// tree.
fn driver(spec: &Path, dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reram-ecc"));
    cmd.current_dir(spec.parent().expect("spec has a parent directory"))
        .arg("campaign-grid")
        .arg(spec)
        .arg("--dir")
        .arg(dir)
        .arg("--workers")
        .arg("2")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for a in extra {
        cmd.arg(a);
    }
    cmd
}

fn run_to_completion(spec: &Path, dir: &Path, extra: &[&str]) {
    let status = driver(spec, dir, extra).status().expect("spawn driver");
    assert!(status.success(), "driver failed for {}", dir.display());
}

/// Finds a live worker subprocess of the grid at `dir`: a `campaign`
/// invocation (the driver's own argv starts with `campaign-grid`)
/// whose `--dir` is the grid directory.
fn find_worker(dir: &Path) -> Option<u32> {
    let needle = dir.to_str().expect("utf8 dir");
    let proc_dir = std::fs::read_dir("/proc").ok()?;
    for entry in proc_dir.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(raw) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        let argv: Vec<&str> = raw
            .split(|&b| b == 0)
            .filter_map(|s| std::str::from_utf8(s).ok())
            .collect();
        if argv.get(1) == Some(&"campaign") && argv.windows(2).any(|w| w == ["--dir", needle]) {
            return Some(pid);
        }
    }
    None
}

fn sigkill(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

fn summary_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("grid_summary.json")).expect("read grid summary")
}

/// Chaos-injection flags for the interrupted run and its resume: the
/// golden seed 7 (shared with the campaign chaos soak), enough
/// cell retries to absorb injected spawn and I/O faults, and a
/// zero-tolerance lost-cell budget — every cell must complete.
const CHAOS: [&str; 6] = [
    "--chaos-seed",
    "7",
    "--cell-retries",
    "6",
    "--max-lost-cells",
    "0",
];

/// Tentpole soak: SIGKILL a worker, then SIGKILL the driver, resume
/// with the same command line under the same chaos schedule, and
/// demand the merged summary match a fault-free run byte for byte.
#[test]
fn kill_worker_and_driver_resume_is_byte_identical() {
    let clean_dir = soak_dir("clean");
    let chaos_dir = soak_dir("chaos");
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
    let spec = write_spec(&soak_dir("spec"));

    // Fault-free reference.
    run_to_completion(&spec, &clean_dir, &[]);
    let oracle = summary_bytes(&clean_dir);

    // Interrupted run: chaos on, one worker SIGKILLed mid-cell, then
    // the driver SIGKILLed while cells are still in flight.
    let events = chaos_dir.with_extension("events.jsonl");
    let _ = std::fs::remove_file(&events);
    let events_arg = events.to_str().expect("utf8 events path").to_string();
    let mut chaos_args: Vec<&str> = CHAOS.to_vec();
    chaos_args.extend(["--events", &events_arg]);

    let mut interrupted = driver(&spec, &chaos_dir, &chaos_args)
        .spawn()
        .expect("spawn interrupted driver");
    let deadline = Instant::now() + Duration::from_secs(180);
    let worker = loop {
        if let Some(pid) = find_worker(&chaos_dir) {
            break pid;
        }
        if let Some(status) = interrupted.try_wait().expect("poll driver") {
            panic!("driver exited ({status}) before any worker could be killed");
        }
        assert!(Instant::now() < deadline, "no worker appeared within 180s");
        std::thread::sleep(Duration::from_millis(25));
    };
    sigkill(worker);
    // Give the retry machinery a beat so the driver dies with work
    // genuinely in flight, then kill it too.
    std::thread::sleep(Duration::from_millis(200));
    let _ = interrupted.kill();
    let _ = interrupted.wait();

    // Resume: same command line, same chaos seed. Cells whose final
    // artifact verifies are skipped; killed cells resume from their
    // newest verifying checkpoint slot.
    run_to_completion(&spec, &chaos_dir, &chaos_args);
    assert_eq!(
        summary_bytes(&chaos_dir),
        oracle,
        "summary after kill+resume under chaos diverged from the fault-free run"
    );

    validate_events_against_schema(&events);
    // A worker announces an injected shard panic in its own event log
    // before the panic fails its attempt; the cell retry recovered it.
    let panics = worker_panic_lines(&chaos_dir);
    assert!(panics > 0, "no worker attempt failed on an injected panic");

    remove_all(&[&clean_dir, &chaos_dir, &soak_dir("spec"), &events]);
}

/// Removes every directory or file in `paths` (missing ones included).
fn remove_all(paths: &[&Path]) {
    for path in paths {
        let _ = std::fs::remove_dir_all(path);
        let _ = std::fs::remove_file(path);
    }
}

/// The launcher contract: a spec with a two-variant `set` axis merges
/// byte-identical summaries whether its cells run as `campaign`
/// worker processes or as `--in-process` threads.
#[test]
fn process_and_in_process_launchers_merge_identical_summaries() {
    let spec_dir = soak_dir("launchers");
    let _ = std::fs::remove_dir_all(&spec_dir);
    std::fs::create_dir_all(&spec_dir).expect("create spec dir");
    let spec = spec_dir.join("spec.json");
    let variants = r#""error_model": "mc",
  "variants": [
    {"name": "base", "set": {}},
    {"name": "p_rtn_0.22", "set": {"device.rtn_state_probability": 0.22}}
  ]"#;
    let text = SPEC
        .replace(r#""error_model": "mc""#, variants)
        .replace(r#""epochs": 3"#, r#""epochs": 2"#);
    std::fs::write(&spec, text).expect("write spec");

    let process = spec_dir.join("process");
    let threads = spec_dir.join("threads");
    run_to_completion(&spec, &process, &[]);
    run_to_completion(&spec, &threads, &["--in-process"]);
    let summary = summary_bytes(&process);
    assert!(
        String::from_utf8_lossy(&summary).contains("p_rtn_0.22"),
        "the variant axis is missing from the summary"
    );
    assert_eq!(
        summary,
        summary_bytes(&threads),
        "process and in-process launchers merged different summaries"
    );
    remove_all(&[&spec_dir]);
}

/// Counts injected shard-panic `chaos_fault` lines across the grid's
/// per-cell worker event logs.
fn worker_panic_lines(dir: &Path) -> usize {
    let cells = std::fs::read_dir(dir.join("cells")).expect("read cells dir");
    cells
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".events.jsonl"))
        .map(|e| std::fs::read_to_string(e.path()).expect("read worker event log"))
        .map(|log| {
            log.lines()
                .filter(|l| {
                    l.contains("\"type\":\"chaos_fault\",\"seam\":\"shard\"")
                        && l.contains("\"fault\":\"panic\"")
                })
                .count()
        })
        .sum()
}

/// Merge resumability: whatever state a kill leaves the old summary in
/// (present, missing, or a torn legacy fragment), `--merge-only`
/// regenerates it byte-identically from the per-cell artifacts.
#[test]
fn merge_regenerates_summary_from_any_interrupted_state() {
    let dir = soak_dir("merge");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = write_spec(&soak_dir("merge_spec"));
    run_to_completion(&spec, &dir, &[]);
    let oracle = summary_bytes(&dir);
    let summary = dir.join("grid_summary.json");

    // Killed before the summary rename landed: no file at all.
    std::fs::remove_file(&summary).expect("remove summary");
    run_to_completion(&spec, &dir, &["--merge-only"]);
    assert_eq!(
        summary_bytes(&dir),
        oracle,
        "merge after missing summary diverged"
    );

    // A torn fragment (not reachable through the atomic writer, but
    // the merge must not trust whatever bytes it finds regardless).
    std::fs::write(&summary, &oracle[..oracle.len() / 2]).expect("write fragment");
    run_to_completion(&spec, &dir, &["--merge-only"]);
    assert_eq!(
        summary_bytes(&dir),
        oracle,
        "merge over torn summary diverged"
    );

    // A second merge over a complete summary is a byte-stable no-op.
    run_to_completion(&spec, &dir, &["--merge-only"]);
    assert_eq!(summary_bytes(&dir), oracle, "repeated merge not idempotent");
    remove_all(&[&dir, &soak_dir("merge_spec")]);
}

/// Field-by-field schema validation of the driver's event log: every
/// line parses, carries the current schema version, a known type, and
/// exactly the spec'd fields with the spec'd JSON kinds — including
/// the grid driver's `grid_cell_done`.
fn validate_events_against_schema(path: &Path) {
    use serde::Value;

    struct Echo(Value);
    impl serde::Deserialize for Echo {
        fn from_value(value: &Value) -> Result<Echo, String> {
            Ok(Echo(value.clone()))
        }
    }

    let text = std::fs::read_to_string(path).expect("read driver event log");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "driver run recorded no events");

    let mut seen_types: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut done_cells: std::collections::HashSet<String> = std::collections::HashSet::new();
    for line in &lines {
        let value = serde_json::from_str::<Echo>(line)
            .unwrap_or_else(|e| panic!("unparseable event line ({e}): {line}"))
            .0;
        let fields = value
            .as_object()
            .unwrap_or_else(|| panic!("event line is not an object: {line}"));
        match value.get("v") {
            Some(&Value::Number(n)) if n == obs::schema::VERSION as f64 => {}
            other => panic!("bad schema version {other:?} in: {line}"),
        }
        match value.get("ts_ns") {
            Some(&Value::Number(n)) if n >= 0.0 && n.fract() == 0.0 => {}
            other => panic!("bad ts_ns {other:?} in: {line}"),
        }
        let ty = match value.get("type") {
            Some(Value::String(s)) => s.clone(),
            other => panic!("bad type {other:?} in: {line}"),
        };
        let spec = obs::schema::spec_for(&ty)
            .unwrap_or_else(|| panic!("event type {ty} not in obs::schema::EVENTS: {line}"));
        for field in spec.fields {
            let got = value
                .get(field.name)
                .unwrap_or_else(|| panic!("{ty} line missing field {}: {line}", field.name));
            let kind_ok = match field.kind {
                obs::schema::FieldKind::U64 => {
                    matches!(got, &Value::Number(n) if n >= 0.0 && n.fract() == 0.0)
                }
                obs::schema::FieldKind::F64 => matches!(got, Value::Number(_)),
                obs::schema::FieldKind::Str => matches!(got, Value::String(_)),
                obs::schema::FieldKind::Bool => matches!(got, Value::Bool(_)),
            };
            assert!(
                kind_ok,
                "{ty} field {} has wrong kind (want {:?}): {line}",
                field.name, field.kind
            );
        }
        for (key, _) in fields {
            let known = key == "v"
                || key == "ts_ns"
                || key == "type"
                || spec.fields.iter().any(|f| f.name == key);
            assert!(known, "{ty} line carries undocumented field {key}: {line}");
        }
        if ty == "grid_cell_done" {
            if let Some(Value::String(cell)) = value.get("cell") {
                done_cells.insert(cell.clone());
            }
        }
        seen_types.insert(ty);
    }
    assert!(
        seen_types.contains("grid_cell_done"),
        "soak never recorded grid_cell_done; saw {seen_types:?}"
    );
    assert_eq!(
        done_cells.len(),
        2,
        "expected both cells verified done in the event log; saw {done_cells:?}"
    );
}
