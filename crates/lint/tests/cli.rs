//! End-to-end tests of the `repro-lint` binary: builds a throwaway
//! mini-workspace on disk, seeds violations, and asserts on real
//! process exit codes — the same contract `scripts/check.sh` relies on.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_workspace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-lint-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/accel/src")).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
    dir
}

fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(path, content).expect("write");
}

fn run_lint(root: &Path, args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro-lint"))
        .arg(args[0])
        .args(["--root", root.to_str().expect("utf8 root")])
        .args(&args[1..])
        .output()
        .expect("spawn repro-lint");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    (output.status.code().unwrap_or(-1), stdout)
}

#[test]
fn seeded_panic_reachability_fails_and_baseline_suppresses_it() {
    let root = temp_workspace("seeded");
    // `accel::sim::evaluate` is a crash-safe entry point; the unwrap
    // it reaches through `shard` must be flagged, the one in the test
    // module must not (test code is out of scope).
    write(
        &root,
        "crates/accel/src/sim.rs",
        "pub fn evaluate() { shard(); }\n\
         fn shard() { let x: Option<u32> = None; x.unwrap(); }\n\
         #[cfg(test)]\nmod tests { fn t() { let y: Option<u32> = None; y.unwrap(); } }\n",
    );

    // No baseline: the seeded violation must fail the check (exit 1)
    // and be reported machine-readably.
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 1, "expected failure, got:\n{out}");
    assert!(
        out.contains("crates/accel/src/sim.rs:2: panic_reachability"),
        "missing file:line report:\n{out}"
    );
    assert!(
        out.contains("reachable from crash-safe entry `accel::sim::evaluate`"),
        "missing origin trace:\n{out}"
    );
    // The cfg(test) unwrap must not be reported.
    assert!(
        !out.contains("sim.rs:5"),
        "test-region unwrap leaked:\n{out}"
    );

    // Record the baseline: check now passes (exit 0).
    let (code, out) = run_lint(&root, &["baseline"]);
    assert_eq!(code, 0, "baseline write failed:\n{out}");
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 0, "baselined violation still fails:\n{out}");
    assert!(out.contains("1 baseline-suppressed"), "{out}");

    // A *new* reachable panic on top of the baseline fails again.
    write(
        &root,
        "crates/accel/src/sim.rs",
        "pub fn evaluate() { shard(); fresh(); }\n\
         fn shard() { let x: Option<u32> = None; x.unwrap(); }\n\
         fn fresh() { panic!(\"new\"); }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 1, "new violation not caught:\n{out}");
    assert!(out.contains("REGRESSION"), "{out}");

    // Fixing *both* makes the baseline stale — also a failure, with a
    // pointer at the regeneration command.
    write(&root, "crates/accel/src/sim.rs", "pub fn evaluate() {}\n");
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 1, "stale baseline not caught:\n{out}");
    assert!(out.contains("STALE BASELINE"), "{out}");
    assert!(out.contains("repro-lint -- baseline"), "{out}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn panic_reachability_respects_catch_unwind_and_dead_code() {
    let root = temp_workspace("unwind");
    // The unwrap inside the catch_unwind closure is shielded; the
    // unwrap in `orphan` is unreachable from any entry point. Neither
    // may be reported.
    write(
        &root,
        "crates/accel/src/sim.rs",
        "pub fn evaluate() {\n\
           let r = std::panic::catch_unwind(|| { shard() });\n\
         }\n\
         fn shard() { let x: Option<u32> = None; x.unwrap(); }\n\
         fn orphan() { let y: Option<u32> = None; y.unwrap(); }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 0, "shielded/dead panics were flagged:\n{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chaos_seam_coverage_flags_raw_io_until_routed_through_seam() {
    let root = temp_workspace("seam");
    write(
        &root,
        "crates/accel/src/campaign.rs",
        "fn save(p: &std::path::Path) { std::fs::write(p, b\"x\"); }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 1, "raw write not caught:\n{out}");
    assert!(
        out.contains("crates/accel/src/campaign.rs:1: chaos_seam_coverage"),
        "{out}"
    );

    // Routing through the chaos seam clears the finding; the same raw
    // call outside the seam scope was never in scope to begin with.
    write(
        &root,
        "crates/accel/src/campaign.rs",
        "fn save(p: &std::path::Path, fault: Option<IoFault>) {\n\
           chaos::fs::write_atomic(p, b\"x\", fault);\n\
         }\n",
    );
    write(
        &root,
        "crates/accel/src/engine.rs",
        "fn scratch(p: &std::path::Path) { std::fs::write(p, b\"x\"); }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 0, "seam-routed write still flagged:\n{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn schema_drift_cross_checks_emit_sites_against_schema() {
    let root = temp_workspace("schema");
    let schema = "pub const VERSION: u64 = 3;\n\
        const U64: FieldKind = FieldKind::U64;\n\
        const STR: FieldKind = FieldKind::Str;\n\
        pub const EVENTS: &[EventSpec] = &[\n\
          EventSpec {\n\
            event_type: \"shard_done\",\n\
            fields: &[field(\"shard\", U64), field(\"reason\", STR)],\n\
          },\n\
        ];\n";
    write(&root, "crates/obs/src/schema.rs", schema);
    write(
        &root,
        "crates/accel/src/sim.rs",
        "fn a() { emit(Event::new(\"shard_done\").u64(\"shard\", s).u64(\"reason\", r)); }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 1, "drifted emit site not caught:\n{out}");
    assert!(
        out.contains("crates/accel/src/sim.rs:1: schema_drift"),
        "{out}"
    );
    assert!(out.contains("requires `.str(\"reason\", ..)`"), "{out}");

    // An emit site matching the schema pins the zero-finding state.
    write(
        &root,
        "crates/accel/src/sim.rs",
        "fn a() { emit(Event::new(\"shard_done\").u64(\"shard\", s).str(\"reason\", r)); }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 0, "schema-conformant emit site flagged:\n{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn json_format_emits_machine_readable_report() {
    let root = temp_workspace("json");
    write(
        &root,
        "crates/core/src/an.rs",
        "pub fn low(v: u64) -> u32 { v as u32 }\n",
    );
    let (code, out) = run_lint(&root, &["check", "--format", "json"]);
    assert_eq!(code, 1, "{out}");
    // Stable top-level shape consumed by CI tooling.
    assert!(out.contains("\"tool\": \"repro-lint\""), "{out}");
    assert!(out.contains("\"schema_version\": 1"), "{out}");
    assert!(out.contains("\"passed\": false"), "{out}");
    assert!(out.contains("\"totals\": {\"lossy_cast\": 1}"), "{out}");
    assert!(
        out.contains(
            "{\"file\": \"crates/core/src/an.rs\", \"line\": 1, \"lint\": \"lossy_cast\","
        ),
        "{out}"
    );
    assert!(out.contains("\"kind\": \"regression\""), "{out}");

    // After recording the baseline the same run passes, still as JSON.
    let (code, _) = run_lint(&root, &["baseline"]);
    assert_eq!(code, 0);
    let (code, out) = run_lint(&root, &["check", "--format", "json"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"passed\": true"), "{out}");
    assert!(out.contains("\"drifts\": []"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clean_workspace_passes_and_list_enumerates() {
    let root = temp_workspace("clean");
    write(
        &root,
        "crates/core/src/an.rs",
        "pub fn residue(v: u64, a: u64) -> u64 { v % a }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 0, "{out}");

    // `list` prints raw violations without baseline filtering.
    write(
        &root,
        "crates/core/src/an.rs",
        "pub fn low(v: u64) -> u32 { v as u32 }\n",
    );
    let (code, out) = run_lint(&root, &["list"]);
    assert_eq!(code, 1);
    assert!(out.contains("crates/core/src/an.rs:1: lossy_cast"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn allow_comment_with_reason_passes_without_baseline() {
    let root = temp_workspace("allow");
    write(
        &root,
        "crates/wideint/src/u256.rs",
        "pub fn low(v: u128) -> u64 {\n\
         // lint: allow(lossy_cast, intentional low-limb extraction)\n\
         v as u64\n\
         }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 0, "{out}");

    // Dropping the reason turns the allow itself into a violation.
    write(
        &root,
        "crates/wideint/src/u256.rs",
        "pub fn low(v: u128) -> u64 {\n\
         // lint: allow(lossy_cast)\n\
         v as u64\n\
         }\n",
    );
    let (code, out) = run_lint(&root, &["check"]);
    assert_eq!(code, 1);
    assert!(out.contains("bare_allow"), "{out}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn usage_errors_exit_2() {
    let root = temp_workspace("usage");
    let (code, out) = run_lint(&root, &["frobnicate"]);
    assert_eq!(code, 2, "{out}");
    let (code, out) = run_lint(&root, &["check", "--format", "yaml"]);
    assert_eq!(code, 2, "{out}");
    let output = Command::new(env!("CARGO_BIN_EXE_repro-lint"))
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&root);
}
