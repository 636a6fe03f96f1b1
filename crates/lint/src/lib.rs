//! `repro-lint` — the workspace invariant checker.
//!
//! A from-scratch, dependency-free static-analysis pass over the
//! first-party crates. The reproduction's reliability claims lean on
//! two properties that `rustc` cannot enforce — the RNG **draw-order
//! invariant** (bit-identical simulation output regardless of
//! threading, checkpointing, or refactors) and the **crash-safety
//! contract** (typed [`AccelError`]s instead of panics in the
//! Monte-Carlo harness) — so this crate enforces them mechanically.
//!
//! Since the call-graph upgrade the analyzer is syntax-aware: every
//! file is lexed ([`lexer`]), parsed into items ([`parser`]), and
//! joined into a workspace call graph ([`graph`]) that the cross-file
//! lints ([`cross`]) walk. The per-file token lints remain in
//! [`lints`].
//!
//! | lint | guards | scope |
//! |------|--------|-------|
//! | `panic_reachability` | panicking constructs with no `catch_unwind` between them and a crash-safe entry point | call graph from `sim::evaluate`, `Campaign::run`, `Grid::run` |
//! | `lossy_cast` | narrowing / precision-losing `as` casts | `wideint`, `core` |
//! | `nondeterminism` | `HashMap`/`HashSet`, `Instant`/`SystemTime` | `core`, `xbar`, `obs`, `chaos`, `accel::{sim,campaign}` |
//! | `float_eq` | `==`/`!=` against float literals | whole workspace |
//! | `chaos_seam_coverage` | raw `std::fs` / `std::net` calls that bypass the chaos fault seams | `accel::campaign`, `accel::grid`, `obs::events` |
//! | `schema_drift` | `Event::new(..)` builder chains vs `obs::schema::EVENTS` | every emit site |
//!
//! Test code (`#[cfg(test)]` regions, `tests/` directories) is exempt.
//! Pre-existing violations live in `lint-baseline.toml` (see
//! [`baseline`]); intentional sites are annotated in place with
//! `// lint: allow(<lint>, <reason>)`.
//!
//! Run it as `cargo run -p repro-lint -- check` (add `--format json`
//! for the machine-readable report, `--panic-indexing` to include the
//! advisory indexing heuristic).
//!
//! [`AccelError`]: https://docs.rs/ (the `accel` crate's error type)

pub mod baseline;
pub mod cross;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parser;

use std::path::{Path, PathBuf};

use baseline::{Baseline, Drift};
use lints::Violation;

/// Default baseline path, relative to the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";

/// A fatal tool error (I/O, malformed baseline, bad usage).
#[derive(Debug)]
pub struct ToolError(pub String);

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ToolError {}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
///
/// # Errors
///
/// Returns [`ToolError`] when no ancestor holds a workspace manifest.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, ToolError> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    Err(ToolError(format!(
        "no workspace Cargo.toml found above {}",
        start.display()
    )))
}

/// Collects the first-party `.rs` files to lint, as workspace-relative
/// forward-slash paths, sorted.
///
/// Scans `crates/*/src` and `integration/src`; `tests/`, `benches/`,
/// `target/`, and `third_party/` never participate (integration-test
/// and bench code is exempt by construction).
///
/// # Errors
///
/// Returns [`ToolError`] on directory read failures.
pub fn workspace_files(root: &Path) -> Result<Vec<String>, ToolError> {
    let mut files = Vec::new();
    for top in ["crates", "integration"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<String>) -> Result<(), ToolError> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| ToolError(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| ToolError(format!("reading {}: {e}", dir.display())))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "tests" | "benches" | "target" | "third_party"
            ) {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            files.push(rel);
        }
    }
    Ok(())
}

/// Lints every workspace file — the per-file passes plus the
/// cross-file analyzer — and returns all violations, sorted by file,
/// line, lint. Cross-file violations honour the same
/// `// lint: allow(..)` comments as per-file ones, resolved against
/// the file each violation lands in.
///
/// # Errors
///
/// Returns [`ToolError`] on unreadable files.
pub fn collect_violations(
    root: &Path,
    opts: cross::CrossOptions,
) -> Result<Vec<Violation>, ToolError> {
    let mut all = Vec::new();
    let mut files: Vec<(String, lexer::Lexed)> = Vec::new();
    let mut parsed: Vec<parser::ParsedFile> = Vec::new();
    for rel in workspace_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| ToolError(format!("reading {rel}: {e}")))?;
        let lexed = lexer::lex(&source);
        all.extend(lints::check_file(&rel, &lexed));
        parsed.push(parser::parse_file(
            &rel,
            &parser::crate_name_of(&rel),
            &lexed,
        ));
        files.push((rel, lexed));
    }
    for v in cross::check_workspace(&files, &parsed, opts) {
        let suppressed = files
            .iter()
            .find(|(path, _)| *path == v.file)
            .is_some_and(|(_, lexed)| lints::is_allowed(lexed, &v));
        if !suppressed {
            all.push(v);
        }
    }
    all.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(all)
}

/// Outcome of a `check` run, for callers that want structure instead of
/// an exit code.
#[derive(Debug)]
pub struct CheckReport {
    /// Every violation found (including baseline-suppressed ones).
    pub violations: Vec<Violation>,
    /// Baseline drift: regressions and stale entries.
    pub drifts: Vec<Drift>,
}

impl CheckReport {
    /// Whether the workspace passes (no drift in either direction).
    pub fn passed(&self) -> bool {
        self.drifts.is_empty()
    }
}

/// Runs the full check against the baseline at `baseline_path`
/// (workspace-relative or absolute). A missing baseline file is an
/// empty baseline, so a fresh workspace needs no setup.
///
/// # Errors
///
/// Returns [`ToolError`] on I/O failure or a malformed baseline file.
pub fn run_check(
    root: &Path,
    baseline_path: &Path,
    opts: cross::CrossOptions,
) -> Result<CheckReport, ToolError> {
    let violations = collect_violations(root, opts)?;
    let resolved = if baseline_path.is_absolute() {
        baseline_path.to_path_buf()
    } else {
        root.join(baseline_path)
    };
    let baseline = match std::fs::read_to_string(&resolved) {
        Ok(text) => {
            Baseline::parse(&text).map_err(|e| ToolError(format!("{}: {e}", resolved.display())))?
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(ToolError(format!("reading {}: {e}", resolved.display()))),
    };
    let drifts = baseline::compare(&baseline, &violations);
    Ok(CheckReport { violations, drifts })
}

/// Renders a human/CI-readable report of a check run. Lines about
/// individual violations keep the machine-readable
/// `file:line: lint: message` shape.
pub fn render_report(report: &CheckReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if report.passed() {
        let _ = writeln!(
            out,
            "repro-lint: clean ({} baseline-suppressed violation(s))",
            report.violations.len()
        );
        return out;
    }
    for drift in &report.drifts {
        match drift {
            Drift::Regression {
                lint,
                file,
                baseline,
                current,
            } => {
                let _ = writeln!(
                    out,
                    "REGRESSION [{lint}] {file}: {} violation(s), baseline allows {baseline}:",
                    current.len()
                );
                for v in current {
                    let _ = writeln!(out, "  {}", v.render());
                }
            }
            Drift::Stale {
                lint,
                file,
                baseline,
                current,
            } => {
                let _ = writeln!(
                    out,
                    "STALE BASELINE [{lint}] {file}: baseline records {baseline} but only \
                     {current} remain; run `cargo run -p repro-lint -- baseline` to tighten"
                );
            }
        }
    }
    out
}

/// Minimal JSON string escaping (the only non-trivial content is lint
/// messages, which are ASCII prose, but backslashes and quotes in
/// paths or messages must not corrupt the document).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a check run as a stable machine-readable JSON document
/// (`--format json`): tool identity, pass/fail, per-lint totals, every
/// violation (including baseline-suppressed ones), and the baseline
/// drift that decides the exit code.
pub fn render_json(report: &CheckReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"tool\": \"repro-lint\",\n  \"schema_version\": 1,\n  \"passed\": {},\n",
        report.passed()
    );
    let mut totals: Vec<(&str, usize)> = lints::LintId::all()
        .iter()
        .map(|l| {
            (
                l.name(),
                report.violations.iter().filter(|v| v.lint == *l).count(),
            )
        })
        .filter(|(_, n)| *n > 0)
        .collect();
    totals.sort();
    out.push_str("  \"totals\": {");
    for (i, (name, n)) in totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {n}");
    }
    out.push_str("},\n  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&v.file),
            v.line,
            v.lint.name(),
            json_escape(&v.message)
        );
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"drifts\": [");
    for (i, d) in report.drifts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let (kind, lint, file, baseline, current) = match d {
            Drift::Regression {
                lint,
                file,
                baseline,
                current,
            } => ("regression", lint, file, *baseline, current.len()),
            Drift::Stale {
                lint,
                file,
                baseline,
                current,
            } => ("stale", lint, file, *baseline, *current as usize),
        };
        let _ = write!(
            out,
            "{sep}\n    {{\"kind\": \"{kind}\", \"lint\": \"{}\", \"file\": \"{}\", \
             \"baseline\": {baseline}, \"current\": {current}}}",
            json_escape(lint),
            json_escape(file)
        );
    }
    if !report.drifts.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Entry point shared by `main` and the CLI tests. Returns the process
/// exit code: 0 clean, 1 violations/drift, 2 usage or I/O error.
pub fn run(args: &[String], cwd: &Path, out: &mut dyn std::io::Write) -> i32 {
    match run_inner(args, cwd, out) {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "repro-lint: error: {e}");
            2
        }
    }
}

fn run_inner(args: &[String], cwd: &Path, out: &mut dyn std::io::Write) -> Result<i32, ToolError> {
    let mut command: Option<&str> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut baseline_arg: Option<PathBuf> = None;
    let mut format_json = false;
    let mut opts = cross::CrossOptions::default();
    let usage = "usage: repro-lint <check|baseline|list> [--root DIR] [--baseline FILE] \
                 [--format human|json] [--panic-indexing]";
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                root_arg =
                    Some(PathBuf::from(iter.next().ok_or_else(|| {
                        ToolError("--root requires a path".to_string())
                    })?));
            }
            "--baseline" => {
                baseline_arg =
                    Some(PathBuf::from(iter.next().ok_or_else(|| {
                        ToolError("--baseline requires a path".to_string())
                    })?));
            }
            "--format" => {
                let fmt = iter
                    .next()
                    .ok_or_else(|| ToolError("--format requires `human` or `json`".to_string()))?;
                format_json = match fmt.as_str() {
                    "json" => true,
                    "human" => false,
                    other => {
                        return Err(ToolError(format!(
                            "unknown format `{other}` (expected `human` or `json`)"
                        )))
                    }
                };
            }
            "--panic-indexing" => opts.panic_indexing = true,
            "check" | "baseline" | "list" if command.is_none() => command = Some(arg),
            other => return Err(ToolError(format!("unknown argument `{other}` ({usage})"))),
        }
    }
    let root = match root_arg {
        Some(r) => r,
        None => find_workspace_root(cwd)?,
    };
    let baseline_path = baseline_arg.unwrap_or_else(|| PathBuf::from(BASELINE_FILE));
    let wr = |out: &mut dyn std::io::Write, s: &str| {
        let _ = out.write_all(s.as_bytes());
    };

    match command {
        Some("check") => {
            let report = run_check(&root, &baseline_path, opts)?;
            if format_json {
                wr(out, &render_json(&report));
            } else {
                wr(out, &render_report(&report));
            }
            Ok(if report.passed() { 0 } else { 1 })
        }
        Some("list") => {
            let violations = collect_violations(&root, opts)?;
            for v in &violations {
                wr(out, &format!("{}\n", v.render()));
            }
            wr(out, &format!("{} violation(s)\n", violations.len()));
            Ok(if violations.is_empty() { 0 } else { 1 })
        }
        Some("baseline") => {
            let violations = collect_violations(&root, opts)?;
            let baseline = Baseline::from_violations(&violations);
            let resolved = if baseline_path.is_absolute() {
                baseline_path
            } else {
                root.join(baseline_path)
            };
            std::fs::write(&resolved, baseline.render())
                .map_err(|e| ToolError(format!("writing {}: {e}", resolved.display())))?;
            wr(
                out,
                &format!(
                    "wrote {} ({} violation(s) recorded)\n",
                    resolved.display(),
                    violations.len()
                ),
            );
            Ok(0)
        }
        _ => Err(ToolError(format!("missing command ({usage})"))),
    }
}
