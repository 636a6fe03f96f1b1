//! The per-file lint passes, plus the [`LintId`] / [`Violation`] types
//! shared with the cross-file analyzer ([`crate::cross`]).
//!
//! Each per-file lint walks the token stream of one file (see
//! [`crate::lexer`]) and reports violations with a stable
//! machine-readable identity: `file:line: lint_id: message`. Scoping
//! is path-based — every lint declares which workspace files it
//! guards — and test code (`#[cfg(test)]` regions, `tests/`
//! directories) is always exempt.
//!
//! Suppression: a violation is silenced by a comment on the same line
//! or the line directly above of the form
//! `// lint: allow(<lint_id>, <reason>)`. The reason is mandatory; an
//! allow without one is itself reported.

use crate::lexer::{Lexed, Token, TokenKind};

/// Identifier of one lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// L1: `.unwrap()` / `.expect(` / `panic!` / `unreachable!` /
    /// (opt-in) indexing transitively reachable from a crash-safe
    /// entry point with no `catch_unwind` on the path (see
    /// [`crate::cross`]). Supersedes the per-file `panic_in_harness`
    /// scope list of earlier releases.
    PanicReachability,
    /// L2: potentially lossy `as` numeric casts in the arithmetic
    /// substrate.
    LossyCast,
    /// L3: nondeterminism sources (`HashMap`/`HashSet`, wall clocks) in
    /// deterministic simulation paths.
    Nondeterminism,
    /// L4: float `==` / `!=` comparisons outside tests.
    FloatEq,
    /// L5: raw `std::fs` / `std::net` call sites in the chaos-tested
    /// persistence paths, which bypass the fault-injection seam
    /// (`chaos::fs`). Generalizes the old `raw_file_write` lint to
    /// reads, renames, and sockets.
    ChaosSeamCoverage,
    /// L6: an obs event emit site whose field names/types/order do not
    /// match `obs::schema` (see [`crate::cross`]).
    SchemaDrift,
    /// Meta: a `lint: allow(...)` comment without a reason.
    BareAllow,
}

impl LintId {
    /// Stable snake_case name used in reports, baselines, and allow
    /// comments.
    pub fn name(self) -> &'static str {
        match self {
            LintId::PanicReachability => "panic_reachability",
            LintId::LossyCast => "lossy_cast",
            LintId::Nondeterminism => "nondeterminism",
            LintId::FloatEq => "float_eq",
            LintId::ChaosSeamCoverage => "chaos_seam_coverage",
            LintId::SchemaDrift => "schema_drift",
            LintId::BareAllow => "bare_allow",
        }
    }

    /// All lints, in report order.
    pub fn all() -> [LintId; 7] {
        [
            LintId::PanicReachability,
            LintId::LossyCast,
            LintId::Nondeterminism,
            LintId::FloatEq,
            LintId::ChaosSeamCoverage,
            LintId::SchemaDrift,
            LintId::BareAllow,
        ]
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired.
    pub lint: LintId,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the offending construct.
    pub message: String,
}

impl Violation {
    /// The canonical `file:line: lint: message` report line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.lint.name(),
            self.message
        )
    }
}

/// Files guarded by L2 (`lossy_cast`): the fixed-width arithmetic
/// substrate, where a silent truncation corrupts coded operands.
fn in_cast_scope(path: &str) -> bool {
    path.starts_with("crates/wideint/src/") || path.starts_with("crates/core/src/")
}

/// Files guarded by L3 (`nondeterminism`): everything the draw-order
/// invariant and checkpoint byte-stability depend on, plus the
/// observability crate — metrics must never feed seeded computation, so
/// its one wall-clock site (`obs::clock`) has to carry a reasoned allow.
fn in_determinism_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/xbar/src/")
        || path.starts_with("crates/obs/src/")
        || path.starts_with("crates/chaos/src/")
        || path.starts_with("crates/accel/src/sim/")
        || path == "crates/accel/src/campaign.rs"
}

/// Cast targets L2 considers potentially lossy. Casts to `u128`/`i128`
/// are treated as widening and skipped (known gap: a negative signed
/// value `as u128` wraps; that pattern does not occur in the guarded
/// crates). `f32`/`f64` are included because neither represents every
/// 64-bit integer exactly.
const NARROWING_TARGETS: [&str; 12] = [
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
];

/// Runs every applicable per-file lint over one lexed file. The
/// cross-file lints (`panic_reachability`, `chaos_seam_coverage`,
/// `schema_drift`) live in [`crate::cross`] and run once over the
/// whole workspace.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;

    if in_cast_scope(path) {
        lint_casts(path, tokens, &mut out);
    }
    if in_determinism_scope(path) {
        lint_nondeterminism(path, tokens, &mut out);
    }
    lint_float_eq(path, tokens, &mut out);
    lint_bare_allows(path, lexed, &mut out);

    // Apply `lint: allow(...)` suppressions, then sort for stable
    // reports.
    out.retain(|v| v.lint == LintId::BareAllow || !is_allowed(lexed, v));
    out.sort_by(|a, b| (a.line, a.lint, &a.message).cmp(&(b.line, b.lint, &b.message)));
    out
}

/// L2: `expr as <narrower numeric>` casts.
fn lint_casts(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident || t.text != "as" {
            continue;
        }
        // `use x as y` / `extern crate x as y`: the rename target is an
        // arbitrary ident, but never one of the primitive type names.
        let Some(next) = tokens.get(i + 1) else {
            continue;
        };
        if next.kind != TokenKind::Ident {
            continue;
        }
        if NARROWING_TARGETS.contains(&next.text.as_str()) {
            out.push(Violation {
                lint: LintId::LossyCast,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "`as {}` may truncate or lose precision; use From/try_into or annotate \
                     `// lint: allow(lossy_cast, <why it cannot lose value>)`",
                    next.text
                ),
            });
        }
    }
}

/// L3: hash-order iteration and wall-clock reads in deterministic
/// simulation paths.
fn lint_nondeterminism(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for t in tokens {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        let reason = match t.text.as_str() {
            "HashMap" | "HashSet" => {
                "iteration order is seeded per-process; use BTreeMap/BTreeSet or an indexed Vec"
            }
            "Instant" | "SystemTime" => {
                "wall-clock reads make simulation output time-dependent; thread time through \
                 the caller if needed"
            }
            _ => continue,
        };
        out.push(Violation {
            lint: LintId::Nondeterminism,
            file: path.to_string(),
            line: t.line,
            message: format!("{} in a deterministic simulation path: {reason}", t.text),
        });
    }
}

/// L4: `==` / `!=` with a float-literal operand.
///
/// Token-level type inference is impossible, so this flags the
/// detectable case — a comparison where either adjacent token is a
/// float literal (`x == 0.0`). Float comparisons against variables
/// escape it; the golden tests backstop those.
fn lint_float_eq(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let float_beside = [i.checked_sub(1).map(|p| &tokens[p]), tokens.get(i + 1)]
            .into_iter()
            .flatten()
            .any(|n| matches!(n.kind, TokenKind::Num { is_float: true }));
        if float_beside {
            out.push(Violation {
                lint: LintId::FloatEq,
                file: path.to_string(),
                line: t.line,
                message: format!(
                    "float `{}` comparison; prefer total_cmp, abs-epsilon, or an integer \
                     representation",
                    t.text
                ),
            });
        }
    }
}

/// Meta-lint: `lint: allow(...)` comments must carry a reason.
fn lint_bare_allows(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    for comment in &lexed.comments {
        let Some(body) = allow_body(&comment.text) else {
            continue;
        };
        let mut parts = body.splitn(2, ',');
        let _lint_name = parts.next().unwrap_or("").trim();
        let reason = parts.next().unwrap_or("").trim();
        if reason.is_empty() {
            out.push(Violation {
                lint: LintId::BareAllow,
                file: path.to_string(),
                line: comment.line,
                message: "lint: allow(...) without a reason; write \
                          `// lint: allow(<lint>, <why this is safe>)`"
                    .to_string(),
            });
        }
    }
}

/// Extracts the `...` of a `lint: allow(...)` directive comment.
///
/// Only a plain `//` comment whose content *starts with* the directive
/// counts — doc comments (`///`, `//!`) and prose that merely mentions
/// the syntax are never suppressions.
fn allow_body(comment: &str) -> Option<&str> {
    let body = comment.strip_prefix("//")?;
    if body.starts_with('/') || body.starts_with('!') {
        return None;
    }
    let rest = body.trim_start().strip_prefix("lint: allow(")?;
    let close = rest.rfind(')')?;
    Some(&rest[..close])
}

/// Whether `v` is suppressed by an allow comment naming its lint on the
/// same line or the line directly above. Exposed to the crate so the
/// cross-file lints honour the same suppression syntax.
pub(crate) fn is_allowed(lexed: &Lexed, v: &Violation) -> bool {
    lexed.comments.iter().any(|c| {
        (c.line == v.line || c.line + 1 == v.line)
            && allow_body(&c.text).is_some_and(|body| {
                let mut parts = body.splitn(2, ',');
                let name = parts.next().unwrap_or("").trim();
                let reason = parts.next().unwrap_or("").trim();
                name == v.lint.name() && !reason.is_empty()
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, &lex(src))
    }

    #[test]
    fn doc_comments_and_strings_do_not_fire() {
        let src = "/// Checks `x == 0.0` exactly.\n\
                   fn f() { let s = \"x == 0.0\"; let _ = s; }";
        assert!(run("crates/accel/src/engine.rs", src).is_empty());
    }

    #[test]
    fn cast_lint_flags_narrowing_and_honours_allow() {
        let src = "fn f(x: u64) -> u8 {\n\
                   let a = x as u8;\n\
                   // lint: allow(lossy_cast, low byte extraction is intentional)\n\
                   let b = x as u8;\n\
                   let c = x as u128;\n\
                   let _ = (a, b, c);\n\
                   a\n\
                   }";
        let hits = run("crates/wideint/src/u256.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[0].lint, LintId::LossyCast);
    }

    #[test]
    fn cast_lint_ignores_use_renames_and_out_of_scope_files() {
        let src = "use std::io::Error as IoError;\nfn f(x: u64) -> u32 { x as u32 }";
        let hits = run("crates/core/src/an.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
        assert!(run("crates/accel/src/cost.rs", src).is_empty());
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src =
            "fn f(x: u64) -> u32 { x as u32 } // lint: allow(lossy_cast, x < 2^32 by construction)";
        assert!(run("crates/core/src/an.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_itself_reported() {
        let src = "fn f(x: u64) -> u32 { x as u32 } // lint: allow(lossy_cast)";
        let hits = run("crates/core/src/an.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().any(|v| v.lint == LintId::BareAllow));
        assert!(hits.iter().any(|v| v.lint == LintId::LossyCast));
    }

    #[test]
    fn nondeterminism_lint_flags_hash_collections_and_clocks() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let t = std::time::Instant::now(); let _ = t; }";
        let hits = run("crates/xbar/src/device.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|v| v.lint == LintId::Nondeterminism));
        // The bench crate may time things: out of scope.
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn nondeterminism_lint_covers_obs_and_honors_reasoned_allow() {
        // The observability crate is in L3 scope: a bare clock read is
        // flagged...
        let bare = "fn f() { let t = std::time::Instant::now(); let _ = t; }";
        let hits = run("crates/obs/src/clock.rs", bare);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, LintId::Nondeterminism);
        // ...while the audited epoch site carries a reasoned allow
        // (the shape `crates/obs/src/clock.rs` actually uses).
        let allowed = "// lint: allow(nondeterminism, obs timings never feed seeded \
                       computation)\nfn f() { let t = std::time::Instant::now(); let _ = t; }";
        assert!(run("crates/obs/src/clock.rs", allowed).is_empty());
    }

    #[test]
    fn float_eq_lint_is_workspace_wide_and_literal_driven() {
        let src = "fn f(x: f64, y: f64) -> bool { x == 0.0 || y != 1.5 || x == y }";
        let hits = run("crates/bench/src/lib.rs", src);
        // x == y escapes the literal heuristic by design.
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|v| v.lint == LintId::FloatEq));
        // Integer comparisons never fire.
        assert!(run("crates/bench/src/lib.rs", "fn g(n: u32) -> bool { n == 0 }").is_empty());
    }

    #[test]
    fn nondeterminism_scope_covers_chaos_crate() {
        let src = "use std::collections::HashMap;\nfn f() {}";
        let hits = run("crates/chaos/src/schedule.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, LintId::Nondeterminism);
    }

    #[test]
    fn render_is_machine_readable() {
        let src = "fn f(x: u64) -> u8 { x as u8 }";
        let hits = run("crates/core/src/an.rs", src);
        assert_eq!(
            hits[0].render(),
            "crates/core/src/an.rs:1: lossy_cast: `as u8` may truncate or lose precision; \
             use From/try_into or annotate \
             `// lint: allow(lossy_cast, <why it cannot lose value>)`"
        );
    }
}
