//! The ratchet baseline.
//!
//! Pre-existing violations are recorded in `lint-baseline.toml` as
//! per-`(lint, file)` counts. `repro-lint check` fails when a count
//! *grows* (a new violation) and also when it *shrinks* (the baseline
//! is stale and must be tightened with `repro-lint baseline`), so the
//! checked-in file always reflects reality and the violation count can
//! only ratchet down.
//!
//! Counts, not line numbers, key the baseline: unrelated edits shift
//! lines constantly, but the number of violations in a file only
//! changes when someone adds or removes one.
//!
//! The file is a TOML subset read and written by this module (the
//! checker is dependency-free): `[lint_name]` sections holding
//! `"path" = count` entries, sorted, with `#` comment lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::lints::Violation;

/// Per-lint, per-file violation counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `lint name -> (file -> count)`, kept sorted for stable output.
    pub counts: BTreeMap<String, BTreeMap<String, u64>>,
}

/// A baseline parse failure (line number and description).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "baseline line {}: {}", self.line, self.message)
    }
}

impl Baseline {
    /// Builds a baseline from a violation list.
    pub fn from_violations(violations: &[Violation]) -> Baseline {
        let mut counts: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for v in violations {
            *counts
                .entry(v.lint.name().to_string())
                .or_default()
                .entry(v.file.clone())
                .or_default() += 1;
        }
        Baseline { counts }
    }

    /// Parses the TOML-subset baseline format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the first malformed line.
    pub fn parse(text: &str) -> Result<Baseline, ParseError> {
        let mut counts: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| ParseError {
                line: idx + 1,
                message,
            };
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                counts.entry(name.trim().to_string()).or_default();
                continue;
            }
            let Some(section) = &section else {
                return Err(err(format!("entry before any [section]: {line}")));
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(format!("expected `\"file\" = count`: {line}")));
            };
            let key = key.trim();
            let key = key
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| err(format!("file key must be double-quoted: {key}")))?;
            let count: u64 = value
                .trim()
                .parse()
                .map_err(|_| err(format!("count must be a non-negative integer: {value}")))?;
            counts
                .entry(section.clone())
                .or_default()
                .insert(key.to_string(), count);
        }
        Ok(Baseline { counts })
    }

    /// Renders the baseline back to its canonical file form.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# repro-lint baseline: pre-existing violation counts, keyed per lint and file.\n\
             # New violations (count above baseline) fail `repro-lint check`; so does a\n\
             # stale entry (count below baseline). Regenerate with:\n\
             #     cargo run -p repro-lint -- baseline\n",
        );
        for (lint, files) in &self.counts {
            if files.is_empty() {
                continue;
            }
            let _ = write!(out, "\n[{lint}]\n");
            for (file, count) in files {
                let _ = writeln!(out, "\"{file}\" = {count}");
            }
        }
        out
    }

    /// The recorded count for one `(lint, file)` pair.
    pub fn count(&self, lint: &str, file: &str) -> u64 {
        self.counts
            .get(lint)
            .and_then(|files| files.get(file))
            .copied()
            .unwrap_or(0)
    }
}

/// One baseline comparison finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// More violations than the baseline records: new violations. The
    /// `Vec` holds every current violation of this `(lint, file)` pair
    /// (line numbers shift, so the specific new one cannot be named).
    Regression {
        /// Lint name.
        lint: String,
        /// Workspace-relative file.
        file: String,
        /// Baseline count.
        baseline: u64,
        /// Current violations for this pair.
        current: Vec<Violation>,
    },
    /// Fewer violations than recorded: the baseline is stale.
    Stale {
        /// Lint name.
        lint: String,
        /// Workspace-relative file.
        file: String,
        /// Baseline count.
        baseline: u64,
        /// Current count.
        current: u64,
    },
}

/// Compares current violations against the baseline.
///
/// Returns every regression and staleness finding; an empty result
/// means the workspace matches the baseline exactly.
pub fn compare(baseline: &Baseline, violations: &[Violation]) -> Vec<Drift> {
    let current = Baseline::from_violations(violations);
    let mut drifts = Vec::new();

    // All (lint, file) pairs present on either side, in sorted order.
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for (lint, files) in current.counts.iter().chain(baseline.counts.iter()) {
        for file in files.keys() {
            let pair = (lint.as_str(), file.as_str());
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
    }
    pairs.sort_unstable();

    for (lint, file) in pairs {
        let want = baseline.count(lint, file);
        let have = current.count(lint, file);
        if have > want {
            drifts.push(Drift::Regression {
                lint: lint.to_string(),
                file: file.to_string(),
                baseline: want,
                current: violations
                    .iter()
                    .filter(|v| v.lint.name() == lint && v.file == file)
                    .cloned()
                    .collect(),
            });
        } else if have < want {
            drifts.push(Drift::Stale {
                lint: lint.to_string(),
                file: file.to_string(),
                baseline: want,
                current: have,
            });
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::LintId;

    fn violation(lint: LintId, file: &str, line: u32) -> Violation {
        Violation {
            lint,
            file: file.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let violations = vec![
            violation(LintId::LossyCast, "crates/core/src/an.rs", 3),
            violation(LintId::LossyCast, "crates/core/src/an.rs", 9),
            violation(LintId::FloatEq, "crates/xbar/src/stats.rs", 4),
        ];
        let baseline = Baseline::from_violations(&violations);
        let text = baseline.render();
        let back = Baseline::parse(&text).expect("parse");
        assert_eq!(back, baseline);
        assert_eq!(back.count("lossy_cast", "crates/core/src/an.rs"), 2);
        assert_eq!(back.count("float_eq", "crates/xbar/src/stats.rs"), 1);
        assert_eq!(back.count("float_eq", "unknown.rs"), 0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Baseline::parse("\"orphan\" = 3").is_err());
        assert!(Baseline::parse("[ok]\nunquoted = 3").is_err());
        assert!(Baseline::parse("[ok]\n\"f\" = banana").is_err());
        assert!(Baseline::parse("# comment only\n")
            .unwrap()
            .counts
            .is_empty());
    }

    #[test]
    fn compare_detects_regressions_and_staleness() {
        let recorded = vec![
            violation(LintId::LossyCast, "a.rs", 1),
            violation(LintId::LossyCast, "a.rs", 2),
        ];
        let baseline = Baseline::from_violations(&recorded);

        // Same counts: clean.
        assert!(compare(&baseline, &recorded).is_empty());

        // One more violation: regression carrying all current entries.
        let mut grown = recorded.clone();
        grown.push(violation(LintId::LossyCast, "a.rs", 7));
        match &compare(&baseline, &grown)[..] {
            [Drift::Regression {
                baseline: b,
                current,
                ..
            }] => {
                assert_eq!(*b, 2);
                assert_eq!(current.len(), 3);
            }
            other => panic!("expected one regression, got {other:?}"),
        }

        // One fewer: stale baseline.
        match &compare(&baseline, &recorded[..1])[..] {
            [Drift::Stale {
                baseline: b,
                current,
                ..
            }] => {
                assert_eq!(*b, 2);
                assert_eq!(*current, 1);
            }
            other => panic!("expected one staleness finding, got {other:?}"),
        }

        // A violation in a file the baseline has never seen.
        let fresh = vec![violation(LintId::FloatEq, "b.rs", 1)];
        let drifts = compare(&Baseline::default(), &fresh);
        assert!(matches!(
            &drifts[..],
            [Drift::Regression { baseline: 0, .. }]
        ));
    }
}
