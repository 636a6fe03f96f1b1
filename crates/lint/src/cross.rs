//! The cross-file lints: panic reachability, chaos-seam coverage, and
//! obs schema drift.
//!
//! These run once over the whole workspace, after every file has been
//! lexed ([`crate::lexer`]) and parsed ([`crate::parser`]):
//!
//! - **`panic_reachability`** walks the workspace call graph
//!   ([`crate::graph`]) from the crash-safe entry points
//!   ([`ENTRY_POINTS`]) and flags every panicking construct in a
//!   reachable function that has no `catch_unwind` on the path.
//!   Unlike the old per-file `panic_in_harness` scope list, a helper
//!   three crates away from `Campaign::run` is guarded exactly when
//!   the harness can actually reach it.
//! - **`chaos_seam_coverage`** checks that the chaos-tested
//!   persistence files route raw `std::fs` calls through a
//!   fault-injection seam: file I/O must use `chaos::fs` (whose
//!   `write_atomic`/`read` accept an injected fault). No seam covers
//!   sockets, so a raw `std::net` call there is always flagged.
//! - **`schema_drift`** extracts the event schema from
//!   `crates/obs/src/schema.rs` and cross-checks every
//!   `Event::new("type")` builder chain in the workspace against it:
//!   field names, types, and emission order must match the spec
//!   exactly, and the type tag must exist. An emit/schema mismatch
//!   fails `repro-lint check` at lint time instead of a round-trip
//!   test after the fact.
//!
//! Suppression works like the per-file lints: the violation's owning
//! file honours `// lint: allow(<lint>, <reason>)` on the flagged line
//! or the line above (applied by the caller, [`crate::collect_violations`],
//! which owns the per-file lexed streams).

use crate::graph::Graph;
use crate::lexer::{Lexed, Token, TokenKind};
use crate::lints::{LintId, Violation};
use crate::parser::{PanicKind, ParsedFile};

/// The crash-safe entry points: the public surfaces whose contract is
/// "typed errors out, never a panic". Everything transitively callable
/// from here without a `catch_unwind` cut is in `panic_reachability`
/// scope.
pub const ENTRY_POINTS: [&str; 3] = [
    "accel::sim::evaluate",
    "accel::campaign::Campaign::run",
    "accel::grid::Grid::run",
];

/// The schema definition file `schema_drift` reads. When absent (a
/// fixture workspace without the obs crate), the lint is a no-op.
pub const SCHEMA_FILE: &str = "crates/obs/src/schema.rs";

/// Options threaded from the CLI into the cross-file passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossOptions {
    /// Also report `expr[index]` sites (`--panic-indexing`). Advisory:
    /// the heuristic cannot see `get()`-style guards or length
    /// invariants, so indexing is opt-in rather than baselined.
    pub panic_indexing: bool,
}

/// Runs the three cross-file lints. `files` and `parsed` are parallel
/// (same index = same file); violations come back unsorted and
/// unsuppressed — the caller applies allow comments and ordering.
pub fn check_workspace(
    files: &[(String, Lexed)],
    parsed: &[ParsedFile],
    opts: CrossOptions,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let graph = Graph::build(parsed);
    panic_reachability(parsed, &graph, opts.panic_indexing, &mut out);
    chaos_seam_coverage(parsed, &mut out);
    schema_drift(files, &mut out);
    out
}

/// L1: panicking constructs reachable from a crash-safe entry point.
fn panic_reachability(
    parsed: &[ParsedFile],
    graph: &Graph,
    indexing: bool,
    out: &mut Vec<Violation>,
) {
    let entries: Vec<&str> = ENTRY_POINTS.to_vec();
    let origins = graph.reachable(parsed, &entries);
    for (id, origin) in origins.iter().enumerate() {
        let Some(origin) = origin else { continue };
        let gf = &graph.fns[id];
        for p in &gf.item.panics {
            if p.protected || (p.kind == PanicKind::Index && !indexing) {
                continue;
            }
            out.push(Violation {
                lint: LintId::PanicReachability,
                file: gf.file.clone(),
                line: p.line,
                message: format!(
                    "{} in `{}`, reachable from crash-safe entry `{}` (via `{}`) with no \
                     catch_unwind on the path; return a typed error instead",
                    p.kind.label(),
                    gf.item.qname,
                    origin.entry,
                    origin.via
                ),
            });
        }
    }
}

/// Files guarded by `chaos_seam_coverage`: everywhere the chaos soaks
/// inject I/O faults — the verified durable I/O both campaigns and
/// the grid route through, the campaign's checkpoint/final-write
/// paths, the grid driver's manifest/marker/merge I/O, and the obs
/// event log (whose torn-write seam the durability tests drive).
fn in_seam_scope(path: &str) -> bool {
    path == "crates/accel/src/envelope.rs"
        || path == "crates/accel/src/campaign.rs"
        || path.starts_with("crates/accel/src/grid/")
        || path == "crates/obs/src/events.rs"
}

/// `std::fs` functions that touch durable state. Metadata probes
/// (`metadata`, `exists`) are deliberately absent: they cannot tear an
/// artifact, and faulting them teaches the soaks nothing.
const DURABLE_FS_FNS: [&str; 9] = [
    "write",
    "read",
    "read_to_string",
    "rename",
    "remove_file",
    "remove_dir_all",
    "copy",
    "create_dir",
    "create_dir_all",
];

/// Classifies a (alias-expanded) call path as a raw `std` I/O
/// construct. Returns the display name and whether it is a socket
/// operation (which only changes the suggested fix).
fn raw_io_construct(segments: &[String]) -> Option<(String, bool)> {
    let segs: Vec<&str> = segments.iter().map(String::as_str).collect();
    let segs: &[&str] = if segs.first() == Some(&"std") {
        &segs[1..]
    } else {
        &segs
    };
    match segs {
        [fs, m] if *fs == "fs" && DURABLE_FS_FNS.contains(m) => Some((format!("fs::{m}"), false)),
        ["File", m] | ["fs", "File", m] if matches!(*m, "create" | "create_new" | "open") => {
            Some((format!("File::{m}"), false))
        }
        ["OpenOptions", "new"] | ["fs", "OpenOptions", "new"] => {
            Some(("OpenOptions::new".to_string(), false))
        }
        ["TcpListener", "bind"] | ["net", "TcpListener", "bind"] => {
            Some(("TcpListener::bind".to_string(), true))
        }
        ["TcpStream", "connect"] | ["net", "TcpStream", "connect"] => {
            Some(("TcpStream::connect".to_string(), true))
        }
        _ => None,
    }
}

/// L5: raw `std::fs` / `std::net` call sites in the chaos-tested files.
fn chaos_seam_coverage(parsed: &[ParsedFile], out: &mut Vec<Violation>) {
    for pf in parsed {
        if !in_seam_scope(&pf.path) {
            continue;
        }
        for f in &pf.fns {
            for c in &f.calls {
                if c.is_method {
                    continue;
                }
                // Expand a leading use-alias so `fs::read` under
                // `use chaos::fs;` is seen as `chaos::fs::read` (and
                // under `use std::fs;` as the raw call it is).
                let mut segs = c.segments.clone();
                if let Some(u) = pf.uses.iter().find(|u| u.alias == segs[0]) {
                    let mut full = u.segments.clone();
                    full.extend(segs.iter().skip(1).cloned());
                    segs = full;
                }
                if segs.first().map(String::as_str) == Some("chaos") {
                    continue;
                }
                let Some((construct, is_socket)) = raw_io_construct(&segs) else {
                    continue;
                };
                let fix = if is_socket {
                    "no chaos seam covers sockets, so keep network I/O out of the \
                     chaos-tested files"
                } else {
                    "route it through chaos::fs (write_atomic / read) so the chaos soaks \
                     can inject faults here"
                };
                out.push(Violation {
                    lint: LintId::ChaosSeamCoverage,
                    file: pf.path.clone(),
                    line: c.line,
                    message: format!(
                        "`{construct}` in `{}` bypasses the chaos fault seam; {fix}",
                        f.qname
                    ),
                });
            }
        }
    }
}

/// One event type's spec, extracted from the schema file: the type tag
/// and its `(name, kind)` fields in canonical order. Kinds use the
/// builder-method spelling (`u64`/`f64`/`str`/`bool`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventShape {
    /// Value of the `"type"` tag.
    pub event_type: String,
    /// `(field name, builder method)` pairs in emission order.
    pub fields: Vec<(String, String)>,
}

/// Maps a `FieldKind` spelling from the schema file to the builder
/// method an emit site must use.
fn kind_to_method(kind_ident: &str) -> Option<&'static str> {
    match kind_ident {
        "U64" => Some("u64"),
        "F64" => Some("f64"),
        "STR" | "Str" => Some("str"),
        "BOOL" | "Bool" => Some("bool"),
        _ => None,
    }
}

/// Extracts every [`EventShape`] from the lexed schema file by walking
/// the `EventSpec { event_type: "..", fields: &[field("..", KIND),..] }`
/// literals. Token-level on purpose: the lint crate cannot depend on
/// the obs crate (it lints it), and the literal table in `schema.rs`
/// is the schema's single source of truth.
pub fn extract_schema(lexed: &Lexed) -> Vec<EventShape> {
    let t = &lexed.tokens;
    let text = |i: usize| t.get(i).map_or("", |tok: &Token| tok.text.as_str());
    let is_str = |i: usize| t.get(i).is_some_and(|tok| tok.kind == TokenKind::Str);
    let mut events: Vec<EventShape> = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].in_test {
            i += 1;
            continue;
        }
        match text(i) {
            "event_type" if text(i + 1) == ":" && is_str(i + 2) => {
                events.push(EventShape {
                    event_type: unquote(text(i + 2)),
                    fields: Vec::new(),
                });
                i += 3;
            }
            "field" if text(i + 1) == "(" && is_str(i + 2) && text(i + 3) == "," => {
                // `field("name", KIND)` — the kind is the last ident
                // before the closing paren (`U64` or `FieldKind::U64`).
                let name = unquote(text(i + 2));
                let mut j = i + 4;
                let mut kind = String::new();
                while j < t.len() && text(j) != ")" {
                    if t[j].kind == TokenKind::Ident {
                        kind = t[j].text.clone();
                    }
                    j += 1;
                }
                if let (Some(method), Some(ev)) = (kind_to_method(&kind), events.last_mut()) {
                    ev.fields.push((name, method.to_string()));
                }
                i = j;
            }
            _ => i += 1,
        }
    }
    events
}

/// Strips the delimiting quotes from a string-literal token's text.
fn unquote(text: &str) -> String {
    text.trim_start_matches('"')
        .trim_end_matches('"')
        .to_string()
}

/// The builder methods that append a typed field to an event.
const FIELD_METHODS: [&str; 4] = ["u64", "f64", "str", "bool"];

/// L6: `Event::new("type")` builder chains that disagree with the
/// schema file. Emit sites with a non-literal type tag or field key
/// are skipped (unverifiable at lint time); the round-trip tests in
/// the obs crate backstop those, and today every producer is literal.
fn schema_drift(files: &[(String, Lexed)], out: &mut Vec<Violation>) {
    let Some(schema) = files
        .iter()
        .find(|(path, _)| path == SCHEMA_FILE)
        .map(|(_, lexed)| extract_schema(lexed))
    else {
        return;
    };
    for (path, lexed) in files {
        if path == SCHEMA_FILE {
            continue;
        }
        scan_emit_sites(path, lexed, &schema, out);
    }
}

fn scan_emit_sites(path: &str, lexed: &Lexed, schema: &[EventShape], out: &mut Vec<Violation>) {
    let t = &lexed.tokens;
    let text = |i: usize| t.get(i).map_or("", |tok: &Token| tok.text.as_str());
    let is_str = |i: usize| t.get(i).is_some_and(|tok| tok.kind == TokenKind::Str);
    for i in 0..t.len() {
        if t[i].in_test || t[i].kind != TokenKind::Ident || t[i].text != "Event" {
            continue;
        }
        if !(text(i + 1) == "::" && text(i + 2) == "new" && text(i + 3) == "(") {
            continue;
        }
        if !is_str(i + 4) || text(i + 5) != ")" {
            continue; // dynamic type tag: unverifiable here.
        }
        let event_type = unquote(text(i + 4));
        let line = t[i].line;
        // Walk the `.method("key", value)` chain.
        let mut fields: Vec<(String, String)> = Vec::new();
        let mut verifiable = true;
        let mut j = i + 6;
        while text(j) == "."
            && t.get(j + 1).is_some_and(|tok| tok.kind == TokenKind::Ident)
            && text(j + 2) == "("
        {
            let method = text(j + 1).to_string();
            if !FIELD_METHODS.contains(&method.as_str()) {
                break;
            }
            if is_str(j + 3) {
                fields.push((unquote(text(j + 3)), method));
            } else {
                verifiable = false; // computed key: give up on this site.
                break;
            }
            j = skip_balanced(t, j + 2);
        }
        if !verifiable {
            continue;
        }
        let Some(spec) = schema.iter().find(|e| e.event_type == event_type) else {
            out.push(Violation {
                lint: LintId::SchemaDrift,
                file: path.to_string(),
                line,
                message: format!(
                    "event type `{event_type}` is not in obs::schema::EVENTS; add it to the \
                     schema (and DESIGN.md §8) or fix the tag"
                ),
            });
            continue;
        };
        if let Some(msg) = diff_fields(&event_type, &fields, &spec.fields) {
            out.push(Violation {
                lint: LintId::SchemaDrift,
                file: path.to_string(),
                line,
                message: msg,
            });
        }
    }
}

/// First discrepancy between an emit site's fields and the schema's,
/// as a human-readable message (`None` = exact match).
fn diff_fields(
    event_type: &str,
    emitted: &[(String, String)],
    spec: &[(String, String)],
) -> Option<String> {
    for (idx, (e, s)) in emitted.iter().zip(spec.iter()).enumerate() {
        if e != s {
            return Some(format!(
                "`{event_type}` field {} is `.{}(\"{}\", ..)` but obs::schema::EVENTS \
                 requires `.{}(\"{}\", ..)` at that position",
                idx + 1,
                e.1,
                e.0,
                s.1,
                s.0
            ));
        }
    }
    if emitted.len() < spec.len() {
        let missing: Vec<&str> = spec[emitted.len()..]
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        return Some(format!(
            "`{event_type}` emit is missing required field(s) {}; every producer emits \
             every field of its type",
            missing.join(", ")
        ));
    }
    if emitted.len() > spec.len() {
        let extra: Vec<&str> = emitted[spec.len()..]
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        return Some(format!(
            "`{event_type}` emit carries field(s) {} that obs::schema::EVENTS does not \
             declare; append them to the schema or drop them",
            extra.join(", ")
        ));
    }
    None
}

/// Index just past the bracket matching the opener at `open`.
fn skip_balanced(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn ws(sources: &[(&str, &str)]) -> (Vec<(String, Lexed)>, Vec<ParsedFile>) {
        let mut files = Vec::new();
        let mut parsed = Vec::new();
        for (path, src) in sources {
            let lexed = lex(src);
            parsed.push(parse_file(
                path,
                &crate::parser::crate_name_of(path),
                &lexed,
            ));
            files.push((path.to_string(), lexed));
        }
        (files, parsed)
    }

    fn check(sources: &[(&str, &str)], opts: CrossOptions) -> Vec<Violation> {
        let (files, parsed) = ws(sources);
        check_workspace(&files, &parsed, opts)
    }

    #[test]
    fn panic_reachability_follows_calls_and_respects_catch_unwind() {
        let hits = check(
            &[
                (
                    "crates/accel/src/sim/mod.rs",
                    "pub fn evaluate() {\n\
                       let r = catch_unwind(|| shard());\n\
                       plan();\n\
                     }\n\
                     fn plan() { ancode::an::encode(3); }\n\
                     fn shard() { a.unwrap(); }",
                ),
                (
                    "crates/core/src/an.rs",
                    "pub fn encode(x: u64) -> u64 { x.checked_add(1).expect(\"no\") }\n\
                     pub fn orphan() { b.unwrap(); }",
                ),
            ],
            CrossOptions::default(),
        );
        let hits: Vec<_> = hits
            .iter()
            .filter(|v| v.lint == LintId::PanicReachability)
            .collect();
        // encode's expect is reachable via evaluate → plan; shard is
        // only behind catch_unwind and orphan is never called.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].file, "crates/core/src/an.rs");
        assert_eq!(hits[0].line, 1);
        assert!(hits[0].message.contains("accel::sim::evaluate"));
        assert!(hits[0].message.contains("via `accel::sim::plan`"));
    }

    #[test]
    fn panic_reachability_indexing_is_opt_in() {
        let src = &[(
            "crates/accel/src/sim/mod.rs",
            "pub fn evaluate(xs: &[u8], i: usize) -> u8 { xs[i] }",
        )];
        assert!(check(src, CrossOptions::default()).is_empty());
        let hits = check(
            src,
            CrossOptions {
                panic_indexing: true,
            },
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("indexing"));
    }

    #[test]
    fn seam_coverage_flags_raw_io_but_not_chaos_fs() {
        let hits = check(
            &[(
                "crates/accel/src/campaign.rs",
                "use std::fs;\n\
                 fn save(p: &Path) {\n\
                   chaos::fs::write_atomic(p, b, None);\n\
                   let _ = fs::read(p);\n\
                   std::fs::rename(a, b);\n\
                   let f = File::create(p);\n\
                 }",
            )],
            CrossOptions::default(),
        );
        let got: Vec<(u32, bool)> = hits
            .iter()
            .filter(|v| v.lint == LintId::ChaosSeamCoverage)
            .map(|v| (v.line, v.message.contains("chaos::fs")))
            .collect();
        assert_eq!(got, [(4, true), (5, true), (6, true)], "{hits:?}");
    }

    #[test]
    fn seam_coverage_alias_of_chaos_fs_is_clean() {
        let hits = check(
            &[(
                "crates/accel/src/campaign.rs",
                "use chaos::fs;\nfn save(p: &Path) { fs::read(p, None); }",
            )],
            CrossOptions::default(),
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn seam_coverage_flags_sockets_even_in_fns_naming_a_seam() {
        let hits = check(
            &[(
                "crates/accel/src/grid/mod.rs",
                "fn aware(&self) {\n\
                   let f = dice.fault(Seam::ProcessSpawn);\n\
                   let l = TcpListener::bind(addr);\n\
                 }\n\
                 fn naive() { let s = TcpStream::connect(addr); }",
            )],
            CrossOptions::default(),
        );
        let got: Vec<u32> = hits.iter().map(|v| v.line).collect();
        assert_eq!(got, [3, 5], "{hits:?}");
        // So is a raw *file* call.
        let hits = check(
            &[(
                "crates/accel/src/grid/mod.rs",
                "fn aware(&self) {\n\
                   let f = dice.fault(Seam::FinalWrite);\n\
                   std::fs::write(p, b);\n\
                 }",
            )],
            CrossOptions::default(),
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn seam_coverage_ignores_files_outside_scope() {
        let hits = check(
            &[(
                "crates/accel/src/engine.rs",
                "fn f(p: &Path) { std::fs::write(p, b); }",
            )],
            CrossOptions::default(),
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    const SCHEMA_SRC: &str = "pub const VERSION: u64 = 3;\n\
        const U64: FieldKind = FieldKind::U64;\n\
        const STR: FieldKind = FieldKind::Str;\n\
        pub const EVENTS: &[EventSpec] = &[\n\
          EventSpec {\n\
            event_type: \"shard_done\",\n\
            fields: &[field(\"shard\", U64), field(\"reason\", STR)],\n\
          },\n\
          EventSpec {\n\
            event_type: \"flag\",\n\
            fields: &[field(\"on\", FieldKind::Bool)],\n\
          },\n\
        ];";

    #[test]
    fn schema_extraction_reads_the_literal_table() {
        let events = extract_schema(&lex(SCHEMA_SRC));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event_type, "shard_done");
        assert_eq!(
            events[0].fields,
            [
                ("shard".to_string(), "u64".to_string()),
                ("reason".to_string(), "str".to_string())
            ]
        );
        assert_eq!(events[1].fields, [("on".to_string(), "bool".to_string())]);
    }

    #[test]
    fn schema_drift_flags_mismatch_unknown_and_missing() {
        let hits = check(
            &[
                (SCHEMA_FILE, SCHEMA_SRC),
                (
                    "crates/accel/src/sim/scheduler.rs",
                    "fn a() { emit(Event::new(\"shard_done\").u64(\"shard\", s).str(\"reason\", r)); }\n\
                     fn b() { emit(Event::new(\"shard_done\").u64(\"shard\", s).u64(\"reason\", r)); }\n\
                     fn c() { emit(Event::new(\"shard_done\").u64(\"shard\", s)); }\n\
                     fn d() { emit(Event::new(\"mystery\").u64(\"x\", x)); }",
                ),
            ],
            CrossOptions::default(),
        );
        let lines: Vec<u32> = hits
            .iter()
            .filter(|v| v.lint == LintId::SchemaDrift)
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, [2, 3, 4], "{hits:?}");
        assert!(hits[0].message.contains("requires `.str(\"reason\", ..)`"));
        assert!(hits[1].message.contains("missing required field(s) reason"));
        assert!(hits[2].message.contains("not in obs::schema::EVENTS"));
    }

    #[test]
    fn schema_drift_extra_field_and_noop_without_schema_file() {
        let emit = (
            "crates/accel/src/campaign.rs",
            "fn a() { emit(Event::new(\"flag\").bool(\"on\", v).u64(\"extra\", 1)); }",
        );
        let hits = check(&[(SCHEMA_FILE, SCHEMA_SRC), emit], CrossOptions::default());
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("does not declare"));
        // Without the schema file present the lint stays silent.
        assert!(check(&[emit], CrossOptions::default()).is_empty());
    }
}
