//! A lightweight recursive-descent *item* parser over the lexer's
//! token stream.
//!
//! This is deliberately not a Rust grammar: it recognises exactly the
//! structure the cross-file lints need — `mod` / `impl` / `trait`
//! nesting for qualified names, `use` declarations (including renames
//! and groups) for call resolution, `fn` items with their body extents,
//! and, inside each body, call sites, panicking constructs, and
//! whether a site sits lexically inside a `catch_unwind(...)`
//! argument. Everything else (expressions, types, patterns) is skipped
//! by bracket matching. Like the rest of the crate it is
//! dependency-free; the input is [`crate::lexer::Lexed`].
//!
//! The parser is an over-approximation by design: an `Ident(` shape it
//! cannot classify becomes a call site with an unresolvable path,
//! which the graph layer simply drops. Missing an *edge* would hide a
//! panic from reachability, so ambiguity always errs toward recording.

use crate::lexer::{Lexed, Token, TokenKind};

/// A panicking construct the reachability lint tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`
    Unwrap,
    /// `.expect(..)`
    Expect,
    /// `panic!(..)`
    PanicMacro,
    /// `unreachable!(..)`
    UnreachableMacro,
    /// `expr[index]` — slice/array indexing, which panics out of
    /// bounds. Reported only under `--panic-indexing` (see
    /// DESIGN.md §7): the heuristic cannot see `get()`-style guards,
    /// so it is advisory.
    Index,
}

impl PanicKind {
    /// Human-readable construct name for messages.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => ".unwrap()",
            PanicKind::Expect => ".expect(..)",
            PanicKind::PanicMacro => "panic!",
            PanicKind::UnreachableMacro => "unreachable!",
            PanicKind::Index => "indexing (`[..]`)",
        }
    }
}

/// One panicking construct found in a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Which construct.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: u32,
    /// The site is lexically inside a `catch_unwind(...)` argument, so
    /// a panic here is converted to an `Err` by the harness.
    pub protected: bool,
}

/// One call site found in a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments as written: `chaos::fs::read(..)` →
    /// `["chaos", "fs", "read"]`; a method call `x.frob()` → `["frob"]`.
    pub segments: Vec<String>,
    /// The call is `receiver.method(..)` rather than `path(..)`.
    pub is_method: bool,
    /// 1-based source line.
    pub line: u32,
    /// Lexically inside a `catch_unwind(...)` argument: panics beyond
    /// this edge cannot unwind past the harness.
    pub protected: bool,
}

/// One parsed `fn` item (free function, inherent/trait method, or a
/// `fn` nested in another body). Test code is never recorded.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Fully qualified name: `crate::module::Type::name` (the type
    /// segment only for impl/trait methods).
    pub qname: String,
    /// Bare function name.
    pub name: String,
    /// The `impl`/`trait` type this is a method of, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Panicking constructs in the body, in source order.
    pub panics: Vec<PanicSite>,
}

/// One `use` declaration binding, after group/rename expansion:
/// `use a::{b, c as d};` yields `b → [a,b]` and `d → [a,c]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// The name this binding introduces into the file's scope.
    pub alias: String,
    /// Full path segments of the target.
    pub segments: Vec<String>,
}

/// Everything the graph layer needs from one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The owning crate's *library* name (`ancode` for `crates/core`),
    /// i.e. the first segment of every qname in this file.
    pub crate_name: String,
    /// Functions found, in source order (includes nested ones).
    pub fns: Vec<FnItem>,
    /// `use` bindings visible in this file (module-level scoping is
    /// flattened to the file — imports are file-scoped in practice).
    pub uses: Vec<UseDecl>,
}

/// Identifiers that may directly precede `[` without the bracket being
/// an index expression (array literals / array types after keywords).
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "in", "return", "break", "if", "else", "match", "let", "mut", "as", "move", "ref", "box",
    "yield", "await",
];

/// Library name of the crate owning `rel_path`. Directory names match
/// library names throughout the workspace except `crates/core` (which
/// builds the `ancode` library) and `crates/lint` (`repro_lint`);
/// `integration/src` files belong to the `integration` crate.
pub fn crate_name_of(rel_path: &str) -> String {
    let dir = rel_path
        .strip_prefix("crates/")
        .unwrap_or(rel_path)
        .split('/')
        .next()
        .unwrap_or("");
    match dir {
        "core" => "ancode".to_string(),
        "lint" => "repro_lint".to_string(),
        other => other.to_string(),
    }
}

/// Module path derived from a workspace-relative file path:
/// `crates/accel/src/grid/mod.rs` → `["grid"]`,
/// `crates/core/src/an.rs` → `["an"]`, `src/lib.rs`-style roots → `[]`.
pub fn module_path_of(rel_path: &str) -> Vec<String> {
    let Some(pos) = rel_path.find("/src/") else {
        return Vec::new();
    };
    let tail = &rel_path[pos + 5..];
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    let mut parts: Vec<String> = tail.split('/').map(str::to_string).collect();
    match parts.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            parts.pop();
        }
        _ => {}
    }
    parts
}

/// Parses one lexed file. `crate_name` seeds every qname.
pub fn parse_file(path: &str, crate_name: &str, lexed: &Lexed) -> ParsedFile {
    let mut out = ParsedFile {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        ..ParsedFile::default()
    };
    let mut scope = module_path_of(path);
    let mut p = Parser {
        tokens: &lexed.tokens,
        out: &mut out,
    };
    p.items(0, lexed.tokens.len(), &mut scope, None);
    out
}

struct Parser<'a> {
    tokens: &'a [Token],
    out: &'a mut ParsedFile,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text.as_str())
    }

    fn is_ident(&self, i: usize) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Index just past the bracket that matches the opener at `open`
    /// (`(`, `[` or `{`; all three kinds share one depth counter, which
    /// is sound because the lexer never emits unbalanced brackets from
    /// real code — strings and comments are already stripped).
    fn skip_balanced(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            match self.text(i) {
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
        end
    }

    /// Parses items in `[i, end)` under the module `scope` (and
    /// optional `impl`/`trait` type), until the stream runs out.
    fn items(&mut self, mut i: usize, end: usize, scope: &mut Vec<String>, self_ty: Option<&str>) {
        while i < end {
            match self.text(i) {
                "#" if self.text(i + 1) == "[" || self.text(i + 1) == "!" => {
                    // Attribute: skip `#[...]` / `#![...]`.
                    let open = if self.text(i + 1) == "[" {
                        i + 1
                    } else {
                        i + 2
                    };
                    i = self.skip_balanced(open, end);
                }
                "mod" if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    if self.text(i + 2) == "{" {
                        let body_end = self.skip_balanced(i + 2, end);
                        scope.push(name);
                        self.items(i + 3, body_end - 1, scope, self_ty);
                        scope.pop();
                        i = body_end;
                    } else {
                        i += 2; // `mod x;` — the file walker visits x.rs itself.
                    }
                }
                "impl" | "trait" => {
                    i = self.impl_or_trait(i, end, scope);
                }
                "fn" if self.is_ident(i + 1) => {
                    i = self.fn_item(i, end, scope, self_ty);
                }
                "use" => {
                    i = self.use_decl(i + 1, end);
                }
                "macro_rules" => {
                    // `macro_rules! name { ... }`: skip the whole body —
                    // macro arms are not expression code.
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" {
                        j += 1;
                    }
                    i = self.skip_balanced(j, end);
                }
                _ => i += 1,
            }
        }
    }

    /// Parses an `impl`/`trait` header starting at `kw`, recursing into
    /// the body with the subject type pushed. Returns the index past
    /// the item.
    fn impl_or_trait(&mut self, kw: usize, end: usize, scope: &mut Vec<String>) -> usize {
        // Collect candidate type names between the keyword and the
        // body; `impl Trait for Type` makes the *last* path-head before
        // `{` the subject, which also holds for plain `impl Type`.
        let mut i = kw + 1;
        let mut subject: Option<String> = None;
        let mut angle = 0i32;
        while i < end {
            match self.text(i) {
                "{" if angle == 0 => break,
                ";" if angle == 0 => return i + 1, // `trait X: Y;`-ish degenerate
                "<" => angle += 1,
                ">" if self.text(i.wrapping_sub(1)) != "-" => angle = (angle - 1).max(0),
                "where" if angle == 0 => {
                    // A where-clause can contain `Fn(..)` bounds; scan
                    // to the body brace with bracket skipping.
                    let mut j = i + 1;
                    while j < end && self.text(j) != "{" {
                        if matches!(self.text(j), "(" | "[") {
                            j = self.skip_balanced(j, end);
                        } else {
                            j += 1;
                        }
                    }
                    i = j;
                    continue;
                }
                _ => {
                    if angle == 0
                        && self.is_ident(i)
                        && self.text(i) != "for"
                        && self.text(i) != "dyn"
                    {
                        // Remember the head of each type path; the last
                        // one wins (`impl Display for AccelError`).
                        if self.text(i.wrapping_sub(1)) != "::" {
                            subject = Some(self.text(i).to_string());
                        } else if let Some(s) = &mut subject {
                            // `impl fmt::Display for x::Y` — keep the
                            // final segment as the subject.
                            *s = self.text(i).to_string();
                        }
                    }
                }
            }
            i += 1;
        }
        if i >= end || self.text(i) != "{" {
            return i;
        }
        let body_end = self.skip_balanced(i, end);
        let ty = subject.unwrap_or_default();
        self.items(i + 1, body_end - 1, scope, Some(&ty));
        body_end
    }

    /// Parses `fn name <generics>? (args) -> ret where..? { body }`
    /// starting at the `fn` keyword. Returns the index past the item.
    fn fn_item(
        &mut self,
        kw: usize,
        end: usize,
        scope: &mut Vec<String>,
        self_ty: Option<&str>,
    ) -> usize {
        let name_tok = &self.tokens[kw + 1];
        // Whole-item test exemption: a fn whose keyword is inside a
        // `#[cfg(test)]` region is invisible to the cross-file lints.
        let in_test = self.tokens[kw].in_test;
        // Find the body `{` (or `;` for bodiless trait methods),
        // tracking parens and generics. `->` never counts as an angle
        // close because `>` preceded by `-` is skipped.
        let mut i = kw + 2;
        let mut angle = 0i32;
        loop {
            if i >= end {
                return end;
            }
            match self.text(i) {
                "(" | "[" => {
                    i = self.skip_balanced(i, end);
                    continue;
                }
                "<" => angle += 1,
                ">" if self.text(i - 1) != "-" => angle = (angle - 1).max(0),
                "{" if angle == 0 => break,
                ";" if angle == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        let body_end = self.skip_balanced(i, end);
        if !in_test {
            let mut qname = String::from(&self.out.crate_name);
            for seg in scope.iter() {
                qname.push_str("::");
                qname.push_str(seg);
            }
            if let Some(ty) = self_ty {
                if !ty.is_empty() {
                    qname.push_str("::");
                    qname.push_str(ty);
                }
            }
            qname.push_str("::");
            qname.push_str(&name_tok.text);
            // `accel::evaluate` for a root-module fn renders without a
            // double separator because scope/self_ty are empty.
            let item = FnItem {
                qname,
                name: name_tok.text.clone(),
                self_ty: self_ty.filter(|t| !t.is_empty()).map(str::to_string),
                line: name_tok.line,
                calls: Vec::new(),
                panics: Vec::new(),
            };
            let idx = self.out.fns.len();
            self.out.fns.push(item);
            let mut acc = FnAcc::default();
            self.body(i + 1, body_end - 1, scope, &mut acc);
            let f = &mut self.out.fns[idx];
            f.calls = acc.calls;
            f.panics = acc.panics;
        }
        body_end
    }

    /// Walks one function body in `[i, end)`, reporting calls and panic
    /// constructs. Nested `fn` items are parsed as their own
    /// [`FnItem`]s.
    fn body(&mut self, mut i: usize, end: usize, scope: &mut Vec<String>, acc: &mut FnAcc) {
        // Extents (exclusive end index) of `catch_unwind(...)` argument
        // lists currently containing `i`.
        let mut protected: Vec<usize> = Vec::new();
        while i < end {
            while protected.last().is_some_and(|&e| i >= e) {
                protected.pop();
            }
            let under_guard = !protected.is_empty();
            let t = &self.tokens[i];
            match t.text.as_str() {
                "#" if self.text(i + 1) == "[" => {
                    i = self.skip_balanced(i + 1, end);
                    continue;
                }
                "fn" if self.is_ident(i + 1) => {
                    i = self.fn_item(i, end, scope, None);
                    continue;
                }
                "[" => {
                    // Index expression iff the previous token can end an
                    // expression. `#[attr]` is consumed above; array
                    // literals follow operators or keywords and are
                    // skipped by the keyword/punct test.
                    let prev = i.checked_sub(1).map(|p| &self.tokens[p]);
                    let indexes = prev.is_some_and(|p| match p.kind {
                        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                        TokenKind::Punct => p.text == ")" || p.text == "]",
                        _ => false,
                    });
                    if indexes {
                        acc.panics.push(PanicSite {
                            kind: PanicKind::Index,
                            line: t.line,
                            protected: under_guard,
                        });
                    }
                    i += 1;
                    continue;
                }
                _ => {}
            }
            if t.kind == TokenKind::Ident {
                let prev_is_dot = i > 0 && self.text(i - 1) == ".";
                let next = self.text(i + 1);
                match t.text.as_str() {
                    "unwrap" if prev_is_dot && next == "(" => {
                        acc.panics.push(PanicSite {
                            kind: PanicKind::Unwrap,
                            line: t.line,
                            protected: under_guard,
                        });
                        i += 2;
                        continue;
                    }
                    "expect" if prev_is_dot && next == "(" => {
                        acc.panics.push(PanicSite {
                            kind: PanicKind::Expect,
                            line: t.line,
                            protected: under_guard,
                        });
                        i += 2;
                        continue;
                    }
                    "panic" | "unreachable" if !prev_is_dot && next == "!" => {
                        acc.panics.push(PanicSite {
                            kind: if t.text == "panic" {
                                PanicKind::PanicMacro
                            } else {
                                PanicKind::UnreachableMacro
                            },
                            line: t.line,
                            protected: under_guard,
                        });
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
                // Path-or-method call: ident (:: ident)* (::<..>)? `(`.
                // Only when this ident *starts* the path (previous
                // token is not `::`).
                if i == 0 || self.text(i - 1) != "::" {
                    let mut segs = vec![t.text.clone()];
                    let mut j = i + 1;
                    while self.text(j) == "::" && self.is_ident(j + 1) {
                        segs.push(self.text(j + 1).to_string());
                        j += 2;
                    }
                    if self.text(j) == "::" && self.text(j + 1) == "<" {
                        // Turbofish: skip the generic args.
                        let mut depth = 0i32;
                        let mut k = j + 1;
                        while k < end {
                            match self.text(k) {
                                "<" => depth += 1,
                                ">" if self.text(k - 1) != "-" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        j = k + 1;
                    }
                    if self.text(j) == "(" {
                        let is_method = i > 0 && self.text(i - 1) == "." && segs.len() == 1;
                        acc.calls.push(CallSite {
                            segments: segs.clone(),
                            is_method,
                            line: t.line,
                            protected: under_guard,
                        });
                        if segs.last().map(String::as_str) == Some("catch_unwind") {
                            let close = self.skip_balanced(j, end);
                            protected.push(close);
                        }
                        // Continue *inside* the argument list so nested
                        // calls are seen.
                        i = j + 1;
                        continue;
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Parses a `use` declaration starting just past the keyword,
    /// expanding groups and renames into flat bindings. Returns the
    /// index past the terminating `;`.
    fn use_decl(&mut self, start: usize, end: usize) -> usize {
        let mut i = start;
        // `pub use` arrives here with `use` consumed; leading `::` or
        // `pub(crate)` qualifiers are tolerated by the segment loop.
        let mut prefix: Vec<String> = Vec::new();
        loop {
            if i >= end {
                return end;
            }
            match self.text(i) {
                ";" => return i + 1,
                "{" => {
                    let close = self.skip_balanced(i, end);
                    self.use_group(i + 1, close - 1, &prefix);
                    // After the group only `;` can follow.
                    return close + 1;
                }
                "*" => {
                    // Glob import: nothing to bind — resolution falls
                    // back to name matching.
                    i += 1;
                }
                "as" if self.is_ident(i + 1) => {
                    self.out.uses.push(UseDecl {
                        alias: self.text(i + 1).to_string(),
                        segments: prefix.clone(),
                    });
                    return self.advance_to_semi(i + 2, end);
                }
                "::" => i += 1,
                _ if self.is_ident(i) => {
                    prefix.push(self.text(i).to_string());
                    if self.text(i + 1) == ";" {
                        self.out.uses.push(UseDecl {
                            alias: prefix.last().cloned().unwrap_or_default(),
                            segments: prefix.clone(),
                        });
                        return i + 2;
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Expands one `{...}` use-group body (`[i, end)`) under `prefix`.
    fn use_group(&mut self, mut i: usize, end: usize, prefix: &[String]) {
        let mut path: Vec<String> = prefix.to_vec();
        let base_len = prefix.len();
        while i < end {
            match self.text(i) {
                "," => {
                    path.truncate(base_len);
                    i += 1;
                }
                "::" => i += 1,
                "{" => {
                    let close = self.skip_balanced(i, end.max(i + 1));
                    self.use_group(i + 1, close - 1, &path);
                    path.truncate(base_len);
                    i = close;
                }
                "as" if self.is_ident(i + 1) => {
                    self.out.uses.push(UseDecl {
                        alias: self.text(i + 1).to_string(),
                        segments: path.clone(),
                    });
                    path.truncate(base_len);
                    i += 2;
                }
                "*" => i += 1,
                _ if self.is_ident(i) => {
                    if self.text(i) == "self" {
                        // `use a::b::{self, c}` binds `b`.
                        if let Some(last) = path.last().cloned() {
                            self.out.uses.push(UseDecl {
                                alias: last,
                                segments: path.clone(),
                            });
                        }
                        i += 1;
                        continue;
                    }
                    path.push(self.text(i).to_string());
                    // A leaf iff followed by `,`, `}` or end.
                    let nxt = self.text(i + 1);
                    if nxt == "," || nxt.is_empty() || i + 1 >= end {
                        self.out.uses.push(UseDecl {
                            alias: path.last().cloned().unwrap_or_default(),
                            segments: path.clone(),
                        });
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        // Trailing leaf without a comma (`use a::{b::c}`).
        if path.len() > base_len {
            let already = self.out.uses.last().is_some_and(|u| u.segments == path);
            if !already {
                self.out.uses.push(UseDecl {
                    alias: path.last().cloned().unwrap_or_default(),
                    segments: path,
                });
            }
        }
    }

    fn advance_to_semi(&self, mut i: usize, end: usize) -> usize {
        while i < end && self.text(i) != ";" {
            i += 1;
        }
        (i + 1).min(end)
    }
}

/// Accumulates one function body's findings while the parser holds
/// the mutable borrow needed for nested `fn` items.
#[derive(Default)]
struct FnAcc {
    calls: Vec<CallSite>,
    panics: Vec<PanicSite>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file("crates/accel/src/sim/mod.rs", "accel", &lex(src))
    }

    #[test]
    fn crate_names_follow_library_names() {
        assert_eq!(crate_name_of("crates/core/src/an.rs"), "ancode");
        assert_eq!(crate_name_of("crates/accel/src/grid/mod.rs"), "accel");
        assert_eq!(crate_name_of("crates/lint/src/lib.rs"), "repro_lint");
        assert_eq!(crate_name_of("integration/src/lib.rs"), "integration");
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(
            module_path_of("crates/accel/src/lib.rs"),
            Vec::<String>::new()
        );
        assert_eq!(
            module_path_of("crates/cli/src/main.rs"),
            Vec::<String>::new()
        );
        assert_eq!(module_path_of("crates/accel/src/grid/mod.rs"), ["grid"]);
        assert_eq!(
            module_path_of("crates/accel/src/grid/worker.rs"),
            ["grid", "worker"]
        );
        assert_eq!(module_path_of("crates/core/src/an.rs"), ["an"]);
    }

    #[test]
    fn free_fn_and_nested_impls_get_qualified_names() {
        let f = parse(
            "pub fn evaluate() {}\n\
             mod inner {\n\
               pub struct Pool;\n\
               impl Pool {\n\
                 pub fn acquire(&self) {}\n\
               }\n\
               impl std::fmt::Display for Pool {\n\
                 fn fmt(&self) {}\n\
               }\n\
             }",
        );
        let names: Vec<&str> = f.fns.iter().map(|f| f.qname.as_str()).collect();
        assert_eq!(
            names,
            [
                "accel::sim::evaluate",
                "accel::sim::inner::Pool::acquire",
                "accel::sim::inner::Pool::fmt"
            ]
        );
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("Pool"));
    }

    #[test]
    fn generic_signatures_find_their_bodies() {
        let f = parse(
            "fn sel<F: FnMut(u64) -> Result<u8, E>>(x: F) -> Option<u8> where F: Send {\n\
               helper();\n\
             }",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].calls.len(), 1);
        assert_eq!(f.fns[0].calls[0].segments, ["helper"]);
    }

    #[test]
    fn use_renames_and_groups_expand() {
        let f = parse(
            "use chaos::schedule::ChaosSchedule as Sched;\n\
             use obs::{Event, events::emit};\n\
             use std::io::Write;\n",
        );
        assert!(f.uses.contains(&UseDecl {
            alias: "Sched".into(),
            segments: vec!["chaos".into(), "schedule".into(), "ChaosSchedule".into()]
        }));
        assert!(f.uses.contains(&UseDecl {
            alias: "Event".into(),
            segments: vec!["obs".into(), "Event".into()]
        }));
        assert!(f.uses.contains(&UseDecl {
            alias: "emit".into(),
            segments: vec!["obs".into(), "events".into(), "emit".into()]
        }));
        assert!(f.uses.contains(&UseDecl {
            alias: "Write".into(),
            segments: vec!["std".into(), "io".into(), "Write".into()]
        }));
    }

    #[test]
    fn cfg_test_items_are_invisible() {
        let f = parse(
            "fn real() { x.unwrap(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
               fn fake() { y.unwrap(); helper(); }\n\
             }",
        );
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "real");
        assert_eq!(f.fns[0].panics.len(), 1);
    }

    #[test]
    fn panic_constructs_and_catch_unwind_protection() {
        let f = parse(
            "fn run() {\n\
               let r = catch_unwind(AssertUnwindSafe(|| {\n\
                 shard().unwrap();\n\
                 panic!(\"chaos\");\n\
               }));\n\
               r.expect(\"outer\");\n\
               unreachable!();\n\
             }",
        );
        let p = &f.fns[0].panics;
        assert_eq!(p.len(), 4);
        assert!(p[0].protected && p[0].kind == PanicKind::Unwrap);
        assert!(p[1].protected && p[1].kind == PanicKind::PanicMacro);
        assert!(!p[2].protected && p[2].kind == PanicKind::Expect);
        assert!(!p[3].protected && p[3].kind == PanicKind::UnreachableMacro);
        // The call inside the guard is a protected edge; the
        // catch_unwind call itself is not.
        let shard = f.fns[0]
            .calls
            .iter()
            .find(|c| c.segments == ["shard"])
            .unwrap();
        assert!(shard.protected);
    }

    #[test]
    fn call_paths_methods_and_turbofish() {
        let f = parse(
            "fn go(v: Vec<u8>) {\n\
               chaos::fs::write_atomic(p, b, None);\n\
               pool.acquire();\n\
               let x = v.iter().collect::<Vec<_>>();\n\
               Campaign::new(cfg);\n\
             }",
        );
        let calls = &f.fns[0].calls;
        assert!(calls
            .iter()
            .any(|c| c.segments == ["chaos", "fs", "write_atomic"] && !c.is_method));
        assert!(calls
            .iter()
            .any(|c| c.segments == ["acquire"] && c.is_method));
        assert!(calls
            .iter()
            .any(|c| c.segments == ["collect"] && c.is_method));
        assert!(calls
            .iter()
            .any(|c| c.segments == ["Campaign", "new"] && !c.is_method));
    }

    #[test]
    fn indexing_heuristic_flags_subscripts_not_literals_or_attrs() {
        let f = parse(
            "fn go(xs: &[u8], i: usize) -> u8 {\n\
               let a = [1u8, 2];\n\
               let _ = &a;\n\
               #[allow(dead_code)]\n\
               let y = xs[i];\n\
               let z = foo()[0];\n\
               y + z\n\
             }",
        );
        let idx: Vec<u32> = f.fns[0]
            .panics
            .iter()
            .filter(|p| p.kind == PanicKind::Index)
            .map(|p| p.line)
            .collect();
        assert_eq!(idx, [5, 6]);
    }
}
