//! A hand-written token-level lexer for Rust source.
//!
//! The lints in this crate only need token streams, never syntax trees,
//! so the lexer is deliberately small: it distinguishes identifiers,
//! numeric literals (with a float flag), string/char literals, and
//! punctuation, while skipping comments — and it gets the *boundaries*
//! exactly right, because every lint depends on them:
//!
//! - line comments (`//`, `///`, `//!`) run to end of line;
//! - block comments nest (`/* /* */ */` is one comment), matching
//!   rustc;
//! - string literals honour escapes (`"\""` does not end early);
//! - raw strings match their hash count (`r#".."#`, `br##"…"##`);
//! - `'a'` is a char literal but `'a` in `<'a>` is a lifetime;
//! - `0..n` lexes as an integer and a range, not a malformed float.
//!
//! Comments are not discarded: they are collected per line so the lint
//! layer can honour `// lint: allow(...)` suppressions, and a second
//! pass ([`mark_test_regions`]) flags every token that falls under a
//! `#[cfg(test)]` item so lints can skip test code.

/// What a token is, at the granularity the lints need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `as`, `u64`, …).
    Ident,
    /// Numeric literal; `is_float` is true for `1.5`, `2e-3`, `1f32`.
    Num {
        /// Whether the literal is a float (decimal point, exponent, or
        /// an `f32`/`f64` suffix).
        is_float: bool,
    },
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation; multi-character operators the lints care about
    /// (`==`, `!=`, `::`) are fused into one token.
    Punct,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// The token text (for `Str` the raw source slice, quotes included).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Set by [`mark_test_regions`]: the token is inside a
    /// `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A comment and the line it starts on (used for `lint: allow(...)`
/// suppression lookups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Comment text including the `//` / `/*` sigils.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream, in source order.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source into tokens and comments, then marks
/// `#[cfg(test)]` regions.
pub fn lex(source: &str) -> Lexed {
    let mut lexed = lex_raw(source);
    mark_test_regions(&mut lexed.tokens);
    lexed
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes without the test-region pass (exposed for lexer tests).
fn lex_raw(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = chars.len();

    // Advances `idx` past a `"`-delimited string body (opening quote
    // already consumed), honouring backslash escapes and counting lines.
    let scan_string_body = |idx: &mut usize, line: &mut u32| {
        while *idx < n {
            match chars[*idx] {
                '\\' => *idx += 2,
                '"' => {
                    *idx += 1;
                    return;
                }
                c => {
                    if c == '\n' {
                        *line += 1;
                    }
                    *idx += 1;
                }
            }
        }
    };

    while i < n {
        let c = chars[i];
        let start_line = line;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line: start_line,
                    text: chars[start..i].iter().collect(),
                });
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Nested block comment, like rustc.
                let start = i;
                let mut depth = 1u32;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                comments.push(Comment {
                    line: start_line,
                    text: chars[start..i].iter().collect(),
                });
            }
            '"' => {
                let start = i;
                i += 1;
                scan_string_body(&mut i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: chars[start..i].iter().collect(),
                    line: start_line,
                    in_test: false,
                });
            }
            '\'' => {
                // Char literal vs lifetime: '\x' and 'x' (closing quote
                // right after one char) are chars; otherwise a lifetime.
                if i + 1 < n && chars[i + 1] == '\\' {
                    let start = i;
                    i += 2; // ' and backslash
                    if i < n {
                        i += 1; // escaped char
                    }
                    // Multi-char escapes (\x41, \u{...}) run to the quote.
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1; // closing quote
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        text: chars[start..i.min(n)].iter().collect(),
                        line: start_line,
                        in_test: false,
                    });
                } else if i + 2 < n && chars[i + 2] == '\'' {
                    let start = i;
                    i += 3;
                    tokens.push(Token {
                        kind: TokenKind::Char,
                        text: chars[start..i].iter().collect(),
                        line: start_line,
                        in_test: false,
                    });
                } else {
                    let start = i;
                    i += 1;
                    while i < n && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: chars[start..i].iter().collect(),
                        line: start_line,
                        in_test: false,
                    });
                }
            }
            c if is_ident_start(c) => {
                // Raw / byte string prefixes first: r"..", r#"..."#,
                // b"..", br#"..."#, and raw identifiers r#ident.
                if let Some((kind, end)) = scan_prefixed_literal(&chars, i, &mut line) {
                    tokens.push(Token {
                        kind,
                        text: chars[i..end].iter().collect(),
                        line: start_line,
                        in_test: false,
                    });
                    i = end;
                    continue;
                }
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line: start_line,
                    in_test: false,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let hex = c == '0' && i + 1 < n && matches!(chars[i + 1], 'x' | 'X' | 'o' | 'b');
                i += 1;
                let mut is_float = false;
                while i < n {
                    let d = chars[i];
                    if d.is_ascii_alphanumeric() || d == '_' {
                        // An exponent sign rides along only right after
                        // e/E in a decimal literal: 1e-3, 2.5E+7.
                        if !hex
                            && matches!(d, 'e' | 'E')
                            && i + 1 < n
                            && matches!(chars[i + 1], '+' | '-')
                            && i + 2 < n
                            && chars[i + 2].is_ascii_digit()
                        {
                            is_float = true;
                            i += 2;
                        }
                        i += 1;
                    } else if d == '.' {
                        // `0..n` is a range; `1.5` and `1.` are floats;
                        // `1.max(2)` is a method call on an integer.
                        if i + 1 < n && (chars[i + 1] == '.' || is_ident_start(chars[i + 1])) {
                            break;
                        }
                        is_float = true;
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                if !hex && (text.contains('e') || text.contains('E')) {
                    is_float = true;
                }
                if text.ends_with("f32") || text.ends_with("f64") {
                    is_float = true;
                }
                tokens.push(Token {
                    kind: TokenKind::Num { is_float },
                    text,
                    line: start_line,
                    in_test: false,
                });
            }
            _ => {
                // Punctuation; fuse the two-character operators the
                // lints inspect.
                let two: Option<&str> = if i + 1 < n {
                    match (c, chars[i + 1]) {
                        ('=', '=') => Some("=="),
                        ('!', '=') => Some("!="),
                        (':', ':') => Some("::"),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some(op) = two {
                    tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: op.to_string(),
                        line: start_line,
                        in_test: false,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: c.to_string(),
                        line: start_line,
                        in_test: false,
                    });
                    i += 1;
                }
            }
        }
    }
    Lexed { tokens, comments }
}

/// Recognizes `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `b'…'`, and raw
/// identifiers `r#ident` starting at `chars[i]`. Returns the token kind
/// and the exclusive end index, or `None` when the prefix is an
/// ordinary identifier.
fn scan_prefixed_literal(chars: &[char], i: usize, line: &mut u32) -> Option<(TokenKind, usize)> {
    let n = chars.len();
    let c = chars[i];
    if !matches!(c, 'r' | 'b') {
        return None;
    }
    let mut j = i + 1;
    if c == 'b' && j < n && chars[j] == 'r' {
        j += 1;
    }
    let raw = c == 'r' || (c == 'b' && j > i + 1);
    if raw {
        // Count hashes, then require an opening quote (else it's a raw
        // identifier like r#match, or just an ident starting with r).
        let mut hashes = 0usize;
        while j < n && chars[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j >= n || chars[j] != '"' {
            if hashes > 0 && j < n && is_ident_start(chars[j]) {
                // Raw identifier r#ident.
                while j < n && is_ident_continue(chars[j]) {
                    j += 1;
                }
                return Some((TokenKind::Ident, j));
            }
            return None;
        }
        j += 1; // opening quote
                // Scan to `"` followed by `hashes` hashes; no escapes in raw
                // strings.
        loop {
            if j >= n {
                return Some((TokenKind::Str, n));
            }
            if chars[j] == '\n' {
                *line += 1;
            }
            if chars[j] == '"'
                && chars[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&h| h == '#')
                    .count()
                    == hashes
            {
                j += 1 + hashes;
                return Some((TokenKind::Str, j));
            }
            j += 1;
        }
    }
    // Non-raw byte literals: b"..." and b'x'.
    if c == 'b' && j < n && chars[j] == '"' {
        j += 1;
        while j < n {
            match chars[j] {
                '\\' => j += 2,
                '"' => {
                    j += 1;
                    return Some((TokenKind::Str, j));
                }
                ch => {
                    if ch == '\n' {
                        *line += 1;
                    }
                    j += 1;
                }
            }
        }
        return Some((TokenKind::Str, n));
    }
    if c == 'b' && j < n && chars[j] == '\'' {
        j += 1;
        while j < n && chars[j] != '\'' {
            if chars[j] == '\\' {
                j += 1;
            }
            j += 1;
        }
        return Some((TokenKind::Char, (j + 1).min(n)));
    }
    None
}

/// Marks every token inside a `#[cfg(test)]` item (or one whose `cfg`
/// contains a bare `test` ident, e.g. `cfg(all(test, unix))`) with
/// `in_test = true`.
///
/// The region covers the attributed item: from the attribute to the
/// matching close brace of the item body, or to the terminating `;` for
/// brace-less items (`#[cfg(test)] use …;`).
pub fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].kind == TokenKind::Punct && tokens[i].text == "#") {
            i += 1;
            continue;
        }
        let Some(attr_end) = attribute_extent(tokens, i) else {
            i += 1;
            continue;
        };
        if !attribute_is_cfg_test(&tokens[i..attr_end]) {
            i = attr_end;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end;
        while j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "#" {
            match attribute_extent(tokens, j) {
                Some(end) => j = end,
                None => break,
            }
        }
        // Find the item extent: first `{` at delimiter depth 0 opens the
        // body (match to its close), a `;` at depth 0 ends a brace-less
        // item.
        let mut depth = 0i32;
        let mut end = tokens.len();
        let mut k = j;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        // Body found: scan to the matching brace.
                        let mut braces = 1i32;
                        let mut m = k + 1;
                        while m < tokens.len() && braces > 0 {
                            if tokens[m].kind == TokenKind::Punct {
                                match tokens[m].text.as_str() {
                                    "{" => braces += 1,
                                    "}" => braces -= 1,
                                    _ => {}
                                }
                            }
                            m += 1;
                        }
                        end = m;
                        break;
                    }
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    ";" if depth == 0 => {
                        end = k + 1;
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        for t in &mut tokens[i..end] {
            t.in_test = true;
        }
        i = end;
    }
}

/// Returns the exclusive end of the attribute starting at the `#` at
/// `start` (`#[...]` with balanced brackets), or `None` when `start`
/// does not open an attribute.
fn attribute_extent(tokens: &[Token], start: usize) -> Option<usize> {
    let mut j = start + 1;
    // `#![...]` inner attributes.
    if j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "!" {
        j += 1;
    }
    if !(j < tokens.len() && tokens[j].kind == TokenKind::Punct && tokens[j].text == "[") {
        return None;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].kind == TokenKind::Punct {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j + 1);
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Whether an attribute token slice (from `#` to `]` inclusive) is a
/// `cfg` whose arguments mention a bare `test` identifier.
fn attribute_is_cfg_test(attr: &[Token]) -> bool {
    let mut idents = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str());
    match idents.next() {
        Some("cfg") => {}
        _ => return false,
    }
    idents.any(|name| name == "test")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let lexed = lex("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            idents("a /* outer /* inner */ still comment */ b"),
            ["a", "b"]
        );
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn line_comments_stop_at_newline() {
        let lexed = lex("x // comment .unwrap()\ny");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            ["x", "y"]
        );
        assert_eq!(lexed.tokens[1].line, 2);
        assert_eq!(lexed.comments[0].line, 1);
    }

    #[test]
    fn strings_with_escapes_do_not_end_early() {
        assert_eq!(idents(r#"a "quote \" unwrap()" b"#), ["a", "b"]);
    }

    #[test]
    fn raw_strings_match_hash_counts() {
        assert_eq!(idents(r###"a r#"inner " quote"# b"###), ["a", "b"]);
        assert_eq!(idents("a r\"plain\" b"), ["a", "b"]);
        // A raw string containing what looks like a terminator for a
        // smaller hash count.
        let src = "a r##\"has \"# inside\"## b";
        assert_eq!(idents(src), ["a", "b"]);
    }

    #[test]
    fn byte_strings_and_raw_identifiers() {
        assert_eq!(idents(r#"a b"bytes" c"#), ["a", "c"]);
        assert_eq!(idents("a br#\"raw bytes\"# c"), ["a", "c"]);
        // r#match is an identifier, not a raw string.
        assert_eq!(idents("let r#match = 1;"), ["let", "r#match"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lexed = lex("let c = 'x'; fn f<'a>(v: &'a str) { let q = '\\''; }");
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.clone())
            .collect();
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, ["'x'", "'\\''"]);
        assert_eq!(lifetimes, ["'a", "'a"]);
    }

    #[test]
    fn numeric_literals_classify_floats() {
        let floats: Vec<bool> = lex("1 1.5 0..3 2e-3 1f32 0x1E 10u64 1.")
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Num { is_float } => Some(is_float),
                _ => None,
            })
            .collect();
        // 1, 1.5, 0, 3, 2e-3, 1f32, 0x1E, 10u64, 1.
        assert_eq!(
            floats,
            [false, true, false, false, true, true, false, false, true]
        );
    }

    #[test]
    fn fused_operators() {
        let ops: Vec<String> = lex("a == b != c :: d <= e")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(ops, ["==", "!=", "::", "<", "="]);
    }

    #[test]
    fn cfg_test_mod_region_has_exact_boundaries() {
        let src = "fn before() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn inner() { y.unwrap(); }\n\
                   }\n\
                   fn after() { z.unwrap(); }\n";
        let lexed = lex(src);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, [false, true, false]);
    }

    #[test]
    fn cfg_test_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() { a.unwrap(); }";
        let lexed = lex(src);
        let hash_map = lexed.tokens.iter().find(|t| t.text == "HashMap").unwrap();
        assert!(hash_map.in_test);
        let unwrap = lexed.tokens.iter().find(|t| t.text == "unwrap").unwrap();
        assert!(!unwrap.in_test);
    }

    #[test]
    fn cfg_all_test_counts_as_test_region() {
        let src = "#[cfg(all(test, unix))]\nfn helper() { a.unwrap(); }";
        let unwrap = lex(src)
            .tokens
            .into_iter()
            .find(|t| t.text == "unwrap")
            .unwrap();
        assert!(unwrap.in_test);
    }

    #[test]
    fn cfg_feature_is_not_a_test_region() {
        let src = "#[cfg(feature = \"test-utils\")]\nfn helper() { a.unwrap(); }";
        let unwrap = lex(src)
            .tokens
            .into_iter()
            .find(|t| t.text == "unwrap")
            .unwrap();
        assert!(!unwrap.in_test);
    }

    #[test]
    fn stacked_attributes_extend_the_region() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() { a.unwrap(); }\nfn live() { b.unwrap(); }";
        let lexed = lex(src);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, [true, false]);
    }

    #[test]
    fn signature_parens_do_not_open_the_body_early() {
        // The brace search must ignore `{` inside parens/brackets depth.
        let src = "#[cfg(test)]\nfn f(x: [u8; 3]) -> u8 { x[0] }\nfn live() { b.unwrap(); }";
        let lexed = lex(src);
        let unwrap = lexed.tokens.iter().find(|t| t.text == "unwrap").unwrap();
        assert!(!unwrap.in_test);
    }
}
