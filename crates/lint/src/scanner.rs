//! A hand-rolled Rust token scanner.
//!
//! The lint rules only need a faithful *token stream* — identifiers, string
//! literals, punctuation — with comments and string contents kept out of the
//! way so `// uses HashMap` or `"panic!"` never match a rule. The scanner
//! therefore handles the lexical shapes that matter for correctness:
//!
//! - line comments (`//`) and **nested** block comments (`/* /* */ */`),
//! - normal strings with escapes, byte strings, and raw strings
//!   (`r"…"`, `r#"…"#`, any number of hashes, plus `br…` forms),
//! - char literals vs. lifetimes (`'a'` vs. `'a`),
//! - raw identifiers (`r#type`),
//! - numeric literals (so `0..5` stays three tokens, not a float).
//!
//! It is deliberately *not* a full lexer: numeric suffixes, float exponents
//! and the like are folded into a single `Num` token because no rule cares.
//! Suppression directives (`// lint:allow(RULE) reason`) are collected from
//! line comments during the same pass.

/// What a token is. Char contents are dropped; a string literal keeps its
/// text, which the lexer's tests read to check where each literal ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `for`, `r#type` → `type`).
    Ident(String),
    /// A string literal's contents (normal, byte, or raw; escapes are left
    /// unprocessed).
    Str(String),
    /// A single punctuation character (`.`, `:`, `(`, `!`, …).
    Punct(char),
    /// A numeric literal, with its raw text (the D4 rule needs to tell a
    /// float seed like `0.0` from an integer one like `0u64`).
    Num(String),
    /// A char literal (`'x'`, `'\n'`).
    Char,
    /// A lifetime (`'a`).
    Lifetime,
}

/// One token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokKind,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// One `lint:allow(RULE[, RULE…]) reason` directive found in a line comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule names listed inside the parentheses, as written.
    pub rules: Vec<String>,
    /// 1-based line the directive sits on. The directive suppresses matching
    /// violations on this line and the immediately following line (so it can
    /// ride above the offending statement).
    pub line: u32,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Suppression directives in source order.
    pub allows: Vec<Allow>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into tokens and `lint:allow` directives.
pub fn scan(src: &str) -> ScanOutput {
    let chars: Vec<char> = src.chars().collect();
    let mut out = ScanOutput::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! peek {
        ($off:expr) => {
            chars.get(i + $off).copied()
        };
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if peek!(1) == Some('/') => {
                // Line comment: collect its text for lint:allow parsing.
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                if let Some(allow) = parse_allow(&text, line) {
                    out.allows.push(allow);
                }
                i = j;
            }
            '/' if peek!(1) == Some('*') => {
                // Nested block comment.
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && peek!(1) == Some('*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && peek!(1) == Some('/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                let tok_line = line;
                let (contents, next, nl) = cooked_string(&chars, i + 1);
                out.tokens.push(Token { kind: TokKind::Str(contents), line: tok_line });
                line += nl;
                i = next;
            }
            '\'' => {
                let tok_line = line;
                // Lifetime: 'ident not followed by a closing quote.
                if peek!(1).is_some_and(is_ident_start) && peek!(2) != Some('\'') {
                    let mut j = i + 1;
                    while j < chars.len() && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    out.tokens.push(Token { kind: TokKind::Lifetime, line: tok_line });
                    i = j;
                } else {
                    // Char literal: '\n', 'x', '🎈'.
                    let mut j = i + 1;
                    if peek!(1) == Some('\\') {
                        j += 2; // skip the escaped char
                                // \u{…} escapes: run to the closing brace.
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                    } else if j < chars.len() {
                        j += 1;
                    }
                    if j < chars.len() && chars[j] == '\'' {
                        j += 1;
                    }
                    out.tokens.push(Token { kind: TokKind::Char, line: tok_line });
                    i = j;
                }
            }
            _ if is_ident_start(c) => {
                let tok_line = line;
                // Raw identifier r#name (but not a raw string r#"…").
                if c == 'r' && peek!(1) == Some('#') && peek!(2).is_some_and(is_ident_start) {
                    let mut j = i + 2;
                    while j < chars.len() && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    let name: String = chars[i + 2..j].iter().collect();
                    out.tokens.push(Token { kind: TokKind::Ident(name), line: tok_line });
                    i = j;
                    continue;
                }
                // Raw / byte string prefixes: r", r#", br", br#", b".
                let raw_after = match c {
                    'r' => Some(i + 1),
                    'b' if peek!(1) == Some('r') => Some(i + 2),
                    _ => None,
                };
                if let Some(after) = raw_after {
                    let mut hashes = 0usize;
                    let mut j = after;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        let (contents, next, nl) = raw_string(&chars, j + 1, hashes);
                        out.tokens.push(Token { kind: TokKind::Str(contents), line: tok_line });
                        line += nl;
                        i = next;
                        continue;
                    }
                }
                if c == 'b' && peek!(1) == Some('"') {
                    let (contents, next, nl) = cooked_string(&chars, i + 2);
                    out.tokens.push(Token { kind: TokKind::Str(contents), line: tok_line });
                    line += nl;
                    i = next;
                    continue;
                }
                // Plain identifier / keyword.
                let mut j = i;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let name: String = chars[i..j].iter().collect();
                out.tokens.push(Token { kind: TokKind::Ident(name), line: tok_line });
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let tok_line = line;
                let mut j = i + 1;
                while j < chars.len() {
                    let d = chars[j];
                    if d.is_ascii_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.' && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit()) {
                        // Only consume the dot of a true float so `0..5`
                        // stays `0`, `.`, `.`, `5`.
                        j += 2;
                    } else {
                        break;
                    }
                }
                let text: String = chars[i..j].iter().collect();
                out.tokens.push(Token { kind: TokKind::Num(text), line: tok_line });
                i = j;
            }
            _ if c.is_whitespace() => {
                i += 1;
            }
            _ => {
                out.tokens.push(Token { kind: TokKind::Punct(c), line });
                i += 1;
            }
        }
    }
    out
}

/// Consumes a cooked (escape-processing) string body starting *after* the
/// opening quote. Returns `(contents, index past closing quote, newlines)`.
fn cooked_string(chars: &[char], start: usize) -> (String, usize, u32) {
    let mut j = start;
    let mut newlines = 0u32;
    let mut contents = String::new();
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                // Keep the escape verbatim; rules never need it decoded.
                contents.push(chars[j]);
                if let Some(&e) = chars.get(j + 1) {
                    contents.push(e);
                    if e == '\n' {
                        newlines += 1;
                    }
                }
                j += 2;
            }
            '"' => return (contents, j + 1, newlines),
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                contents.push(c);
                j += 1;
            }
        }
    }
    (contents, j, newlines)
}

/// Consumes a raw string body starting *after* the opening quote, closed by
/// `"` followed by `hashes` `#`s. Returns `(contents, next index, newlines)`.
fn raw_string(chars: &[char], start: usize, hashes: usize) -> (String, usize, u32) {
    let mut j = start;
    let mut newlines = 0u32;
    let mut contents = String::new();
    while j < chars.len() {
        if chars[j] == '"' {
            let mut ok = true;
            for k in 0..hashes {
                if chars.get(j + 1 + k) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return (contents, j + 1 + hashes, newlines);
            }
        }
        if chars[j] == '\n' {
            newlines += 1;
        }
        contents.push(chars[j]);
        j += 1;
    }
    (contents, j, newlines)
}

/// True when a numeric literal's raw text is a floating-point literal
/// (`0.0`, `2f64`, `1e3`), as opposed to an integer (`3`, `0xFF`, `1_000u64`).
///
/// The scanner never consumes a sign, so `1e-9` arrives as `1e` + `-` + `9`;
/// a bare trailing exponent head like `1e` therefore counts as float too.
pub fn is_float_literal(text: &str) -> bool {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
        return false;
    }
    if t.ends_with("f32") || t.ends_with("f64") || t.contains('.') {
        return true;
    }
    if let Some(pos) = t.find(['e', 'E']) {
        let (mant, exp) = t.split_at(pos);
        return !mant.is_empty()
            && mant.bytes().all(|b| b.is_ascii_digit())
            && exp[1..].bytes().all(|b| b.is_ascii_digit());
    }
    false
}

/// Parses a `lint:allow(R1, D2) reason` directive out of a line comment's
/// text, if present.
fn parse_allow(comment: &str, line: u32) -> Option<Allow> {
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> =
        rest[..close].split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    if rules.is_empty() {
        return None;
    }
    Some(Allow { rules, line })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn line_comments_hide_keywords() {
        let src = "let a = 1; // HashMap::new().unwrap()\nlet b = a;";
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"b".to_string()));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner HashMap */ still comment unwrap */ let live = 1;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "live"]);
    }

    #[test]
    fn unterminated_block_comment_consumes_rest() {
        let src = "/* /* never closed */ HashMap";
        assert!(idents(src).is_empty());
    }

    #[test]
    fn string_embedded_keywords_do_not_become_idents() {
        let src = r#"let msg = "call unwrap() on HashMap"; let x = msg;"#;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        let out = scan(src);
        let strings: Vec<&str> = out
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strings, vec!["call unwrap() on HashMap"]);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let src = r#"let s = "she said \"HashMap\""; let t = s;"#;
        assert_eq!(idents(src), vec!["let", "s", "let", "t", "s"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r##"let s = r#"embedded "quote" and unwrap()"#; let u = s;"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"u".to_string()));
        let out = scan(src);
        let strings: Vec<&str> = out
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strings, vec![r#"embedded "quote" and unwrap()"#]);
    }

    #[test]
    fn raw_string_two_hashes_ignores_single_hash_close() {
        let src = r###"let s = r##"has "# inside"##;"###;
        let out = scan(src);
        let strings: Vec<&str> = out
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strings, vec![r##"has "# inside"##]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = r##"let a = b"bytes unwrap"; let b2 = br#"raw bytes"#;"##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"b2".to_string()));
    }

    #[test]
    fn raw_identifiers_unwrap_to_plain_names() {
        let src = "let r#type = 1; fn r#match() {}";
        let ids = idents(src);
        assert!(ids.contains(&"type".to_string()));
        assert!(ids.contains(&"match".to_string()));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; let q = '\\''; }";
        let out = scan(src);
        let lifetimes = out.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let charlits = out.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(charlits, 3);
    }

    #[test]
    fn range_literal_is_not_a_float() {
        let src = "for i in 0..5 { }";
        let out = scan(src);
        let dots = out.tokens.iter().filter(|t| t.kind == TokKind::Punct('.')).count();
        assert_eq!(dots, 2, "0..5 keeps both range dots: {:?}", out.tokens);
    }

    #[test]
    fn line_numbers_advance_through_strings_and_comments() {
        let src = "a\n/* two\nlines */\nb\n\"str\nin\"\nc";
        let out = scan(src);
        let find = |name: &str| {
            out.tokens.iter().find(|t| t.kind == TokKind::Ident(name.to_string())).map(|t| t.line)
        };
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(4));
        assert_eq!(find("c"), Some(7));
    }

    #[test]
    fn allow_directives_are_collected_with_lines() {
        let src = "x\n// lint:allow(R1) documented panic\ny // lint:allow(D1, D2) both\n";
        let out = scan(src);
        assert_eq!(out.allows.len(), 2);
        assert_eq!(out.allows[0].rules, vec!["R1"]);
        assert_eq!(out.allows[0].line, 2);
        assert_eq!(out.allows[1].rules, vec!["D1", "D2"]);
        assert_eq!(out.allows[1].line, 3);
    }

    #[test]
    fn allow_inside_string_is_not_a_directive() {
        let src = r#"let s = "// lint:allow(R1)";"#;
        assert!(scan(src).allows.is_empty());
    }

    #[test]
    fn empty_allow_list_is_ignored() {
        let src = "// lint:allow() nothing named\n";
        assert!(scan(src).allows.is_empty());
    }

    #[test]
    fn numeric_literals_keep_their_text() {
        let out = scan("let a = 1_000u64; let b = 0.5; let c = 2f64; let d = 0xFF;");
        let nums: Vec<&str> = out
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["1_000u64", "0.5", "2f64", "0xFF"]);
    }

    #[test]
    fn float_literal_classification() {
        for float in ["0.0", "1.5", "2f64", "3f32", "1e3", "1e", "1_000.25", "9E4"] {
            assert!(is_float_literal(float), "{float} must classify as float");
        }
        for int in ["0", "3", "1_000u64", "0xFF", "0b1010", "0o17", "3usize", "255u8"] {
            assert!(!is_float_literal(int), "{int} must classify as integer");
        }
    }

    #[test]
    fn block_comment_nested_inside_doc_comment() {
        // `/**` opens an (outer) block doc comment; a `/*` nested inside it
        // must not terminate the doc comment at the inner `*/`.
        let src = "/** doc /* inner HashMap */ tail unwrap */ fn live() {}";
        assert_eq!(idents(src), vec!["fn", "live"]);
        // Line doc comments swallow block-comment openers to end of line.
        let src = "/// doc with /* unclosed opener\nfn live() {}";
        assert_eq!(idents(src), vec!["fn", "live"]);
    }

    #[test]
    fn lifetimes_inside_generic_bounds() {
        // 'a as a bound and 'a' as a char literal in the same generic
        // context must not be confused.
        let src = "fn f<'a, T: Iterator<Item = &'a str> + 'a>(x: &'a T) -> char { 'a' }";
        let out = scan(src);
        let lifetimes = out.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = out.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 4, "{:?}", out.tokens);
        assert_eq!(chars, 1);
        // 'static in a where clause is a lifetime, not a char.
        let out = scan("fn g<T>() where T: 'static {}");
        assert_eq!(out.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary printable-ASCII body with `"` excluded (a quote could
        /// form the closing delimiter early, which is correct scanner
        /// behavior but not what the round-trip property asserts).
        fn body_strategy() -> impl Strategy<Value = String> {
            proptest::collection::vec(32u8..127, 0..25).prop_map(|bytes| {
                bytes.into_iter().map(|b| if b == b'"' { '_' } else { b as char }).collect()
            })
        }

        proptest! {
            /// Raw strings close at exactly their own delimiter: for any
            /// body and any hash count 0..=4, the scanner recovers the body
            /// verbatim and keeps scanning after it.
            #[test]
            fn raw_string_any_hash_count_round_trips(
                body in body_strategy(),
                hashes in 0usize..5,
            ) {
                let fence = "#".repeat(hashes);
                let src = format!("let s = r{fence}\"{body}\"{fence}; let tail = s;");
                let out = scan(&src);
                let strings: Vec<&str> = out.tokens.iter().filter_map(|t| match &t.kind {
                    TokKind::Str(s) => Some(s.as_str()),
                    _ => None,
                }).collect();
                prop_assert_eq!(strings, vec![body.as_str()]);
                prop_assert!(out.tokens.iter().any(|t| t.kind == TokKind::Ident("tail".into())));
            }

            /// A raw string fenced with n+1 hashes must ignore any embedded
            /// `"` + n-hash close candidates.
            #[test]
            fn raw_string_ignores_shorter_close(inner in 0usize..4) {
                let outer = inner + 1;
                let body = format!("x\"{}y", "#".repeat(inner));
                let src = format!(
                    "let s = r{f}\"{body}\"{f}; let tail = s;",
                    f = "#".repeat(outer)
                );
                let out = scan(&src);
                let strings: Vec<&str> = out.tokens.iter().filter_map(|t| match &t.kind {
                    TokKind::Str(s) => Some(s.as_str()),
                    _ => None,
                }).collect();
                prop_assert_eq!(strings, vec![body.as_str()]);
            }

            /// Block comments nested to any depth (including inside doc
            /// block comments) hide every identifier and resume scanning
            /// exactly at the matching close.
            #[test]
            fn nested_block_comments_any_depth(depth in 1usize..6, doc in any::<bool>()) {
                let open = if doc { "/**" } else { "/*" };
                let mut src = String::from(open);
                for _ in 0..depth {
                    src.push_str(" /* HashMap unwrap ");
                }
                for _ in 0..depth {
                    src.push_str(" */ still_hidden ");
                }
                src.push_str("*/ fn live() {}");
                prop_assert_eq!(idents(&src), vec!["fn", "live"]);
            }

            /// `'x'` is always a char literal and `'x` always a lifetime,
            /// for every ASCII identifier-start character, including inside
            /// a generic-bound context.
            #[test]
            fn lifetime_vs_char_for_any_ident_char(ix in 0usize..53) {
                const CHARS: &[u8; 53] =
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
                let c = CHARS[ix] as char;
                let lt = format!("'{c}");
                let src = format!("fn f<{lt}, T: Tr<{lt}> + {lt}>(x: &{lt} T) {{ let v = '{c}'; }}");
                let out = scan(&src);
                let lifetimes = out.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count();
                let chars = out.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
                prop_assert_eq!(lifetimes, 4, "src: {}", src);
                prop_assert_eq!(chars, 1, "src: {}", src);
            }
        }
    }
}
