//! A small Rust lexer for the audit pass.
//!
//! The sanctioned dependency set has no `syn`/`proc-macro2`, so — exactly
//! like the scenario crate's TOML-subset reader — the audit defines its own
//! restricted tokenizer: just enough Rust lexical structure that a rule can
//! never be fooled by a keyword inside a string literal, a `HashMap` inside
//! a doc comment, or an `unwrap()` inside a nested `/* /* */ */` block.
//!
//! Tokens carry their source text and byte span; every non-whitespace byte
//! of the input belongs to exactly one token (the round-trip property the
//! test suite pins for nested raw strings and block comments). The lexer is
//! deliberately *lossy about semantics* — no keywords, no type resolution —
//! and strict about lexical class: strings (plain, raw, byte), char
//! literals vs lifetimes, nested block comments, and float vs integer
//! literals are all distinguished, because the rules depend on those
//! boundaries being right.

use std::fmt;

/// Lexical class of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `unwrap`, `HashMap`, ...).
    Ident,
    /// A lifetime such as `'a` or `'static` (not a char literal).
    Lifetime,
    /// Integer literal, including hex/octal/binary and suffixed forms.
    Int,
    /// Float literal (`1.0`, `2e-9`, `1.`, `3.5f64`).
    Float,
    /// Plain `"..."` or byte `b"..."` string literal.
    Str,
    /// Raw string literal `r"..."`, `r#"..."#`, `br##"..."##`.
    RawStr,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// `// ...` line comment (including doc comments).
    LineComment,
    /// `/* ... */` block comment, nesting handled.
    BlockComment,
    /// Punctuation / operator, longest-match (`==`, `::`, `..=`, `->`, ...).
    Punct,
}

/// One lexed token: class, exact source text, 1-based line, byte span.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
    pub start: usize,
    pub end: usize,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}({})@{}", self.kind, self.text, self.line)
    }
}

/// Multi-character operators, longest first so greedy matching is correct.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "::", "->", "=>", "..", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Tokenizes `src`. Unterminated strings/comments produce a token running
/// to end of input rather than an error: the audit must keep scanning a
/// file a human is mid-edit on, and the compiler will reject it anyway.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;

    let push = |toks: &mut Vec<Token>, kind, start: usize, end: usize, line: usize| {
        toks.push(Token {
            kind,
            text: src[start..end].to_string(),
            line,
            start,
            end,
        });
    };

    while i < b.len() {
        let c = b[i];
        // Whitespace (line tracking).
        if c.is_ascii_whitespace() {
            if c == b'\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        let start = i;
        let start_line = line;

        // Comments.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            push(&mut toks, TokKind::LineComment, start, i, start_line);
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            i += 2;
            let mut depth = 1usize;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            push(&mut toks, TokKind::BlockComment, start, i, start_line);
            continue;
        }

        // Raw / byte strings: r"..."  r#"..."#  b"..."  br##"..."##  b'x'.
        if c == b'r' || c == b'b' {
            if let Some((end, nl, kind)) = try_string_like(b, i) {
                line += nl;
                i = end;
                push(&mut toks, kind, start, i, start_line);
                continue;
            }
        }

        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            push(&mut toks, TokKind::Ident, start, i, start_line);
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let (end, is_float) = lex_number(b, i);
            i = end;
            push(
                &mut toks,
                if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                start,
                i,
                start_line,
            );
            continue;
        }

        // Plain strings.
        if c == b'"' {
            let (end, nl) = skip_plain_string(b, i + 1);
            line += nl;
            i = end;
            push(&mut toks, TokKind::Str, start, i, start_line);
            continue;
        }

        // Char literal vs lifetime.
        if c == b'\'' {
            if is_lifetime(b, i) {
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                push(&mut toks, TokKind::Lifetime, start, i, start_line);
            } else {
                i = skip_char_literal(b, i + 1);
                push(&mut toks, TokKind::Char, start, i, start_line);
            }
            continue;
        }

        // Punctuation, longest match first.
        let rest = &src[i..];
        let mut matched = false;
        for p in PUNCTS {
            if rest.starts_with(p) {
                i += p.len();
                push(&mut toks, TokKind::Punct, start, i, start_line);
                matched = true;
                break;
            }
        }
        if !matched {
            // Single byte of punctuation (or any unrecognised byte — UTF-8
            // continuation bytes only ever appear inside strings/comments in
            // this codebase, but consume defensively).
            i += 1;
            while i < b.len() && (b[i] & 0xC0) == 0x80 {
                i += 1; // finish a multi-byte scalar so text stays valid UTF-8
            }
            push(&mut toks, TokKind::Punct, start, i, start_line);
        }
    }
    toks
}

/// After an opening `'`: lifetime iff the next char starts an identifier
/// and the char after that identifier char is not a closing quote
/// (`'a'` is a char literal, `'a>` / `'a,` / `'static` are lifetimes).
fn is_lifetime(b: &[u8], i: usize) -> bool {
    let Some(&c1) = b.get(i + 1) else {
        return false;
    };
    if !(c1.is_ascii_alphabetic() || c1 == b'_') {
        return false;
    }
    b.get(i + 2) != Some(&b'\'')
}

/// Consumes a char literal body starting after the opening quote; returns
/// the index one past the closing quote, or the end of input.
fn skip_char_literal(b: &[u8], mut i: usize) -> usize {
    if i < b.len() && b[i] == b'\\' {
        i += 1;
        if i < b.len() && b[i] == b'u' {
            // \u{...}
            i += 1;
            if i < b.len() && b[i] == b'{' {
                while i < b.len() && b[i] != b'}' {
                    i += 1;
                }
            }
        }
    }
    // The (escaped) char itself: one scalar, however many bytes it takes.
    if i < b.len() {
        i += 1;
        while i < b.len() && (b[i] & 0xC0) == 0x80 {
            i += 1;
        }
    }
    if i < b.len() && b[i] == b'\'' {
        i += 1;
    }
    i
}

/// Consumes a plain string body starting after the opening quote; returns
/// `(index past closing quote or end of input, newlines crossed)`.
fn skip_plain_string(b: &[u8], mut i: usize) -> (usize, usize) {
    let mut nl = 0usize;
    while i < b.len() {
        match b[i] {
            // An escaped newline (a string continuation) is still a line;
            // an escape at end of input ends the unterminated string.
            b'\\' => {
                nl += usize::from(b.get(i + 1) == Some(&b'\n'));
                i = (i + 2).min(b.len());
            }
            b'"' => return (i + 1, nl),
            b'\n' => {
                nl += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (i, nl)
}

/// At `r`/`b`: tries to lex a raw string, byte string, or byte char.
/// Returns `(end, newlines, kind)` or `None` when this is a plain ident.
fn try_string_like(b: &[u8], i: usize) -> Option<(usize, usize, TokKind)> {
    let mut j = i;
    let mut byte = false;
    if b[j] == b'b' {
        byte = true;
        j += 1;
    }
    if j < b.len() && b[j] == b'\'' && byte {
        // b'x'
        let end = skip_char_literal(b, j + 1);
        return Some((end, 0, TokKind::Char));
    }
    if j < b.len() && b[j] == b'"' && byte {
        let (end, nl) = skip_plain_string(b, j + 1);
        return Some((end, nl, TokKind::Str));
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == b'"' {
            j += 1;
            let mut nl = 0usize;
            // Scan for `"` followed by `hashes` hash marks.
            while j < b.len() {
                if b[j] == b'\n' {
                    nl += 1;
                }
                if b[j] == b'"' {
                    let mut k = j + 1;
                    let mut h = 0usize;
                    while k < b.len() && b[k] == b'#' && h < hashes {
                        h += 1;
                        k += 1;
                    }
                    if h == hashes {
                        return Some((k, nl, TokKind::RawStr));
                    }
                }
                j += 1;
            }
            return Some((j, nl, TokKind::RawStr)); // unterminated: to EOF
        }
        return None; // `r` / `br` followed by something else: identifier
    }
    None
}

/// Lexes a number starting at a digit; returns `(end, is_float)`.
fn lex_number(b: &[u8], mut i: usize) -> (usize, bool) {
    // Hex / octal / binary: always integers.
    if b[i] == b'0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return (i, false);
    }
    let mut is_float = false;
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    // Fractional part: `1.5` and trailing-dot `1.` are floats, but `1.max`
    // (method call) and `1..n` (range) keep the integer.
    if i < b.len() && b[i] == b'.' {
        let next = b.get(i + 1);
        let method_or_range =
            matches!(next, Some(&c) if c.is_ascii_alphabetic() || c == b'_' || c == b'.');
        if !method_or_range {
            is_float = true;
            i += 1;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Exponent.
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let mut j = i + 1;
        if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            is_float = true;
            i = j;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Suffix (`u32`, `f64`, ...): `f32`/`f64` force float.
    let sfx = i;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    if b[sfx..i].starts_with(b"f32") || b[sfx..i].starts_with(b"f64") {
        is_float = true;
    }
    (i, is_float)
}

/// Whether a float-literal token is textually exactly zero (`0.0`, `0.`,
/// `0e5`, `0_000.0f64`): every mantissa digit is `0`. Zero comparisons are
/// exact sparsity/structure tests and are exempt from the float-eq rule.
/// (Textual, so the audit itself needs no float arithmetic.)
pub fn float_literal_is_zero(text: &str) -> bool {
    let mantissa = text.split(['e', 'E', 'f']).next().unwrap_or("");
    mantissa.chars().all(|c| matches!(c, '0' | '.' | '_'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_keywords_and_puncts() {
        let toks = kinds("for x in &mut m { x == 1 }");
        assert_eq!(toks[0], (TokKind::Ident, "for".into()));
        assert!(toks.contains(&(TokKind::Punct, "==".into())));
        assert!(toks.contains(&(TokKind::Punct, "&".into())));
    }

    #[test]
    fn floats_vs_ints_vs_method_calls() {
        assert_eq!(kinds("1.5")[0].0, TokKind::Float);
        assert_eq!(kinds("2e-9")[0].0, TokKind::Float);
        assert_eq!(kinds("3f64")[0].0, TokKind::Float);
        assert_eq!(kinds("0x1f")[0].0, TokKind::Int);
        assert_eq!(kinds("7u32")[0].0, TokKind::Int);
        // `1.max(2)` is an integer method call, `1..3` a range.
        let m = kinds("1.max(2)");
        assert_eq!(m[0], (TokKind::Int, "1".into()));
        assert_eq!(m[1], (TokKind::Punct, ".".into()));
        let r = kinds("1..3");
        assert_eq!(r[0].0, TokKind::Int);
        assert_eq!(r[1], (TokKind::Punct, "..".into()));
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds(r#"let s = "for x in map.iter() /* not a comment";"#);
        assert!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count() == 1);
        assert!(!toks.iter().any(|(_, t)| t == "iter"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"r#"inner "quoted" text"# x"###;
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokKind::RawStr);
        assert_eq!(toks[1], (TokKind::Ident, "x".into()));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still outer */ y");
        assert_eq!(toks[0].0, TokKind::BlockComment);
        assert_eq!(toks[1], (TokKind::Ident, "y".into()));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = kinds(
            "'a' 'x

 fn f<'b>(x: &'static str)",
        );
        assert_eq!(toks[0].0, TokKind::Char);
        assert_eq!(toks[1], (TokKind::Lifetime, "'x".into()));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'static"));
    }

    #[test]
    fn line_numbers_track_all_multiline_tokens() {
        let src = "a\n\"two\nlines\"\nb /* c\nd */ e \"con\\\ntinued\" f";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("e"), 5);
        assert_eq!(find("f"), 6, "an escaped newline is a line too");
    }

    #[test]
    fn zero_float_detection_is_textual() {
        for z in ["0.0", "0.", "0_0.0", "0e9", "0.000f64"] {
            assert!(float_literal_is_zero(z), "{z}");
        }
        for nz in ["1.0", "0.5", "1e-9", "2.", "0.01"] {
            assert!(!float_literal_is_zero(nz), "{nz}");
        }
    }

    #[test]
    fn every_non_whitespace_byte_is_covered() {
        let src = r##"fn main() { let r = r#"raw "str" here"#; /* a /* b */ c */ }"##;
        let toks = lex(src);
        let mut covered = vec![false; src.len()];
        for t in &toks {
            for c in covered.iter_mut().take(t.end).skip(t.start) {
                assert!(!*c, "overlapping tokens");
                *c = true;
            }
        }
        for (i, ch) in src.char_indices() {
            if !ch.is_whitespace() {
                assert!(covered[i], "byte {i} ({ch:?}) not covered");
            }
        }
    }
}
