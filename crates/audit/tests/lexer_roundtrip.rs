//! Round-trip property of the lexer on pathological input: every token's
//! span reproduces its text verbatim, every non-whitespace byte belongs to
//! exactly one token, and nested raw strings / block comments neither leak
//! code into comments nor comments into code.

use sqpr_audit::{lex, TokKind};

const GNARLY: &str = r####"
// line comment with /* an unclosed opener and "a quote
/* block /* nested /* deeply */ still */ comment with "quotes" and r#"raw"# */
fn main() {
    let s = r##"raw with "# inside, a fake */ closer and // slashes"##;
    let t = "escaped \" quote and \\ backslash";
    let b = b"bytes" ;
    let rb = br#"raw bytes "with quotes""#;
    let c = '"';
    let nl = '\n';
    let lt: &'static str = s;
    let f = 1.5e-3_f64;
    let i = 0x_ff_u32;
    let range = 1..3;
    let m = 1.max(2);
}
"####;

#[test]
fn spans_reproduce_text_exactly() {
    for tok in lex(GNARLY) {
        assert_eq!(
            &GNARLY[tok.start..tok.end],
            tok.text,
            "span/text mismatch for {:?} at line {}",
            tok.kind,
            tok.line
        );
    }
}

#[test]
fn every_non_whitespace_byte_in_exactly_one_token() {
    let mut covered = vec![false; GNARLY.len()];
    for tok in lex(GNARLY) {
        for slot in covered.iter_mut().take(tok.end).skip(tok.start) {
            assert!(!*slot, "byte covered twice in {:?}", tok.text);
            *slot = true;
        }
    }
    // Whitespace *inside* tokens (comments, strings) is covered; whitespace
    // between tokens is not. Non-whitespace must always be covered.
    for (i, (&c, byte)) in covered.iter().zip(GNARLY.bytes()).enumerate() {
        if !byte.is_ascii_whitespace() {
            assert!(c, "non-whitespace byte {i} ({:?}) uncovered", byte as char);
        }
    }
}

/// Unterminated literals become a token that runs to end of input, never a
/// panic: an escape as the last byte of a plain or a byte string, and an
/// escaped multi-byte char, whose token must end on a char boundary.
#[test]
fn unterminated_escapes_end_at_end_of_input() {
    for (src, want) in [
        ("let s = \"abc\\", (TokKind::Str, "\"abc\\")),
        ("b\"x\\", (TokKind::Str, "b\"x\\")),
        ("let c = '\\é';", (TokKind::Char, "'\\é'")),
    ] {
        let toks = lex(src);
        let mut covered = vec![false; src.len()];
        for tok in &toks {
            assert_eq!(&src[tok.start..tok.end], tok.text, "{src:?}");
            for slot in &mut covered[tok.start..tok.end] {
                assert!(!*slot, "{src:?}: byte covered twice");
                *slot = true;
            }
        }
        for (i, byte) in src.bytes().enumerate() {
            assert!(
                covered[i] || byte.is_ascii_whitespace(),
                "{src:?}: byte {i}"
            );
        }
        assert!(
            toks.iter().any(|t| (t.kind, t.text.as_str()) == want),
            "{src:?}: {toks:?}"
        );
    }
}

#[test]
fn nested_constructs_classified_correctly() {
    let toks = lex(GNARLY);
    // The nested block comment is ONE comment token containing the fake
    // closers; the raw string is ONE string token containing `*/` and `//`.
    assert_eq!(
        toks.iter()
            .filter(|t| t.kind == TokKind::BlockComment)
            .count(),
        1
    );
    let raws: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::RawStr).collect();
    assert!(raws.iter().any(|t| t.text.contains("fake */ closer")));
    assert!(raws.iter().any(|t| t.text.contains("raw bytes")));
    // `'"'` and `'\n'` are chars; `'static` is a lifetime.
    assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"));
    // `1.5e-3_f64` is a float; `1` in `1..3` and `1.max(2)` are ints.
    assert!(toks
        .iter()
        .any(|t| t.kind == TokKind::Float && t.text == "1.5e-3_f64"));
    assert!(!toks
        .iter()
        .any(|t| t.kind == TokKind::Float && (t.text == "1." || t.text == "1")));
}
