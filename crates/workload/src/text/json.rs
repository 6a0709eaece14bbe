//! The writer every committed bench file comes from, and the reader for
//! every committed text file: the scenario scripts and the bench files.

use std::path::Path;

use super::{ParseError, Table, Value};

/// How [`write_json`] lays a document out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One field per line, two-space indentation (`BENCH_scenarios.json`).
    Pretty,
    /// No whitespace at all (`BENCH_incremental.json`).
    Compact,
}

/// Renders `root` as a JSON document with a trailing newline.
///
/// Floats use Rust's shortest round-trip `Display`, with `.0` appended to
/// an integral value so it stays visibly a float; a non-finite float is
/// `null`.
pub fn write_json(root: &Table, layout: Layout) -> String {
    let mut out = String::new();
    write_table(&mut out, root, layout, 0);
    out + "\n"
}

fn write_table(out: &mut String, table: &Table, layout: Layout, depth: usize) {
    let entries = table.entries.iter().map(|(k, v)| (Some(k), v));
    write_items(out, layout, depth, "{}", entries);
}

fn write_value(out: &mut String, value: &Value, layout: Layout, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::Float(v) if v.is_finite() => {
            // `Display` never writes an exponent: no `.` means integral.
            let s = v.to_string();
            let point = if s.contains('.') { "" } else { ".0" };
            out.push_str(&(s + point));
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => write_items(out, layout, depth, "[]", items.iter().map(|v| (None, v))),
        Value::Table(t) => write_table(out, t, layout, depth),
    }
}

/// A bracketed, comma-separated sequence of values, keyed for an object.
/// `Pretty` puts each item on its own line, one level deeper than the
/// brackets; an empty sequence stays on one line.
fn write_items<'a>(
    out: &mut String,
    layout: Layout,
    depth: usize,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a String>, &'a Value)>,
) {
    let newline = |out: &mut String, depth: usize| {
        if layout == Layout::Pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    let empty = items.len() == 0;
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in items.enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        newline(out, depth + 1);
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(if layout == Layout::Pretty { ": " } else { ":" });
        }
        write_value(out, value, layout, depth + 1);
    }
    if !empty {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting depth past which the reader gives up. The committed files nest
/// three deep; the bound keeps hostile input off the stack.
const MAX_DEPTH: usize = 64;

/// Parses a JSON document whose root is an object into its root table.
///
/// Accepted: objects and arrays of any value, strings with the escapes
/// [`write_json`] emits (`\"`, `\\`, `\n`, `\t`, `\r`, `\uXXXX`), integers,
/// floats, booleans and `null`. A number follows RFC 8259's grammar; it is
/// an integer when the literal is one that fits `i64`, a float otherwise
/// (`3.0`, `1e3`). Other escapes, other number forms (`+5`, `007`, `.5`,
/// `1.`), duplicate keys, trailing commas, non-finite numbers and trailing
/// content are line-numbered errors.
pub fn parse_json(input: &str) -> Result<Table, ParseError> {
    let mut r = Reader { src: input, at: 0 };
    let root = r.table(0)?;
    r.skip_ws();
    match r.peek() {
        None => Ok(root),
        Some(_) => Err(r.error("trailing content after the document")),
    }
}

/// Reads a committed JSON file. An absent or unreadable file is `None`;
/// a malformed one is an error naming the file and the line, so a caller
/// that rewrites the file never drops the entries it could not read.
pub fn read_json_file(path: &Path) -> Result<Option<Table>, String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(None);
    };
    parse_json(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// A number literal, as an integer when it fits `i64` and as a finite float
/// otherwise. Past Rust's `parse`, which also reads a `+` sign, `.5`, `1.`,
/// leading zeros and `inf` / `nan`, the literal must start with a digit
/// after its `-`, have no leading zero and a digit after its point: what is
/// left is RFC 8259's `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn number(word: &str) -> Option<Value> {
    let b = word.strip_prefix('-').unwrap_or(word).as_bytes();
    let digit_at = |i: usize| b.get(i).is_some_and(u8::is_ascii_digit);
    let json = digit_at(0)
        && !(b[0] == b'0' && digit_at(1))
        && (0..b.len()).all(|i| b[i] != b'.' || digit_at(i + 1));
    let float = word.parse().ok().filter(|f: &f64| f.is_finite());
    let int = word.parse().ok().map(Value::Int);
    int.or(float.map(Value::Float)).filter(|_| json)
}

struct Reader<'a> {
    src: &'a str,
    at: usize,
}

impl<'a> Reader<'a> {
    /// An error on the line the reader stands on.
    fn error(&self, message: &str) -> ParseError {
        let read = &self.src.as_bytes()[..self.at.min(self.src.len())];
        let newlines = read.iter().filter(|&&b| b == b'\n').count();
        ParseError {
            line: 1 + newlines,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    /// Consumes bytes while `keep` holds. It never splits a character:
    /// `keep` answers alike for every byte of one.
    fn run(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.at;
        while self.peek().is_some_and(&keep) {
            self.at += 1;
        }
        &self.src[start..self.at]
    }

    fn skip_ws(&mut self) {
        self.run(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    /// Skips whitespace, then consumes `want` if it comes next.
    fn eat(&mut self, want: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(want);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                return Err(self.error("values nest too deep"))
            }
            Some(b'{') => return self.table(depth + 1).map(Value::Table),
            Some(b'[') => return self.array(depth + 1).map(Value::Arr),
            Some(b'"') => return self.string().map(Value::Str),
            _ => {}
        }
        let word = self.run(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.'));
        match word {
            "null" => Some(Value::Null),
            "true" | "false" => Some(Value::Bool(word == "true")),
            _ => number(word),
        }
        .ok_or_else(|| self.error(&format!("expected a value, found `{word}`")))
    }

    fn table(&mut self, depth: usize) -> Result<Table, ParseError> {
        if !self.eat(b'{') {
            return Err(self.error("expected `{`"));
        }
        let mut table = Table::default();
        self.items(b'}', |r| {
            r.skip_ws();
            if r.peek() != Some(b'"') {
                return Err(r.error("expected a string key"));
            }
            let key = r.string()?;
            if !r.eat(b':') {
                return Err(r.error("expected `:`"));
            }
            match table.insert(&key, r.value(depth)?) {
                Some(_) => Err(r.error(&format!("duplicate key `{key}`"))),
                None => Ok(()),
            }
        })?;
        Ok(table)
    }

    /// An array, from its opening bracket on.
    fn array(&mut self, depth: usize) -> Result<Vec<Value>, ParseError> {
        self.at += 1;
        let mut items = Vec::new();
        self.items(b']', |r| {
            items.push(r.value(depth)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// The comma-separated items of an object or array up to its `close`
    /// bracket, each read by `item`; a comma must be followed by an item.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                let close = close as char;
                return Err(self.error(&format!("expected `,` or `{close}`")));
            }
        }
    }

    /// A string, from its opening quote on.
    fn string(&mut self) -> Result<String, ParseError> {
        self.at += 1;
        let mut out = String::new();
        loop {
            out.push_str(self.run(|b| b != b'"' && b != b'\\' && b >= 0x20));
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.at += 1,
                Some(_) => return Err(self.error("control character in a string")),
            }
            let escape = self.peek();
            self.at += 1;
            out.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'u') => {
                    // Four hex digits: `from_str_radix` alone takes `+041`.
                    let hex = self.src.get(self.at..self.at + 4);
                    self.at += 4;
                    hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error("bad `\\u` escape"))?
                }
                _ => return Err(self.error("unsupported escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pretty(t: &Table) -> String {
        write_json(t, Layout::Pretty)
    }

    #[test]
    fn json_object_renders_deterministically() {
        let j = pretty(
            &Table::new()
                .with("bench", Value::Str("scenario_x".into()))
                .with("submitted", 12usize)
                .with("patch_rate", Value::Float(0.75))
                .with("objective", Value::Float(3.0))
                .with("valid", Value::Bool(true)),
        );
        assert_eq!(
            j,
            "{\n  \"bench\": \"scenario_x\",\n  \"submitted\": 12,\n  \"patch_rate\": 0.75,\n  \"objective\": 3.0,\n  \"valid\": true\n}\n"
        );
    }

    #[test]
    fn bench_file_round_trips_its_entries() {
        let a = Table::new()
            .with("bench", Value::Str("scenario_a".into()))
            .with("n", 1usize);
        let b = Table::new().with("bench", Value::Str("scenario_b".into()));
        let entries = Table::new()
            .with("a", Value::Table(a))
            .with("b", Value::Table(b));
        let file = pretty(&entries);
        assert_eq!(
            file,
            "{\n  \"a\": {\n    \"bench\": \"scenario_a\",\n    \"n\": 1\n  },\n  \"b\": {\n    \"bench\": \"scenario_b\"\n  }\n}\n"
        );
        assert_eq!(parse_json(&file), Ok(entries));
    }

    #[test]
    fn strings_escape_control_characters() {
        let t = Table::new().with("k", Value::Str("a\"b\\c\nd\t\r\u{1}".into()));
        let j = pretty(&t);
        assert!(j.contains(r#""a\"b\\c\nd\t\r\u0001""#), "{j}");
        assert_eq!(parse_json(&j), Ok(t));
    }

    #[test]
    fn compact_layout_has_no_whitespace() {
        let t = Table::new()
            .with("bench", Value::Str("incremental".into()))
            .with("queries", 50usize)
            .with("scale", Value::Float(0.07))
            .with(
                "inner",
                Value::Table(Table::new().with("ok", Value::Bool(true))),
            )
            .with("empty", Value::Table(Table::new()));
        let j = write_json(&t, Layout::Compact);
        assert_eq!(
            j,
            "{\"bench\":\"incremental\",\"queries\":50,\"scale\":0.07,\"inner\":{\"ok\":true},\"empty\":{}}\n"
        );
        assert_eq!(parse_json(&j), Ok(t));
    }

    #[test]
    fn integers_and_floats_stay_distinct() {
        let t =
            parse_json(r#"{"i": 12, "f": 0.5, "g": 3.0, "e": 1e3, "n": -7, "z": null}"#).unwrap();
        assert_eq!(t["i"], Value::Int(12));
        assert_eq!(t["f"], Value::Float(0.5));
        assert_eq!(t["g"], Value::Float(3.0));
        assert_eq!(t["e"], Value::Float(1000.0));
        assert_eq!(t["n"], Value::Int(-7));
        assert_eq!(t["z"], Value::Null);
        let big = parse_json(r#"{"b": 99999999999999999999}"#).unwrap();
        assert_eq!(big["b"], Value::Float(1e20), "past i64, a float");
        let forms = parse_json(r#"{"z": -0, "m": 2.5E-1, "p": 1e+2, "x": 0.125}"#).unwrap();
        assert_eq!(forms["z"], Value::Int(0));
        assert_eq!(forms["m"], Value::Float(0.25));
        assert_eq!(forms["p"], Value::Float(100.0));
        assert_eq!(forms["x"], Value::Float(0.125));
        let j = write_json(&t, Layout::Compact);
        assert_eq!(
            j,
            "{\"i\":12,\"f\":0.5,\"g\":3.0,\"e\":1000.0,\"n\":-7,\"z\":null}\n"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let t = Table::new()
            .with("nan", Value::Float(f64::NAN))
            .with("inf", Value::Float(f64::INFINITY))
            .with("neg", Value::Float(f64::NEG_INFINITY));
        let j = write_json(&t, Layout::Compact);
        assert_eq!(j, "{\"nan\":null,\"inf\":null,\"neg\":null}\n");
    }

    #[test]
    fn arrays_render_in_both_layouts() {
        let t = Table::new().with("xs", Value::Arr(vec![Value::Int(1), Value::Bool(false)]));
        assert_eq!(write_json(&t, Layout::Compact), "{\"xs\":[1,false]}\n");
        assert_eq!(
            write_json(&t, Layout::Pretty),
            "{\n  \"xs\": [\n    1,\n    false\n  ]\n}\n"
        );
    }

    /// An absent file holds nothing; a malformed one is an error naming
    /// the file and the line, never a silently shorter entry set.
    #[test]
    fn json_files_read_absent_as_none_and_malformed_as_an_error() {
        let dir = std::env::temp_dir().join(format!("sqpr_json_read_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("BENCH_scenarios.json");
        let _ = std::fs::remove_file(&file);
        assert_eq!(read_json_file(&file), Ok(None));
        std::fs::write(
            &file,
            "{\n  \"a\": {\n    \"n\": 1\n  },\n  \"b\": {\n    \"n\": 2,\n",
        )
        .unwrap();
        let e = read_json_file(&file).unwrap_err();
        assert!(e.contains("BENCH_scenarios.json: line 7:"), "{e}");
        std::fs::write(&file, "{\"a\": 1}\n").unwrap();
        let t = read_json_file(&file).unwrap().unwrap();
        assert_eq!(t.get("a"), Some(&Value::Int(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_malformed_documents_with_line_numbers() {
        for (doc, needle, line) in [
            ("", "expected `{`", 1),
            ("[1]", "expected `{`", 1),
            ("{\"a\": [1,\n]}", "expected a value, found ``", 2),
            ("{\"a\": [1 2]}", "expected `,` or `]`", 1),
            ("{\"a\": 1,}", "expected a string key", 1),
            ("{\"a\": [", "expected a value, found ``", 1),
            ("{\"a\": 1} x", "trailing content", 1),
            ("{\"a\": 1,\n\"a\": 2}", "duplicate key `a`", 2),
            ("{\"a\": \"open", "unterminated string", 1),
            ("{\"a\": \"\\q\"}", "unsupported escape", 1),
            ("{\"a\": \"\\u12\"}", "bad `\\u` escape", 1),
            ("{\"a\": \"\\ud800\"}", "bad `\\u` escape", 1),
            ("{\"a\": \"\\u+041\"}", "bad `\\u` escape", 1),
            ("{\"a\": \"\\u12", "bad `\\u` escape", 1),
            ("{\"a\": \"x\ny\"}", "control character", 1),
            ("{\"a\" 1}", "expected `:`", 1),
            ("{\"a\": 1\n\n\"b\": 2}", "expected `,` or `}`", 3),
            ("{a: 1}", "expected a string key", 1),
            ("{\"a\": tru}", "expected a value, found `tru`", 1),
            ("{\"a\": nan}", "found `nan`", 1),
            ("{\"a\": 1e999}", "found `1e999`", 1),
            ("{\"a\": 1.2.3}", "found `1.2.3`", 1),
            ("{\"a\": +5}", "found `+5`", 1),
            ("{\"a\":\n007}", "found `007`", 2),
            ("{\"a\": .5}", "found `.5`", 1),
            ("{\"a\": [1.]}", "found `1.`", 1),
            ("{\"a\": -}", "found `-`", 1),
            ("{\"a\": 1e}", "found `1e`", 1),
            ("{\"a\": 0x10}", "found `0x10`", 1),
            ("{\"a\": inf}", "found `inf`", 1),
            ("{\"a\": }", "expected a value, found ``", 1),
            ("{\"a\": ", "expected a value", 1),
        ] {
            let e = parse_json(doc).unwrap_err();
            assert!(
                e.message.contains(needle),
                "`{doc}` -> `{}` (wanted `{needle}`)",
                e.message
            );
            assert_eq!(e.line, line, "`{doc}` -> {e}");
        }
        let deep = "{\"a\":".repeat(100) + "1" + &"}".repeat(100);
        assert!(parse_json(&deep).unwrap_err().message.contains("too deep"));
    }
}
