//! A minimal TOML-subset reader for scenario files.
//!
//! The sanctioned dependency set has no `toml` crate, so the corpus
//! defines its own restricted grammar — exactly what scenario files need
//! and nothing more:
//!
//! - `key = value` pairs with bare keys;
//! - values: `"strings"` (with `\"`, `\\`, `\n`, `\t` escapes), booleans,
//!   integers, floats, and flat arrays of those;
//! - `[table.path]` headers and `[[array.of.tables]]` headers;
//! - `#` comments and blank lines.
//!
//! Unsupported TOML (inline tables, multi-line strings, dotted keys,
//! dates) is rejected with a line-numbered error instead of being
//! misparsed — a scenario file that fails to parse must fail loudly, not
//! run a different scenario than its author wrote.

use super::{err, scalar, ParseError, Table, Value};

/// Parses a scenario document into its root table.
pub fn parse_toml(input: &str) -> Result<Table, ParseError> {
    let mut root = Table::new();
    // Path of the table the next `key = value` lands in.
    let mut current: Vec<String> = Vec::new();

    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line
            .strip_prefix("[[")
            .and_then(|rest| rest.strip_suffix("]]"))
        {
            let path = split_path(inner, lineno)?;
            push_table_element(&mut root, &path, lineno)?;
            current = path;
        } else if let Some(inner) = line
            .strip_prefix('[')
            .and_then(|rest| rest.strip_suffix(']'))
        {
            let path = split_path(inner, lineno)?;
            resolve_mut(&mut root, &path, lineno)?;
            current = path;
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            if key.is_empty() || !is_bare_key(key) {
                return Err(err(lineno, format!("invalid key `{key}`")));
            }
            let value = parse_value(line[eq + 1..].trim(), lineno)?;
            let table = resolve_mut(&mut root, &current, lineno)?;
            if table.insert(key, value).is_some() {
                return Err(err(lineno, format!("duplicate key `{key}`")));
            }
        } else {
            return Err(err(lineno, format!("cannot parse `{line}`")));
        }
    }
    Ok(root)
}

/// The characters of `line` outside string literals, with their offsets.
fn outside_strings(line: &str) -> impl Iterator<Item = (usize, char)> + '_ {
    let (mut in_str, mut escaped) = (false, false);
    line.char_indices().filter(move |&(_, c)| {
        if c == '\\' && in_str && !escaped {
            escaped = true;
            return false;
        }
        if c == '"' && !escaped {
            in_str = !in_str;
        }
        escaped = false;
        !in_str
    })
}

/// Strips a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    match outside_strings(line).find(|&(_, c)| c == '#') {
        Some((idx, _)) => &line[..idx],
        None => line,
    }
}

fn is_bare_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

fn split_path(inner: &str, lineno: usize) -> Result<Vec<String>, ParseError> {
    let parts: Vec<String> = inner.split('.').map(|p| p.trim().to_string()).collect();
    if parts.iter().any(|p| !is_bare_key(p)) {
        return Err(err(lineno, format!("invalid table path `{inner}`")));
    }
    Ok(parts)
}

/// Appends a fresh element to the `[[array-of-tables]]` at `path`.
fn push_table_element(root: &mut Table, path: &[String], lineno: usize) -> Result<(), ParseError> {
    let (last, parents) = path.split_last().expect("paths are non-empty");
    let table = resolve_mut(root, parents, lineno)?;
    match table.get_or_insert_with(last, || Value::TableArr(Vec::new())) {
        Value::TableArr(items) => {
            items.push(Table::new());
            Ok(())
        }
        _ => Err(err(lineno, format!("`{last}` is not an array of tables"))),
    }
}

/// Resolves `path` to its innermost table, creating intermediate tables.
/// A path segment naming an array of tables resolves to its *last*
/// element (standard TOML semantics for keys under `[[x]]`).
fn resolve_mut<'a>(
    root: &'a mut Table,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Table, ParseError> {
    let mut table = root;
    for part in path {
        let next = table.get_or_insert_with(part, || Value::Table(Table::new()));
        table = match next {
            Value::Table(t) => t,
            Value::TableArr(items) => items
                .last_mut()
                .ok_or_else(|| err(lineno, format!("empty table array `{part}`")))?,
            _ => return Err(err(lineno, format!("`{part}` is not a table"))),
        };
    }
    Ok(table)
}

fn parse_value(src: &str, lineno: usize) -> Result<Value, ParseError> {
    let src = src.trim();
    if src.is_empty() {
        return Err(err(lineno, "missing value".into()));
    }
    if let Some(rest) = src.strip_prefix('"') {
        return parse_string(rest, lineno);
    }
    if src.starts_with('[') {
        return parse_array(src, lineno);
    }
    scalar(src).ok_or_else(|| err(lineno, format!("cannot parse value `{src}`")))
}

fn parse_string(rest: &str, lineno: usize) -> Result<Value, ParseError> {
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let trailing = chars.as_str().trim();
                if !trailing.is_empty() {
                    return Err(err(lineno, format!("trailing content `{trailing}`")));
                }
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => {
                    return Err(err(lineno, format!("unsupported escape `\\{other:?}`")));
                }
            },
            c => out.push(c),
        }
    }
    Err(err(lineno, "unterminated string".into()))
}

fn parse_array(src: &str, lineno: usize) -> Result<Value, ParseError> {
    let inner = src
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(lineno, "unterminated array".into()))?;
    // Items end at the commas outside strings, and at the closing bracket.
    let commas = outside_strings(inner).filter(|&(_, c)| c == ',');
    let mut items = Vec::new();
    let mut start = 0;
    for end in commas.map(|(idx, _)| idx).chain([inner.len()]) {
        let part = inner[start..end].trim();
        start = end + 1;
        if part.is_empty() {
            continue;
        }
        let v = parse_value(part, lineno)?;
        if matches!(v, Value::Arr(_)) {
            return Err(err(lineno, "nested arrays are not supported".into()));
        }
        items.push(v);
    }
    Ok(Value::Arr(items))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_tables() {
        let doc = r#"
            # a scenario
            name = "diurnal"   # trailing comment
            rounds = 4
            scale = 0.07
            strict = true

            [system]
            kind = "paper_sim"
            seed = 7
        "#;
        let root = parse_toml(doc).unwrap();
        assert_eq!(root["name"].as_str(), Some("diurnal"));
        assert_eq!(root["rounds"].as_usize(), Some(4));
        assert_eq!(root["scale"].as_f64(), Some(0.07));
        assert_eq!(root["strict"].as_bool(), Some(true));
        let sys = root["system"].as_table().unwrap();
        assert_eq!(sys["kind"].as_str(), Some("paper_sim"));
        assert_eq!(sys["seed"].as_usize(), Some(7));
    }

    #[test]
    fn parses_arrays_of_tables_in_order() {
        let doc = r#"
            [[event]]
            kind = "submit"
            count = 3

            [[event]]
            kind = "drift"
            amplitude = 0.8

            [[system.host]]
            cpu = 200.0

            [[system.host]]
            cpu = 50.0
        "#;
        let root = parse_toml(doc).unwrap();
        let events = root["event"].as_table_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["kind"].as_str(), Some("submit"));
        assert_eq!(events[1]["amplitude"].as_f64(), Some(0.8));
        let hosts = root["system"].as_table().unwrap()["host"]
            .as_table_arr()
            .unwrap();
        assert_eq!(hosts.len(), 2);
        assert_eq!(hosts[0]["cpu"].as_f64(), Some(200.0));
        assert_eq!(hosts[1]["cpu"].as_f64(), Some(50.0));
    }

    #[test]
    fn parses_flat_arrays_and_strings_with_escapes() {
        let doc = r#"
            queries = [0, 2, 5]
            weights = [1.0, 0.5]
            admits = "AR\"A\n"
            tags = ["a, b", "c"]
        "#;
        let root = parse_toml(doc).unwrap();
        assert_eq!(
            root["queries"].as_arr().unwrap(),
            &[Value::Int(0), Value::Int(2), Value::Int(5)]
        );
        assert_eq!(root["admits"].as_str(), Some("AR\"A\n"));
        let tags = root["tags"].as_arr().unwrap();
        assert_eq!(tags[0].as_str(), Some("a, b"), "comma inside a string");
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let root = parse_toml("name = \"a # b\"").unwrap();
        assert_eq!(root["name"].as_str(), Some("a # b"));
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (doc, needle) in [
            ("key value", "cannot parse"),
            ("k = ", "missing value"),
            ("k = \"open", "unterminated string"),
            ("k = [1, [2]]", "nested arrays"),
            ("k = 2020-01-01", "cannot parse value"),
            ("k.q = 1", "invalid key"),
            ("k = 1\nk = 2", "duplicate key"),
        ] {
            let e = parse_toml(doc).unwrap_err();
            assert!(
                e.message.contains(needle),
                "`{doc}` -> `{}` (wanted `{needle}`)",
                e.message
            );
        }
        let e = parse_toml("ok = 1\nbroken line").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn array_of_tables_conflicts_are_rejected() {
        assert!(parse_toml("[x]\nk = 1\n[[x]]\n").is_err());
        assert!(parse_toml("x = 1\n[x]\n").is_err());
    }

    #[test]
    fn counts_must_be_integers() {
        let root = parse_toml("n = 2.5").unwrap();
        assert_eq!(root["n"].as_usize(), None);
        assert_eq!(root["n"].as_f64(), Some(2.5));
    }
}
