//! Canonical verdict transcripts and the bench-JSON emitter.
//!
//! A transcript is the scenario's observable behaviour, one line per
//! scripted step plus a state line after each event. Everything in it is
//! deterministic — node counts, admit/reject decisions, objective *bits*
//! — and nothing in it is timing, so byte-equality across reruns and
//! machines is exactly the reproducibility claim the corpus asserts.
//! Objectives are printed with their IEEE-754 bit pattern (`value/hex`) so
//! "bit-identical" is literal, not a rounding artefact.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Formats an objective (or any score) as `value/bits`.
pub fn fmt_f64_bits(x: f64) -> String {
    format!("{:.6}/{:016x}", x, x.to_bits())
}

/// An accumulating verdict transcript.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    lines: Vec<String>,
}

impl Transcript {
    pub fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The canonical rendering: newline-joined with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// Human-readable first divergence between two transcripts (`None` when
/// byte-equal), so a golden mismatch says *which step* diverged, not just
/// "differs".
pub fn first_diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    for i in 0..e.len().max(a.len()) {
        let el = e.get(i).copied();
        let al = a.get(i).copied();
        if el != al {
            return Some(format!(
                "line {}:\n  expected: {}\n  actual:   {}",
                i + 1,
                el.unwrap_or("<end of transcript>"),
                al.unwrap_or("<end of transcript>"),
            ));
        }
    }
    Some("transcripts differ only in trailing whitespace".to_string())
}

/// A minimal ordered JSON object writer for the per-scenario bench files.
/// (The sanctioned dependency set has no serde; the bench harness keeps
/// its own equivalent — this one lives here so `sqpr-scenario` does not
/// depend on `sqpr-bench`.)
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    pub fn new() -> Self {
        JsonObject::default()
    }

    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.fields.push((key.to_string(), json_string(v)));
        self
    }

    pub fn uint(mut self, key: &str, v: usize) -> Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// `f64` via Rust's shortest-round-trip `Display` — deterministic and
    /// parseable back to the same bits. Non-finite values become `null`.
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        let rendered = if v.is_finite() {
            let s = format!("{v}");
            // Bare integers like `3` are valid JSON numbers already, but
            // keep floats visibly floats for downstream tooling.
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            }
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Renders the object with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            let _ = writeln!(out, "  {}: {}{}", json_string(k), v, comma);
        }
        out.push_str("}\n");
        out
    }
}

/// The entries of the combined bench file, keyed by scenario name: each is
/// the scenario's object exactly as [`JsonObject::render`] writes it.
pub(crate) fn bench_entries(file: &str) -> BTreeMap<String, String> {
    let mut entries = BTreeMap::new();
    let mut open: Option<(String, String)> = None;
    for line in file.lines() {
        if let Some((name, body)) = &mut open {
            let line = line.strip_prefix("  ").unwrap_or(line);
            if line.starts_with('}') {
                body.push_str("}\n");
                entries.insert(std::mem::take(name), std::mem::take(body));
                open = None;
            } else {
                body.push_str(line);
                body.push('\n');
            }
        } else if let Some(name) = line
            .strip_prefix("  \"")
            .and_then(|l| l.strip_suffix("\": {"))
        {
            open = Some((name.to_string(), "{\n".to_string()));
        }
    }
    entries
}

/// Renders the combined bench file: one object keyed by scenario name, in
/// name order, each entry indented one level.
pub(crate) fn render_bench_entries(entries: &BTreeMap<String, String>) -> String {
    let mut out = String::from("{\n");
    for (i, (name, body)) in entries.iter().enumerate() {
        let _ = write!(out, "  {}: ", json_string(name));
        let lines: Vec<&str> = body.lines().collect();
        for (j, line) in lines.iter().enumerate() {
            let indent = if j == 0 { "" } else { "  " };
            let comma = if j + 1 == lines.len() && i + 1 < entries.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "{indent}{line}{comma}");
        }
    }
    out.push_str("}\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_renders_with_trailing_newline() {
        let mut t = Transcript::default();
        t.push("scenario x");
        t.push("final admitted=1/1");
        assert_eq!(t.render(), "scenario x\nfinal admitted=1/1\n");
    }

    #[test]
    fn f64_bits_round_trip_the_bit_pattern() {
        let x = 123.456789_f64;
        let s = fmt_f64_bits(x);
        let bits = s.split('/').nth(1).unwrap();
        assert_eq!(u64::from_str_radix(bits, 16).unwrap(), x.to_bits());
    }

    #[test]
    fn first_diff_pinpoints_the_line() {
        assert!(first_diff("a\nb\n", "a\nb\n").is_none());
        let d = first_diff("a\nb\nc\n", "a\nX\nc\n").unwrap();
        assert!(d.contains("line 2"), "{d}");
        assert!(
            d.contains("expected: b") && d.contains("actual:   X"),
            "{d}"
        );
        let d = first_diff("a\n", "a\nextra\n").unwrap();
        assert!(d.contains("<end of transcript>"), "{d}");
    }

    #[test]
    fn json_object_renders_deterministically() {
        let j = JsonObject::new()
            .str("bench", "scenario_x")
            .uint("submitted", 12)
            .f64("patch_rate", 0.75)
            .f64("objective", 3.0)
            .bool("valid", true)
            .render();
        assert_eq!(
            j,
            "{\n  \"bench\": \"scenario_x\",\n  \"submitted\": 12,\n  \"patch_rate\": 0.75,\n  \"objective\": 3.0,\n  \"valid\": true\n}\n"
        );
    }

    #[test]
    fn bench_file_round_trips_its_entries() {
        let a = JsonObject::new()
            .str("bench", "scenario_a")
            .uint("n", 1)
            .render();
        let b = JsonObject::new().str("bench", "scenario_b").render();
        let mut entries = BTreeMap::new();
        entries.insert("b".to_string(), b);
        entries.insert("a".to_string(), a);
        let file = render_bench_entries(&entries);
        assert_eq!(
            file,
            "{\n  \"a\": {\n    \"bench\": \"scenario_a\",\n    \"n\": 1\n  },\n  \"b\": {\n    \"bench\": \"scenario_b\"\n  }\n}\n"
        );
        assert_eq!(bench_entries(&file), entries);
        assert!(bench_entries("").is_empty());
    }

    #[test]
    fn json_strings_escape_controls() {
        let j = JsonObject::new().str("k", "a\"b\\c\nd").render();
        assert!(j.contains(r#""a\"b\\c\nd""#), "{j}");
    }
}
