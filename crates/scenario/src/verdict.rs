//! Canonical verdict transcripts.
//!
//! A transcript is the scenario's observable behaviour, one line per
//! scripted step plus a state line after each event. Everything in it is
//! deterministic — node counts, admit/reject decisions, objective *bits*
//! — and nothing in it is timing, so byte-equality across reruns and
//! machines is exactly the reproducibility claim the corpus asserts.
//! Objectives are printed with their IEEE-754 bit pattern (`value/hex`) so
//! "bit-identical" is literal, not a rounding artefact.

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
}
