//! Run records and `--compare A B`.
//!
//! `--json PATH` appends one JSON object per run to `PATH` (JSON-lines), so
//! a file collects as many runs of as many workloads as were pointed at it.
//! `--compare A B` reads two such files and, for every pairing of workload
//! and end-to-end metric, sets B's median against A's: `regressed` when B is
//! worse by more than the metric allows, `unresolved` when the run-to-run
//! spread of one commit (the distance between A's quartiles, or the spread
//! recorded for the pairing when the benchmark was defined) is wider than
//! that — unless every run of B reads better than every run of A — and `ok`
//! otherwise. What a metric allows is its bound as a share of A's median,
//! but never less than its floor; an exact metric, when both files ran the
//! same seeds, is held to its own tight tolerance instead. Every ratio is
//! given with its base.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{
    compared, median, quartiles, recorded_spread, Better, MetricDef, Tolerance, END_TO_END,
    PER_LAYER,
};
use crate::run::{Report, Reported};
use crate::workloads::WORKLOADS;

/// A JSON value; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&c) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.error("expected `,` or `]`"));
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        if !self.eat(b':') {
                            return Err(self.error("expected `:`"));
                        }
                        fields.push((key, self.value()?));
                        if self.eat(b'}') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(self.error("expected `,` or `}`"));
                        }
                    }
                }
                Ok(Json::Obj(fields))
            }
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("bad number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.error("bad UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(self.error("unsupported escape")),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A `metrics` object: every listed metric that has a value, with all the
/// digits measured.
fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Reported>) -> String {
    let fields: Vec<String> = metrics
        .filter_map(|m| {
            let value = m.value.filter(|v| v.is_finite())?;
            Some(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quoted(m.def.name),
                quoted(m.def.unit)
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line the benchmark contract asks for: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being the
/// `end_to_end` set of `BENCHMARK.json` for an untraced run and its
/// `per_layer` set for a traced one.
pub fn result_line(report: &Report) -> String {
    let listed = report.metrics.iter().filter(|m| {
        let set: &[MetricDef] = if report.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        set.iter().any(|d| d.name == m.def.name)
    });
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(listed)
    )
}

/// The `--json` record of a run: the result line's fields plus which
/// workload, seed and mode produced them.
pub fn record_line(report: &Report) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"passes\": {}, \"fixed_passes\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        quoted(report.workload),
        report.seed,
        u8::from(report.trace),
        report.passes,
        report.fixed_passes,
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(report.metrics.iter())
    )
}

/// The untraced runs of one record file.
#[derive(Debug, Default)]
pub struct Records {
    /// Values per `(workload, metric)`, in file order.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// Seeds per workload, in file order (a record without one reads NaN,
    /// which equals nothing).
    seeds: BTreeMap<String, Vec<f64>>,
}

pub fn read_records(text: &str) -> Result<Records, String> {
    let mut out = Records::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no `workload`", n + 1))?;
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            return Err(format!("line {}: no `metrics` object", n + 1));
        };
        // End-to-end numbers come from runs with tracing off.
        if record.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let seed = record.get("seed").and_then(Json::as_f64);
        out.seeds
            .entry(workload.to_string())
            .or_default()
            .push(seed.unwrap_or(f64::NAN));
        for (name, entry) in metrics {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                out.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, in the metric's unit (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// One judged pairing of workload and metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judged {
    pub verdict: Verdict,
    pub med_a: f64,
    pub med_b: f64,
    /// By how much, in the metric's unit, B's median may be worse than A's.
    pub allowed: f64,
    /// Run-to-run spread of one commit, in the metric's unit: the distance
    /// between A's quartiles or the spread recorded for the pairing in
    /// `metrics::RECORDED_SPREAD`, whichever is wider.
    pub spread: f64,
}

/// The verdict on one metric of one workload. `same_seeds`: both sides ran
/// the same seeds, so an exact metric is held to its own tolerance.
/// `recorded`: the same-commit spread measured for this pairing when the
/// benchmark was defined, as a share of the median.
pub fn judge(
    def: &MetricDef,
    a: &[f64],
    b: &[f64],
    same_seeds: bool,
    recorded: Option<f64>,
) -> Option<Judged> {
    let (med_a, med_b) = (median(a)?, median(b)?);
    let exact = def.same_seed.filter(|_| same_seeds);
    let allowed = match exact {
        Some(Tolerance::Absolute(x)) => x,
        Some(Tolerance::Share(r)) => r * med_a.abs(),
        None => (def.bound.unwrap_or(0.0) * med_a.abs()).max(def.floor),
    };
    // An exact metric does not move between runs with one seed.
    let recorded = recorded.filter(|_| exact.is_none()).unwrap_or(0.0) * med_a.abs();
    let spread = quartiles(a).map_or(recorded, |(q1, q3)| (q3 - q1).max(recorded));
    let every_b_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worse_by(def.better, x, y) < 0.0));
    let verdict = if spread > allowed && !every_b_better {
        Verdict::Unresolved
    } else if worse_by(def.better, med_a, med_b) > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Judged {
        verdict,
        med_a,
        med_b,
        allowed,
        spread,
    })
}

/// The comparison table and whether anything regressed.
pub fn compare(a: &Records, b: &Records) -> (String, bool) {
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<16} {:<28} {:>14} {:>14} {:>18} {:>14} {:>14}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "allowed", "spread"
    );
    for (w, def) in WORKLOADS
        .iter()
        .flat_map(|w| compared().map(move |d| (w, d)))
    {
        let key = (w.name.to_string(), def.name.to_string());
        let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
            continue;
        };
        let same_seeds = a.seeds.get(w.name) == b.seeds.get(w.name);
        let Some(j) = judge(def, va, vb, same_seeds, recorded_spread(def.name, w.name)) else {
            continue;
        };
        regressed |= j.verdict == Verdict::Regressed;
        let ratio = if j.med_a != 0.0 {
            format!("{:.4} of {:.6}", j.med_b / j.med_a, j.med_a)
        } else {
            "n/a (base 0)".to_string()
        };
        let _ = writeln!(
            table,
            "{:<16} {:<28} {:>14.6} {:>14.6} {:>18} {:>14.6} {:>14.6}  {} ({} {}, n={}/{}{})",
            w.name,
            def.name,
            j.med_a,
            j.med_b,
            ratio,
            j.allowed,
            j.spread,
            j.verdict.as_str(),
            def.better.as_str(),
            def.unit,
            va.len(),
            vb.len(),
            if same_seeds { ", same seeds" } else { "" },
        );
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find_e2e;

    #[test]
    fn parses_what_it_writes() {
        let text = r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"y\\z\n"}, "d": []}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\"y\\z\n")
        );
        assert_eq!(quoted("x\"y\\z\n"), r#""x\"y\\z\n""#);
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"x"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    /// One record per value, seeds counting up from `seed`.
    fn file(workload: &str, metric: &str, seed: u64, values: &[f64]) -> String {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": 0, \"metrics\": {{\"{metric}\": {{\"value\": {v}, \"unit\": \"x\"}}}}}}\n",
                    seed + i as u64
                )
            })
            .collect()
    }

    #[test]
    fn verdicts_on_hand_made_records() {
        let def = |better| MetricDef {
            name: "m",
            unit: "x",
            better,
            bound: Some(0.15),
            floor: 0.0,
            same_seed: None,
        };
        let (ops, lat) = (&def(Better::Higher), &def(Better::Lower));
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let verdict = |def, a: &[f64], b: &[f64]| judge(def, a, b, false, None).unwrap().verdict;

        assert_eq!(verdict(ops, &steady, &[98.0, 97.0, 99.0]), Verdict::Ok);
        assert_eq!(
            verdict(ops, &steady, &[80.0, 81.0, 79.0]),
            Verdict::Regressed
        );
        assert_eq!(verdict(ops, &steady, &[130.0, 131.0]), Verdict::Ok);
        assert_eq!(verdict(lat, &steady, &[120.0, 121.0]), Verdict::Regressed);
        assert_eq!(verdict(lat, &steady, &[80.0]), Verdict::Ok);
        // A's own spread is wider than the bound: nothing can be said …
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(ops, &noisy, &[70.0, 75.0]), Verdict::Unresolved);
        assert_eq!(verdict(ops, &noisy, &[100.0, 101.0]), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(verdict(ops, &noisy, &[150.0, 160.0]), Verdict::Ok);
        // One run a side has no spread of its own; the bound alone decides …
        assert_eq!(verdict(ops, &[100.0], &[84.0]), Verdict::Regressed);
        assert_eq!(verdict(ops, &[100.0], &[86.0]), Verdict::Ok);
        // … unless the spread recorded for the pairing is wider than it.
        let recorded = |r| judge(ops, &[100.0], &[84.0], false, Some(r)).unwrap();
        assert_eq!(recorded(0.2).verdict, Verdict::Unresolved);
        assert_eq!(recorded(0.1).verdict, Verdict::Regressed);
        assert_eq!((recorded(0.1).allowed, recorded(0.1).spread), (15.0, 10.0));
        // A zero base allows nothing: any worsening is a regression.
        assert_eq!(verdict(lat, &[0.0], &[0.1]), Verdict::Regressed);
        assert_eq!(verdict(lat, &[0.0], &[0.0]), Verdict::Ok);
    }

    /// The floor under `setup_s`, and the exact metrics' own tolerance when
    /// both sides ran the same seeds.
    #[test]
    fn floors_and_same_seed_tolerances() {
        let setup = find_e2e("setup_s").unwrap();
        let verdict =
            |def, a: &[f64], b: &[f64], same| judge(def, a, b, same, None).unwrap().verdict;
        // 30 µs doubling is under the 0.05 s floor; half a second growing
        // by 40 % is not.
        assert_eq!(verdict(setup, &[3e-5, 4e-5], &[7e-5], false), Verdict::Ok);
        assert_eq!(verdict(setup, &[0.5], &[0.7], false), Verdict::Regressed);
        assert_eq!(verdict(setup, &[0.5], &[0.56], false), Verdict::Ok);

        // A 5 % admission loss: inside the across-seeds bound, far outside
        // what one seed on both sides allows (0.02 absolute).
        let share = find_e2e("admitted_share").unwrap();
        assert_eq!(verdict(share, &[0.55], &[0.5225], false), Verdict::Ok);
        assert_eq!(verdict(share, &[0.55], &[0.5225], true), Verdict::Regressed);
        assert_eq!(verdict(share, &[0.55], &[0.54], true), Verdict::Ok);
        // 2 % of the base for the deployment cost.
        let cost = find_e2e("resource_cost_per_admitted").unwrap();
        assert_eq!(verdict(cost, &[0.0370], &[0.0385], false), Verdict::Ok);
        assert_eq!(
            verdict(cost, &[0.0370], &[0.0385], true),
            Verdict::Regressed
        );
        // The recorded spread is for timing; an exact metric has none.
        let j = judge(share, &[0.55], &[0.55], true, Some(0.5)).unwrap();
        assert_eq!((j.verdict, j.spread), (Verdict::Ok, 0.0));

        // `compare` finds out by itself whether the seeds match.
        let a = read_records(&file("dup_stream", "admitted_share", 1, &[0.9, 0.9])).unwrap();
        let same = read_records(&file("dup_stream", "admitted_share", 1, &[0.87, 0.87])).unwrap();
        let other = read_records(&file("dup_stream", "admitted_share", 5, &[0.87, 0.87])).unwrap();
        let (table, regressed) = compare(&a, &same);
        assert!(regressed && table.contains("same seeds"), "{table}");
        let (table, regressed) = compare(&a, &other);
        assert!(!regressed && !table.contains("same seeds"), "{table}");
    }

    #[test]
    fn compare_reads_files_and_prints_ratios_with_their_base() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let a = read_records(&file("dup_stream", "ops_per_s", 1, &steady)).unwrap();
        let bound = find_e2e("ops_per_s").and_then(|m| m.bound).unwrap();
        let worse = 100.0 * (1.0 - bound) - 1.0;
        let b = read_records(&file("dup_stream", "ops_per_s", 1, &[worse, worse])).unwrap();
        let (table, regressed) = compare(&a, &b);
        assert!(regressed, "{table}");
        assert!(
            table.contains("regressed") && table.contains("of 100.0"),
            "{table}"
        );
        let (table, regressed) = compare(&a, &a);
        assert!(!regressed && table.lines().count() == 2, "{table}");
        assert!(read_records("{\"seed\": 1}").is_err());
        // Traced records carry no end-to-end numbers and are skipped.
        let traced =
            file("dup_stream", "ops_per_s", 1, &[1.0]).replace("\"trace\": 0", "\"trace\": 1");
        let (table, _) = compare(&a, &read_records(&traced).unwrap());
        assert_eq!(table.lines().count(), 1, "{table}");
    }
}
