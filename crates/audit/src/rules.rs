//! The rule set, grounded in this repo's bug history.
//!
//! | rule | hazard | history |
//! |------|--------|---------|
//! | `hash-iter` | hash-ordered iteration feeding row layout / float sums | PR 6's ±4% run-to-run noise |
//! | `hot-path-panic` | `unwrap`/`expect`/`panic!` on the admission path | PR 7's `PlannerError` contract |
//! | `ambient-nondeterminism` | wall clocks, random hash state, env reads | warm≡cold & preemption-transparency suites |
//! | `float-eq` | `==`/`!=` against nonzero float constants | tolerance-ladder discipline (PR 3/7) |
//! | `exhaustive-merge` | field-wise accumulators silently dropping new counters | `PivotCounts`/`CacheStats` growth every PR |
//!
//! Every rule is a *lexical* approximation — no type inference — tuned to
//! have near-zero false positives on this codebase and documented false
//! negatives (e.g. `float-eq` cannot see `a == b` between two float
//! variables). The fixture corpus under `tests/fixtures/` pins each rule's
//! positive, negative and waived behaviour.

use crate::engine::{SourceFile, Violation};
use crate::lexer::{float_literal_is_zero, TokKind};

/// A single audit rule.
pub trait Rule {
    /// Stable kebab-case name (what waivers reference).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs table.
    fn description(&self) -> &'static str;
    /// Whether the rule audits the file at this repo-relative path.
    fn applies_to(&self, path: &str) -> bool;
    /// Scans a file; returned violations are waiver- and test-filtered by
    /// the engine.
    fn check(&self, file: &SourceFile) -> Vec<Violation>;
}

/// The full registered rule set.
pub fn registry() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(HashIter),
        Box::new(HotPathPanic),
        Box::new(AmbientNondeterminism),
        Box::new(FloatEq),
        Box::new(ExhaustiveMerge),
    ]
}

fn violation(rule: &'static str, file: &SourceFile, line: usize, message: String) -> Violation {
    Violation {
        rule,
        file: file.path.clone(),
        line,
        message,
    }
}

/// The planner stack: everything reachable from submit/replan/recovery.
fn planner_stack(path: &str) -> bool {
    [
        "crates/core/src",
        "crates/milp/src",
        "crates/lp/src",
        "crates/dsps/src",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------------
// hash-iter
// ---------------------------------------------------------------------------

/// Order-observing iteration over `HashMap`/`HashSet` bindings in the
/// numeric / model-building crates, where iteration order can reach LP row
/// layout or float accumulation (the PR 6 noise bug). Detection: collect
/// names bound or typed as hash containers in this file, then flag
/// `.iter()`-family calls and `for … in` loops over those names.
pub struct HashIter;

const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

impl Rule for HashIter {
    fn name(&self) -> &'static str {
        "hash-iter"
    }
    fn description(&self) -> &'static str {
        "no order-observing iteration over HashMap/HashSet in numeric/model-building crates"
    }
    fn applies_to(&self, path: &str) -> bool {
        planner_stack(path)
    }

    fn check(&self, f: &SourceFile) -> Vec<Violation> {
        // Pass 1: names bound to hash containers, from `name: HashMap<…>`
        // annotations (lets, fields, params) and `name = HashMap::new()`.
        let mut hash_bound: Vec<String> = Vec::new();
        for ci in 0..f.code.len() {
            let t = f.ctext(ci);
            if t != "HashMap" && t != "HashSet" {
                continue;
            }
            let mut j = ci;
            while j > 0 {
                j -= 1;
                match f.ctext(j) {
                    "::" | "std" | "collections" | "&" | "mut" => continue,
                    _ => break,
                }
            }
            let anchor = f.ctext(j);
            if anchor == ":" || anchor == "=" {
                if let Some(tok) = f.ct(j.wrapping_sub(1)) {
                    if tok.kind == TokKind::Ident && !hash_bound.contains(&tok.text) {
                        hash_bound.push(tok.text.clone());
                    }
                }
            }
        }
        if hash_bound.is_empty() {
            return Vec::new();
        }

        // Pass 2: order-observing uses.
        let mut out = Vec::new();
        for ci in 0..f.code.len() {
            let t = f.ct(ci).unwrap_or_else(|| unreachable!());
            if t.kind != TokKind::Ident {
                continue;
            }
            // `name.iter()` / `name.keys()` / …
            if hash_bound.contains(&t.text)
                && f.ctext(ci + 1) == "."
                && ORDER_METHODS.contains(&f.ctext(ci + 2))
                && f.ctext(ci + 3) == "("
            {
                out.push(violation(
                    self.name(),
                    f,
                    t.line,
                    format!(
                        "order-observing `.{}()` on hash-keyed `{}` — use BTreeMap/BTreeSet or sort before iterating",
                        f.ctext(ci + 2),
                        t.text
                    ),
                ));
            }
            // `for pat in [&[mut]] name {`
            if t.text == "for" {
                let mut j = ci + 1;
                let mut paren = 0i32;
                while j < f.code.len() && j < ci + 24 {
                    match f.ctext(j) {
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        "in" if paren == 0 => break,
                        "{" => {
                            j = f.code.len();
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j >= f.code.len() || f.ctext(j) != "in" {
                    continue;
                }
                let mut k = j + 1;
                while matches!(f.ctext(k), "&" | "mut") {
                    k += 1;
                }
                let Some(name) = f.ct(k) else { continue };
                if name.kind == TokKind::Ident
                    && hash_bound.contains(&name.text)
                    && f.ctext(k + 1) == "{"
                {
                    out.push(violation(
                        self.name(),
                        f,
                        name.line,
                        format!(
                            "for-loop over hash-keyed `{}` observes nondeterministic order",
                            name.text
                        ),
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// hot-path-panic
// ---------------------------------------------------------------------------

/// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!`
/// in the planner stack's shipped code — the submit/replan/recovery/
/// admission call graph must surface typed `PlannerError`s (PR 7 contract).
/// `assert!` is deliberately *not* flagged: asserts state caller-contract
/// preconditions (documented `# Panics` sections), not recoverable
/// planning failures.
pub struct HotPathPanic;

impl Rule for HotPathPanic {
    fn name(&self) -> &'static str {
        "hot-path-panic"
    }
    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable! in the submit/replan/recovery/admission stack"
    }
    fn applies_to(&self, path: &str) -> bool {
        planner_stack(path)
    }

    fn check(&self, f: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        for ci in 0..f.code.len() {
            let Some(t) = f.ct(ci) else { break };
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "unwrap" | "expect"
                    if ci > 0 && f.ctext(ci - 1) == "." && f.ctext(ci + 1) == "(" =>
                {
                    out.push(violation(
                        self.name(),
                        f,
                        t.line,
                        format!(
                            "`.{}()` on the planner stack — propagate a typed error instead",
                            t.text
                        ),
                    ));
                }
                "panic" | "unreachable" | "todo" | "unimplemented" if f.ctext(ci + 1) == "!" => {
                    out.push(violation(
                        self.name(),
                        f,
                        t.line,
                        format!(
                            "`{}!` on the planner stack — return a typed error instead",
                            t.text
                        ),
                    ));
                }
                _ => {}
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// ambient-nondeterminism
// ---------------------------------------------------------------------------

/// No ambient inputs — `Instant::now`, `SystemTime::now`, `RandomState`,
/// `env::var` — outside the sanctioned modules (bench timing, the env-read
/// config constructor, the seeded in-repo PRNG). Everything the planner
/// decides must be a function of its inputs; wall-clock deadlines that are
/// part of the documented SLO surface carry explicit waivers at each site.
pub struct AmbientNondeterminism;

/// Modules allowed to read ambient state, by path prefix.
const AMBIENT_SANCTIONED: &[&str] = &[
    "crates/bench/src",           // timing harness: measuring wall time is the point
    "crates/core/src/config.rs",  // env-driven PlannerConfig defaults (SQPR_NODE_QUANTUM)
    "crates/workload/src/rng.rs", // the seeded PRNG module itself
];

impl Rule for AmbientNondeterminism {
    fn name(&self) -> &'static str {
        "ambient-nondeterminism"
    }
    fn description(&self) -> &'static str {
        "no Instant::now/SystemTime::now/RandomState/env::var outside sanctioned modules"
    }
    fn applies_to(&self, path: &str) -> bool {
        !AMBIENT_SANCTIONED.iter().any(|p| path.starts_with(p))
    }

    fn check(&self, f: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        for ci in 0..f.code.len() {
            let Some(t) = f.ct(ci) else { break };
            if t.kind != TokKind::Ident {
                continue;
            }
            let hit = match t.text.as_str() {
                "Instant" | "SystemTime" if f.ctext(ci + 1) == "::" && f.ctext(ci + 2) == "now" => {
                    Some(format!("{}::now()", t.text))
                }
                "RandomState" => Some("RandomState".to_string()),
                "env"
                    if f.ctext(ci + 1) == "::"
                        && matches!(f.ctext(ci + 2), "var" | "var_os" | "vars") =>
                {
                    Some(format!("env::{}", f.ctext(ci + 2)))
                }
                _ => None,
            };
            if let Some(what) = hit {
                out.push(violation(
                    self.name(),
                    f,
                    t.line,
                    format!("ambient input `{what}` outside sanctioned modules"),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// float-eq
// ---------------------------------------------------------------------------

/// No `==`/`!=` against nonzero float constants (literals, `INFINITY`,
/// `NAN`). Exact-zero comparisons are exempt: `x != 0.0` is a sparsity /
/// structure test on exactly-represented values, which the LP kernels use
/// deliberately and deterministically. A lexical rule cannot see
/// `a == b` between two float *variables*; the bit-exactness suites and
/// clippy's `float_cmp` remain the backstop there.
pub struct FloatEq;

impl Rule for FloatEq {
    fn name(&self) -> &'static str {
        "float-eq"
    }
    fn description(&self) -> &'static str {
        "no ==/!= against nonzero float constants (use tolerances or bit comparisons)"
    }
    fn applies_to(&self, _path: &str) -> bool {
        true
    }

    fn check(&self, f: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        for ci in 0..f.code.len() {
            let Some(op) = f.ct(ci) else { break };
            if op.kind != TokKind::Punct || (op.text != "==" && op.text != "!=") {
                continue;
            }
            // Left operand: the token just before the operator.
            let lhs_hit = f.ct(ci.wrapping_sub(1)).is_some_and(|t| {
                (t.kind == TokKind::Float && !float_literal_is_zero(&t.text))
                    || (t.kind == TokKind::Ident
                        && matches!(t.text.as_str(), "INFINITY" | "NEG_INFINITY" | "NAN"))
            });
            // Right operand: skip one unary minus / a `f64::` path prefix.
            let mut j = ci + 1;
            if f.ctext(j) == "-" {
                j += 1;
            }
            if f.ctext(j + 1) == "::" {
                j += 2; // `f64::INFINITY`, `std::f64::NAN`, …
            }
            let rhs_hit = f.ct(j).is_some_and(|t| {
                (t.kind == TokKind::Float && !float_literal_is_zero(&t.text))
                    || (t.kind == TokKind::Ident
                        && matches!(t.text.as_str(), "INFINITY" | "NEG_INFINITY" | "NAN"))
            });
            if lhs_hit || rhs_hit {
                out.push(violation(
                    self.name(),
                    f,
                    op.line,
                    format!(
                        "`{}` against a nonzero float constant — compare within a tolerance or on bits",
                        op.text
                    ),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// exhaustive-merge
// ---------------------------------------------------------------------------

/// Accumulator merge functions — `fn merge(&mut self, other: &T)` /
/// `fn add(&mut self, other: &T)` with no return value — must either
/// exhaustively destructure the counter struct (`let T { a, b, c } = …`
/// with **no** `..` rest pattern, so a newly added field is a compile
/// error, not a silently dropped stat) or be a pure one-line delegation to
/// such a method (`self.merge(other)`).
pub struct ExhaustiveMerge;

impl Rule for ExhaustiveMerge {
    fn name(&self) -> &'static str {
        "exhaustive-merge"
    }
    fn description(&self) -> &'static str {
        "accumulator merge fns must exhaustively destructure (new field => compile error)"
    }
    fn applies_to(&self, _path: &str) -> bool {
        true
    }

    fn check(&self, f: &SourceFile) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut ci = 0usize;
        while ci < f.code.len() {
            ci += 1;
            let i = ci - 1;
            if f.ctext(i) != "fn" || !matches!(f.ctext(i + 1), "merge" | "add") {
                continue;
            }
            let fn_name = f.ctext(i + 1).to_string();
            let fn_line = f.ct(i).map_or(0, |t| t.line);
            // Signature shape: ( & mut self , <param> : & [path::]Type )
            if f.ctext(i + 2) != "("
                || f.ctext(i + 3) != "&"
                || f.ctext(i + 4) != "mut"
                || f.ctext(i + 5) != "self"
                || f.ctext(i + 6) != ","
            {
                continue;
            }
            let param = f.ctext(i + 7).to_string();
            if f.ctext(i + 8) != ":" || f.ctext(i + 9) != "&" {
                continue;
            }
            // Walk the type path to its last segment and the closing paren.
            let mut j = i + 10;
            let mut type_last = String::new();
            while j < f.code.len() && f.ctext(j) != ")" {
                if f.ct(j).is_some_and(|t| t.kind == TokKind::Ident) {
                    type_last = f.ctext(j).to_string();
                }
                j += 1;
            }
            // Only unit-returning accumulators: `) {`.
            if f.ctext(j) != ")" || f.ctext(j + 1) != "{" {
                continue;
            }
            let body_start = j + 1;
            let mut depth = 0usize;
            let mut body_end = body_start;
            while body_end < f.code.len() {
                match f.ctext(body_end) {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                body_end += 1;
            }
            let body = body_start + 1..body_end;

            // Compliance 1: exhaustive destructure `let [&]Self|Type { … }`
            // containing no `..` before its closing brace.
            let mut compliant = false;
            for k in body.clone() {
                if f.ctext(k) != "let" {
                    continue;
                }
                let mut m = k + 1;
                if f.ctext(m) == "&" {
                    m += 1;
                }
                let head = f.ctext(m);
                if (head == "Self" || head == type_last) && f.ctext(m + 1) == "{" {
                    let mut d = 0usize;
                    let mut has_rest = false;
                    let mut p = m + 1;
                    while p < body_end {
                        match f.ctext(p) {
                            "{" => d += 1,
                            "}" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            ".." | "..=" => has_rest = true,
                            _ => {}
                        }
                        p += 1;
                    }
                    if !has_rest {
                        compliant = true;
                        break;
                    }
                }
            }
            // Compliance 2: pure delegation `self.m(<param>);`.
            if !compliant {
                let toks: Vec<&str> = body.clone().map(|k| f.ctext(k)).collect();
                if let ["self", ".", m, "(", p, ")", ";"] = toks.as_slice() {
                    if matches!(*m, "merge" | "add") && *m != fn_name && *p == param {
                        compliant = true;
                    }
                }
            }
            if !compliant {
                out.push(violation(
                    self.name(),
                    f,
                    fn_line,
                    format!(
                        "`fn {fn_name}(&mut self, {param}: &{type_last})` must exhaustively destructure \
                         `{type_last}` (no `..`) so a new field is a compile error, not a dropped stat"
                    ),
                ));
            }
            ci = body_end.max(ci);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::audit_source;

    const LABEL: &str = "crates/core/src/demo.rs";

    fn rules_fired(src: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = audit_source(LABEL, src)
            .violations
            .into_iter()
            .map(|v| v.rule)
            .collect();
        v.dedup();
        v
    }

    #[test]
    fn hash_iter_flags_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\n\
             fn f(m: &HashMap<u32, f64>) -> f64 {\n\
                 let mut s = 0.0;\n\
                 for (_, v) in m { s += v; }\n\
                 s + m.get(&1).copied().unwrap_or(0.0)\n\
             }\n";
        assert_eq!(rules_fired(src), vec!["hash-iter"]);
        let ok = src.replace("HashMap", "BTreeMap");
        assert!(rules_fired(&ok).is_empty());
    }

    #[test]
    fn hash_iter_sees_through_field_and_let_bindings() {
        let src = "struct S { memo: std::collections::HashMap<u64, f64> }\n\
             impl S { fn g(&self) -> usize { self.memo.keys().count() } }\n";
        assert_eq!(rules_fired(src), vec!["hash-iter"]);
    }

    #[test]
    fn hot_path_panic_catches_all_forms() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                 if x.is_none() { panic!(\"no\"); }\n\
                 x.unwrap()\n\
             }\n";
        let r = audit_source(LABEL, src);
        assert_eq!(r.violations.len(), 2);
        // unwrap_or_else is not flagged.
        assert!(audit_source(
            LABEL,
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n"
        )
        .violations
        .is_empty());
    }

    #[test]
    fn ambient_rule_respects_sanctioned_modules() {
        let src = "fn t() -> std::time::Instant { Instant::now() }\n";
        assert_eq!(rules_fired(src), vec!["ambient-nondeterminism"]);
        assert!(
            audit_source("crates/bench/src/timing.rs", src)
                .violations
                .is_empty(),
            "bench timing is sanctioned"
        );
    }

    #[test]
    fn float_eq_exempts_exact_zero() {
        assert!(rules_fired("fn f(x: f64) -> bool { x != 0.0 }\n").is_empty());
        assert_eq!(
            rules_fired("fn f(x: f64) -> bool { x == 1.5 }\n"),
            vec!["float-eq"]
        );
        assert_eq!(
            rules_fired("fn f(x: f64) -> bool { x == f64::INFINITY }\n"),
            vec!["float-eq"]
        );
    }

    #[test]
    fn exhaustive_merge_accepts_destructure_and_delegation() {
        let bad = "struct C { a: usize, b: usize }\n\
             impl C { fn merge(&mut self, other: &C) { self.a += other.a; self.b += other.b; } }\n";
        assert_eq!(rules_fired(bad), vec!["exhaustive-merge"]);
        let good = "struct C { a: usize, b: usize }\n\
             impl C {\n\
                 fn merge(&mut self, other: &C) { let C { a, b } = *other; self.a += a; self.b += b; }\n\
                 fn add(&mut self, other: &C) { self.merge(other); }\n\
             }\n";
        assert!(rules_fired(good).is_empty());
        let rest = "struct C { a: usize, b: usize }\n\
             impl C { fn merge(&mut self, other: &C) { let C { a, .. } = *other; self.a += a; } }\n";
        assert_eq!(rules_fired(rest), vec!["exhaustive-merge"]);
    }
}
