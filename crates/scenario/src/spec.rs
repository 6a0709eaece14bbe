//! Typed scenario specifications, decoded from a scenario file's JSON tree
//! ([`sqpr_workload::text::parse_json`]).
//!
//! A scenario file is one object with a `name` and three sections:
//!
//! - `system` — which generated system/workload to build (the paper's
//!   §V-A simulation or §V-B cluster presets, scaled, optionally with an
//!   explicit heterogeneous `host` array) and the deterministic node budget
//!   every solve runs under;
//! - `event` — the timed script, an array of objects: query arrivals,
//!   observed-rate drift (through the metrics feedback loop or directly
//!   into §IV-B adaptation), host/link failures and restores, recovery
//!   storms, query removals and admission retries;
//! - `expect` — scenario-level expectations checked on the canonical
//!   run, over and above the golden transcript diff.
//!
//! Any of these objects may carry a `why` string, the script's commentary
//! for its reader; the decoder skips it and rejects every other key it
//! does not know.

use std::collections::BTreeSet;
use std::fmt;

use sqpr_workload::text::{parse_json, Table, Value};
use sqpr_workload::{DriftSpec, RateProfile};

/// A scenario file failed to decode.
#[derive(Debug, Clone)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Which workload generator preset seeds the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// `WorkloadSpec::paper_sim(scale)` — §V-A simulation defaults.
    PaperSim,
    /// `WorkloadSpec::paper_cluster(scale)` — §V-B cluster defaults.
    PaperCluster,
}

/// An explicit host class for heterogeneous clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostClass {
    pub count: usize,
    pub cpu: f64,
    pub bandwidth: f64,
}

/// The `system` section.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    pub kind: SystemKind,
    pub scale: f64,
    /// Workload seed override (`None` keeps the preset's seed).
    pub seed: Option<u64>,
    /// Query-count override.
    pub queries: Option<usize>,
    /// Zipf skew override (duplicate-heavy scenarios raise it).
    pub zipf_theta: Option<f64>,
    /// Per-submission node budget (`SolveBudget::nodes`) — node-only, so
    /// every run of the scenario is a pure function of the script.
    pub max_nodes: usize,
    /// Node-count deadline per submission round
    /// (`PlannerConfig::round_deadline`). Setting it puts the scenario in
    /// *deadline mode*: submissions route through the [`AdmissionQueue`]
    /// and preempted rounds park until `pump`/`drain` events resolve them.
    ///
    /// [`AdmissionQueue`]: sqpr_core::AdmissionQueue
    pub round_deadline: Option<usize>,
    /// Heterogeneous host classes; empty means the preset's uniform hosts.
    pub hosts: Vec<HostClass>,
}

/// One scripted event, applied in file order.
#[derive(Debug, Clone)]
pub enum Event {
    /// Submit the next `count` workload queries one at a time.
    Submit { count: usize },
    /// Feed measured rate samples into the drift monitor (the metrics
    /// feedback path): `samples` draws at rounds `t, t + tick, …` for each
    /// selected base stream (all bases when `streams` is empty).
    Observe {
        drift: DriftSpec,
        t: f64,
        samples: usize,
        tick: f64,
        streams: Vec<usize>,
    },
    /// Ask the monitor for an adaptation round at this drift threshold.
    Adapt { threshold: f64 },
    /// Bypass the monitor: evaluate the drift profile at round `t` and
    /// push the observed rates straight through §IV-B adaptation.
    Drift {
        drift: DriftSpec,
        t: f64,
        threshold: f64,
        streams: Vec<usize>,
    },
    /// Fail the listed hosts (indices into the generated host list).
    FailHosts { hosts: Vec<usize> },
    /// Restore the listed hosts to nominal capacity.
    RestoreHosts { hosts: Vec<usize> },
    /// Degrade the directed link `from -> to` to `capacity`.
    DegradeLink {
        from: usize,
        to: usize,
        capacity: f64,
    },
    /// Restore the directed link `from -> to` to its configured capacity.
    RestoreLink { from: usize, to: usize },
    /// Run a recovery storm over the current fault set under a node-only
    /// storm budget.
    Recover { max_nodes: usize },
    /// Remove the listed queries (by submission index).
    Remove { queries: Vec<u32> },
    /// Retry admission (warm re-plan) for currently rejected queries, in
    /// ascending id order, at most `max` of them (`None` = all).
    Retry { max: Option<usize> },
    /// Advance the admission queue by `ticks` logical ticks: each tick
    /// resumes every eligible parked round in park order under another
    /// `round_deadline` node grant (deadline mode only; a no-op when
    /// nothing is parked).
    Pump { ticks: usize },
    /// Quiet period: force every parked round to a terminal verdict via
    /// one unbounded resume each. After `drain` the queue is empty — the
    /// zero-silent-drops guarantee.
    Drain,
}

/// The `expect` section.
#[derive(Debug, Clone)]
pub struct Expectations {
    /// Exact admit/reject sequence over `submit` events, one `A`/`R` per
    /// submission in arrival order.
    pub admits: Option<String>,
    /// Floor on the final admitted-query count.
    pub min_admitted: Option<usize>,
    /// Every adaptation round and recovery storm must account for all its
    /// queries with zero drops (default `true`).
    pub zero_dropped: bool,
    /// Floor on the total number of queries selected for re-planning
    /// across all adaptation rounds.
    pub min_replanned: Option<usize>,
    /// Floor on the final admitted fraction of submitted queries.
    pub min_admit_fraction: Option<f64>,
}

impl Default for Expectations {
    fn default() -> Self {
        Expectations {
            admits: None,
            min_admitted: None,
            zero_dropped: true,
            min_replanned: None,
            min_admit_fraction: None,
        }
    }
}

/// A fully decoded scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    pub name: String,
    pub system: SystemSpec,
    pub events: Vec<Event>,
    pub expect: Expectations,
}

impl ScenarioSpec {
    /// Decodes a scenario from its JSON source.
    pub fn parse(src: &str) -> Result<ScenarioSpec, SpecError> {
        let tree = parse_json(src).map_err(|e| bad(format!("json: {e}")))?;
        let mut root = Fields::new(&tree);
        let name = req_str(&mut root, "name")?;
        let system = parse_system(
            root.get("system")
                .and_then(Value::as_table)
                .ok_or_else(|| bad("missing `system` object"))?,
        )?;
        let mut events = Vec::new();
        for (i, ev) in objects(&mut root, "event")?.into_iter().enumerate() {
            events.push(parse_event(ev).map_err(|e| bad(format!("event #{}: {}", i + 1, e.0)))?);
        }
        if events.is_empty() {
            return Err(bad("scenario has no events"));
        }
        let expect = match root.get("expect") {
            None => Expectations::default(),
            Some(v) => parse_expect(
                v.as_table()
                    .ok_or_else(|| bad("`expect` must be an object"))?,
            )?,
        };
        root.done("at the top level")?;
        Ok(ScenarioSpec {
            name,
            system,
            events,
            expect,
        })
    }
}

/// One table under decode, tracking the keys the decoder has not read:
/// [`Fields::done`] rejects any left over but `why`, so a misspelt key
/// fails the decode instead of silently falling back to a default.
struct Fields<'a> {
    table: &'a Table,
    unread: BTreeSet<&'a str>,
}

impl<'a> Fields<'a> {
    fn new(table: &'a Table) -> Self {
        Fields {
            table,
            unread: table.keys().filter(|&k| k != "why").collect(),
        }
    }

    fn get(&mut self, key: &str) -> Option<&'a Value> {
        self.unread.remove(key);
        self.table.get(key)
    }

    /// Errs naming the first key never read; `place` says which table.
    fn done(&self, place: &str) -> Result<(), SpecError> {
        match self.unread.first() {
            Some(key) => Err(bad(format!("unknown key `{key}` {place}"))),
            None => Ok(()),
        }
    }
}

fn req_str(t: &mut Fields, key: &str) -> Result<String, SpecError> {
    t.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing string `{key}`")))
}

/// Every number a scenario carries must be finite: a non-finite float
/// means nothing as a capacity, rate or time. (The JSON reader cannot
/// produce one; this check does not lean on that.)
fn opt_f64(t: &mut Fields, key: &str) -> Result<Option<f64>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite())
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a finite number"))),
    }
}

fn f64_or(t: &mut Fields, key: &str, default: f64) -> Result<f64, SpecError> {
    Ok(opt_f64(t, key)?.unwrap_or(default))
}

fn req_f64(t: &mut Fields, key: &str) -> Result<f64, SpecError> {
    opt_f64(t, key)?.ok_or_else(|| bad(format!("missing number `{key}`")))
}

/// A capacity or a rate: finite and non-negative.
fn non_negative(key: &str, v: f64) -> Result<f64, SpecError> {
    if v < 0.0 {
        return Err(bad(format!("`{key}` must be non-negative, got {v}")));
    }
    Ok(v)
}

fn req_non_negative(t: &mut Fields, key: &str) -> Result<f64, SpecError> {
    non_negative(key, req_f64(t, key)?)
}

/// A share in `[0, 1]` (the admit-fraction floor).
fn opt_fraction(t: &mut Fields, key: &str) -> Result<Option<f64>, SpecError> {
    match opt_f64(t, key)? {
        Some(v) if !(0.0..=1.0).contains(&v) => {
            Err(bad(format!("`{key}` must lie in [0, 1], got {v}")))
        }
        v => Ok(v),
    }
}

fn opt_usize(t: &mut Fields, key: &str) -> Result<Option<usize>, SpecError> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn usize_or(t: &mut Fields, key: &str, default: usize) -> Result<usize, SpecError> {
    Ok(opt_usize(t, key)?.unwrap_or(default))
}

fn req_usize(t: &mut Fields, key: &str) -> Result<usize, SpecError> {
    opt_usize(t, key)?.ok_or_else(|| bad(format!("missing integer `{key}`")))
}

fn index_list(t: &mut Fields, key: &str) -> Result<Vec<usize>, SpecError> {
    match t.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| bad(format!("`{key}` must be an array")))?
            .iter()
            .map(|x| {
                x.as_usize()
                    .ok_or_else(|| bad(format!("`{key}` entries must be non-negative integers")))
            })
            .collect(),
    }
}

/// The objects of the array at `key`; none when the key is absent.
fn objects<'a>(t: &mut Fields<'a>, key: &str) -> Result<Vec<&'a Table>, SpecError> {
    match t.get(key) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_arr()
            .and_then(|items| items.iter().map(Value::as_table).collect())
            .ok_or_else(|| bad(format!("`{key}` must be an array of objects"))),
    }
}

fn parse_system(table: &Table) -> Result<SystemSpec, SpecError> {
    let t = &mut Fields::new(table);
    let kind = match req_str(t, "kind")?.as_str() {
        "paper_sim" => SystemKind::PaperSim,
        "paper_cluster" => SystemKind::PaperCluster,
        other => return Err(bad(format!("unknown system kind `{other}`"))),
    };
    let scale = f64_or(t, "scale", 0.1)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(bad(format!("scale {scale} outside (0, 1]")));
    }
    let mut hosts = Vec::new();
    for h in objects(t, "host")? {
        let h = &mut Fields::new(h);
        hosts.push(HostClass {
            count: usize_or(h, "count", 1)?,
            cpu: req_non_negative(h, "cpu")?,
            bandwidth: req_non_negative(h, "bandwidth")?,
        });
        h.done("in a `system.host` entry")?;
    }
    if !hosts.is_empty() && hosts.iter().all(|h| h.count == 0) {
        return Err(bad("`system.host` classes sum to zero hosts"));
    }
    let round_deadline = opt_usize(t, "round_deadline")?;
    if round_deadline == Some(0) {
        return Err(bad("`round_deadline` must be at least 1"));
    }
    let system = SystemSpec {
        kind,
        scale,
        seed: opt_usize(t, "seed")?.map(|s| s as u64),
        queries: opt_usize(t, "queries")?,
        zipf_theta: opt_f64(t, "zipf_theta")?
            .map(|z| non_negative("zipf_theta", z))
            .transpose()?,
        max_nodes: usize_or(t, "max_nodes", 200)?,
        round_deadline,
        hosts,
    };
    t.done("in `system`")?;
    Ok(system)
}

fn parse_profile(t: &mut Fields) -> Result<RateProfile, SpecError> {
    match req_str(t, "profile")?.as_str() {
        "diurnal" => Ok(RateProfile::Diurnal {
            amplitude: req_f64(t, "amplitude")?,
            period: req_f64(t, "period")?,
            phase: f64_or(t, "phase", 0.0)?,
        }),
        "burst" => Ok(RateProfile::Burst {
            factor: req_non_negative(t, "factor")?,
        }),
        "step" => Ok(RateProfile::Step {
            factor: req_non_negative(t, "factor")?,
        }),
        other => Err(bad(format!("unknown profile `{other}`"))),
    }
}

fn parse_drift(t: &mut Fields) -> Result<DriftSpec, SpecError> {
    Ok(DriftSpec {
        profile: parse_profile(t)?,
        jitter: non_negative("jitter", f64_or(t, "jitter", 0.0)?)?,
        seed: opt_usize(t, "seed")?.map_or(0, |s| s as u64),
    })
}

fn parse_event(table: &Table) -> Result<Event, SpecError> {
    let t = &mut Fields::new(table);
    let kind = req_str(t, "kind")?;
    let event = match kind.as_str() {
        "submit" => Event::Submit {
            count: req_usize(t, "count")?,
        },
        "observe" => Event::Observe {
            drift: parse_drift(t)?,
            t: req_f64(t, "t")?,
            samples: usize_or(t, "samples", 1)?,
            tick: f64_or(t, "tick", 0.25)?,
            streams: index_list(t, "streams")?,
        },
        "adapt" => Event::Adapt {
            threshold: req_f64(t, "threshold")?,
        },
        "drift" => Event::Drift {
            drift: parse_drift(t)?,
            t: req_f64(t, "t")?,
            threshold: req_f64(t, "threshold")?,
            streams: index_list(t, "streams")?,
        },
        "fail_hosts" => Event::FailHosts {
            hosts: index_list(t, "hosts")?,
        },
        "restore_hosts" => Event::RestoreHosts {
            hosts: index_list(t, "hosts")?,
        },
        "degrade_link" => {
            let (from, to) = link(t)?;
            Event::DegradeLink {
                from,
                to,
                capacity: req_non_negative(t, "capacity")?,
            }
        }
        "restore_link" => {
            let (from, to) = link(t)?;
            Event::RestoreLink { from, to }
        }
        "recover" => Event::Recover {
            max_nodes: usize_or(t, "max_nodes", 400)?,
        },
        "remove" => {
            let queries = index_list(t, "queries")?;
            if queries.is_empty() {
                return Err(bad("`remove` needs a non-empty `queries` list"));
            }
            Event::Remove {
                queries: queries
                    .into_iter()
                    .map(|q| {
                        u32::try_from(q)
                            .map_err(|_| bad(format!("`queries` entry {q} exceeds u32::MAX")))
                    })
                    .collect::<Result<_, _>>()?,
            }
        }
        "retry" => Event::Retry {
            max: opt_usize(t, "max")?,
        },
        "pump" => {
            let ticks = usize_or(t, "ticks", 1)?;
            if ticks == 0 {
                return Err(bad("`pump` needs `ticks` >= 1"));
            }
            Event::Pump { ticks }
        }
        "drain" => Event::Drain,
        other => return Err(bad(format!("unknown event kind `{other}`"))),
    };
    t.done(&format!("in a `{kind}` event"))?;
    Ok(event)
}

/// A directed link's `from -> to` host pair; a host's self link is local
/// delivery, not a link a script can degrade or restore.
fn link(t: &mut Fields) -> Result<(usize, usize), SpecError> {
    let (from, to) = (req_usize(t, "from")?, req_usize(t, "to")?);
    if from == to {
        return Err(bad(format!("`from` and `to` both name host {from}")));
    }
    Ok((from, to))
}

fn parse_expect(table: &Table) -> Result<Expectations, SpecError> {
    let t = &mut Fields::new(table);
    let mut e = Expectations::default();
    if let Some(v) = t.get("admits") {
        let s = v
            .as_str()
            .ok_or_else(|| bad("`admits` must be a string of A/R"))?;
        if !s.chars().all(|c| c == 'A' || c == 'R') {
            return Err(bad(format!("`admits` may only contain A/R, got `{s}`")));
        }
        e.admits = Some(s.to_string());
    }
    e.min_admitted = opt_usize(t, "min_admitted")?;
    if let Some(v) = t.get("zero_dropped") {
        e.zero_dropped = v
            .as_bool()
            .ok_or_else(|| bad("`zero_dropped` must be a boolean"))?;
    }
    e.min_replanned = opt_usize(t, "min_replanned")?;
    e.min_admit_fraction = opt_fraction(t, "min_admit_fraction")?;
    t.done("in `expect`")?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "name": "sample",
        "why": "Commentary rides along in any section.",
        "system": {
            "kind": "paper_cluster",
            "why": "A small cluster.",
            "scale": 0.2,
            "seed": 9,
            "queries": 12,
            "max_nodes": 150,
            "host": [
                {"count": 2, "cpu": 1.2, "bandwidth": 20.0},
                {"count": 3, "cpu": 0.3, "bandwidth": 5.0}
            ]
        },
        "event": [
            {"kind": "submit", "count": 6},
            {
                "kind": "observe",
                "why": "Rates rise.",
                "profile": "diurnal",
                "amplitude": 0.8,
                "period": 8.0,
                "t": 2.0,
                "samples": 3,
                "streams": [0, 1, 4]
            },
            {"kind": "adapt", "threshold": 0.25},
            {"kind": "fail_hosts", "hosts": [1]},
            {"kind": "recover", "max_nodes": 300},
            {"kind": "restore_hosts", "hosts": [1]},
            {"kind": "retry"}
        ],
        "expect": {"why": "", "admits": "AARARA", "min_admitted": 4, "min_replanned": 1}
    }"#;

    #[test]
    fn decodes_a_full_scenario() {
        let spec = ScenarioSpec::parse(SAMPLE).unwrap();
        assert_eq!(spec.name, "sample");
        assert_eq!(spec.system.kind, SystemKind::PaperCluster);
        assert_eq!(spec.system.queries, Some(12));
        assert_eq!(spec.system.max_nodes, 150);
        assert_eq!(spec.system.hosts.len(), 2);
        assert_eq!(spec.system.hosts[1].count, 3);
        assert_eq!(spec.events.len(), 7);
        match &spec.events[1] {
            Event::Observe {
                samples, streams, ..
            } => {
                assert_eq!(*samples, 3);
                assert_eq!(streams, &[0, 1, 4]);
            }
            other => panic!("expected observe, got {other:?}"),
        }
        assert_eq!(spec.expect.admits.as_deref(), Some("AARARA"));
        assert!(spec.expect.zero_dropped, "defaults on");
        assert_eq!(spec.expect.min_replanned, Some(1));
    }

    /// A scenario on the `paper_sim` preset: `system` extras (`"key": v`
    /// fields), the `event` array's items and the `expect` fields.
    fn doc(system: &str, events: &str, expect: &str) -> String {
        let system = if system.is_empty() {
            String::new()
        } else {
            format!(", {system}")
        };
        format!(
            r#"{{"name": "x", "system": {{"kind": "paper_sim"{system}}}, "event": [{events}], "expect": {{{expect}}}}}"#
        )
    }

    /// Decodes `system` extras plus one event body; returns the error.
    fn decode_err(system: &str, event: &str) -> String {
        let src = doc(system, &format!("{{{event}}}"), "");
        match ScenarioSpec::parse(&src) {
            Ok(_) => panic!("`{src}` decoded"),
            Err(e) => e.0,
        }
    }

    const SUBMIT: &str = r#""kind": "submit", "count": 1"#;

    #[test]
    fn rejects_bad_specs() {
        let submit = format!("{{{SUBMIT}}}");
        for (src, needle) in [
            (
                format!(r#"{{"system": {{"kind": "paper_sim"}}, "event": [{submit}]}}"#),
                "missing string `name`",
            ),
            (
                format!(r#"{{"name": "x", "event": [{submit}]}}"#),
                "missing `system` object",
            ),
            (
                r#"{"name": "x", "system": {"kind": "nope"}, "event": []}"#.into(),
                "unknown system kind",
            ),
            (doc(r#""scale": 1.5"#, &submit, ""), "outside (0, 1]"),
            (doc("", "", ""), "scenario has no events"),
            (
                r#"{"name": "x", "system": {"kind": "paper_sim"}}"#.into(),
                "scenario has no events",
            ),
            (
                r#"{"name": "x", "system": {"kind": "paper_sim"}, "event": {"kind": "drain"}}"#
                    .into(),
                "`event` must be an array of objects",
            ),
            (doc("", "1", ""), "`event` must be an array of objects"),
            (
                doc(r#""host": {"cpu": 1.0}"#, &submit, ""),
                "`host` must be an array of objects",
            ),
            (
                doc(r#""host": [{"count": 0, "cpu": 1.0, "bandwidth": 1.0}]"#, &submit, ""),
                "classes sum to zero hosts",
            ),
            (doc("", r#"{"kind": "warp"}"#, ""), "unknown event kind"),
            (
                doc("", &submit, r#""admits": "AXR""#),
                "may only contain A/R",
            ),
            (
                doc("", &submit, r#""zero_dropped": 1"#),
                "`zero_dropped` must be a boolean",
            ),
            (
                r#"{"name": "x", "system": {"kind": "paper_sim"}, "event": [{"kind": "drain"}], "expect": []}"#.into(),
                "`expect` must be an object",
            ),
            (
                doc("", r#"{"kind": "remove", "queries": []}"#, ""),
                "non-empty",
            ),
            (
                doc(r#""round_deadline": 0"#, &submit, ""),
                "must be at least 1",
            ),
            (
                doc("", r#"{"kind": "pump", "ticks": 0}"#, ""),
                "`ticks` >= 1",
            ),
            (
                doc(r#""round_dedline": 2"#, &submit, ""),
                "unknown key `round_dedline` in `system`",
            ),
            (
                doc("", r#"{"kind": "submit", "count": 1, "min_patch_rate": 0.9}"#, ""),
                "event #1: unknown key `min_patch_rate` in a `submit` event",
            ),
            (
                doc("", &submit, r#""min_admited": 5"#),
                "unknown key `min_admited` in `expect`",
            ),
            (
                "{\"name\": \"x\",\n\"system\": {\"kind\": \"paper_sim\",}}".into(),
                "json: line 2: expected a string key",
            ),
        ] {
            let e = ScenarioSpec::parse(&src).unwrap_err();
            assert!(e.0.contains(needle), "`{src}` -> `{}`", e.0);
        }
    }

    /// A misspelt or retired key is an error naming it, in every table,
    /// not a silently applied default (`rejects_bad_specs` has the
    /// `system`, `submit` and `expect` typos); only `why` is skipped.
    #[test]
    fn rejects_unknown_keys_naming_them() {
        for (system, event, want) in [
            (
                r#""node_quantum": 1"#,
                SUBMIT,
                "unknown key `node_quantum` in `system`",
            ),
            (
                r#""host": [{"cpu": 1.0, "bandwidth": 1.0, "cont": 2}]"#,
                SUBMIT,
                "unknown key `cont` in a `system.host` entry",
            ),
            (
                "",
                r#""kind": "drift", "profile": "burst", "factor": 2.0, "period": 8.0, "t": 1.0, "threshold": 0.2"#,
                "event #1: unknown key `period` in a `drift` event",
            ),
            (
                "",
                r#""kind": "drain", "Why": "a capitalised why is a typo""#,
                "event #1: unknown key `Why` in a `drain` event",
            ),
        ] {
            let e = decode_err(system, event);
            assert_eq!(e, want);
        }
        let top = r#"{"name": "x", "nmae": "y", "system": {"kind": "paper_sim"}, "event": [{"kind": "drain"}]}"#;
        let e = ScenarioSpec::parse(top).unwrap_err();
        assert_eq!(e.0, "unknown key `nmae` at the top level");
    }

    /// Each case with its `V` replaced by `value`, as a whole scenario.
    fn with_value((system, event): (&str, &str), value: &str) -> String {
        let event = format!("{{{}}}", event.replace('V', value));
        doc(&system.replace('V', value), &event, "")
    }

    /// JSON has no spelling for a non-finite number, and the reader turns
    /// an overflowing literal away too: each case decodes once its `V` is
    /// finite and is rejected for every non-finite spelling.
    #[test]
    fn rejects_non_finite_numbers() {
        for case in [
            (r#""host": [{"cpu": V, "bandwidth": 1.0}]"#, SUBMIT),
            (r#""host": [{"cpu": 1.0, "bandwidth": V}]"#, SUBMIT),
            (r#""zipf_theta": V"#, SUBMIT),
            (
                "",
                r#""kind": "degrade_link", "from": 0, "to": 1, "capacity": V"#,
            ),
            ("", r#""kind": "adapt", "threshold": V"#),
            (
                "",
                r#""kind": "observe", "profile": "burst", "factor": 2.0, "t": V"#,
            ),
            (
                "",
                r#""kind": "observe", "profile": "burst", "factor": 2.0, "t": 1.0, "tick": V"#,
            ),
            (
                "",
                r#""kind": "observe", "profile": "diurnal", "amplitude": V, "period": 8.0, "t": 1.0"#,
            ),
            (
                "",
                r#""kind": "observe", "profile": "diurnal", "amplitude": 0.5, "period": V, "t": 1.0"#,
            ),
            (
                "",
                r#""kind": "observe", "profile": "step", "factor": 2.0, "t": 1.0, "jitter": V"#,
            ),
        ] {
            let finite = with_value(case, "0.5");
            assert!(ScenarioSpec::parse(&finite).is_ok(), "{finite}");
            for v in ["nan", "NaN", "inf", "-inf", "infinity", "1e999", "-1e999"] {
                let src = with_value(case, v);
                assert!(ScenarioSpec::parse(&src).is_err(), "{src}");
            }
        }
    }

    #[test]
    fn rejects_negative_capacities_and_rates() {
        for (system, event, key) in [
            (
                r#""host": [{"cpu": -1.0, "bandwidth": 1.0}]"#,
                SUBMIT,
                "cpu",
            ),
            (
                r#""host": [{"cpu": 1.0, "bandwidth": -2}]"#,
                SUBMIT,
                "bandwidth",
            ),
            (r#""zipf_theta": -0.5"#, SUBMIT, "zipf_theta"),
            (
                "",
                r#""kind": "degrade_link", "from": 0, "to": 1, "capacity": -5.0"#,
                "capacity",
            ),
            (
                "",
                r#""kind": "drift", "profile": "step", "factor": -2.0, "t": 1.0, "threshold": 0.2"#,
                "factor",
            ),
            (
                "",
                r#""kind": "observe", "profile": "burst", "factor": 2.0, "t": 1.0, "jitter": -0.1"#,
                "jitter",
            ),
        ] {
            let e = decode_err(system, event);
            assert!(
                e.contains(&format!("`{key}` must be non-negative")),
                "{key}: {e}"
            );
        }
    }

    #[test]
    fn rejects_share_floors_outside_the_unit_interval() {
        for (event, expect, key) in [
            (
                r#"{"kind": "drain"}"#,
                r#""min_admit_fraction": 2"#,
                "min_admit_fraction",
            ),
            (
                r#"{"kind": "drain"}"#,
                r#""min_admit_fraction": -0.1"#,
                "min_admit_fraction",
            ),
        ] {
            let e = ScenarioSpec::parse(&doc("", event, expect)).unwrap_err().0;
            assert!(
                e.contains(&format!("`{key}` must lie in [0, 1]")),
                "{key}: {e}"
            );
        }
        let ok = doc("", r#"{"kind": "drain"}"#, r#""min_admit_fraction": 1"#);
        assert!(ScenarioSpec::parse(&ok).is_ok(), "1 is a valid floor");
    }

    /// Query ids are `u32`: a wider index is an error naming `queries`,
    /// not a cast that removes a different query.
    #[test]
    fn rejects_removal_indices_past_u32() {
        let e = decode_err("", r#""kind": "remove", "queries": [1, 4294967296]"#);
        assert!(
            e.contains("`queries` entry 4294967296 exceeds u32::MAX"),
            "{e}"
        );
        let src = doc("", r#"{"kind": "remove", "queries": [4294967295]}"#, "");
        let spec = ScenarioSpec::parse(&src).unwrap();
        assert!(matches!(&spec.events[0], Event::Remove { queries } if queries == &[u32::MAX]));
    }

    #[test]
    fn rejects_self_links() {
        for kind in [r#"degrade_link", "capacity": 1.0"#, r#"restore_link""#] {
            let e = decode_err("", &format!(r#""kind": "{kind}, "from": 2, "to": 2"#));
            assert!(e.contains("both name host 2"), "{e}");
        }
    }

    #[test]
    fn decodes_deadline_mode() {
        let src = r#"{
            "name": "dl",
            "system": {"kind": "paper_cluster", "scale": 0.2, "round_deadline": 2},
            "event": [
                {"kind": "submit", "count": 3},
                {"kind": "pump", "ticks": 4},
                {"kind": "drain"}
            ]
        }"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        assert_eq!(spec.system.round_deadline, Some(2));
        assert!(matches!(spec.events[1], Event::Pump { ticks: 4 }));
        assert!(matches!(spec.events[2], Event::Drain));
        // `pump` defaults to one tick.
        let one = src.replace(r#", "ticks": 4"#, "");
        let spec = ScenarioSpec::parse(&one).unwrap();
        assert!(matches!(spec.events[1], Event::Pump { ticks: 1 }));
    }

    #[test]
    fn event_defaults_apply() {
        let src = r#"{
            "name": "d",
            "system": {"kind": "paper_sim"},
            "event": [
                {"kind": "observe", "profile": "burst", "factor": 3.0, "t": 1.0},
                {"kind": "recover"},
                {"kind": "retry"}
            ]
        }"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        assert_eq!(spec.system.max_nodes, 200);
        assert!(spec.system.hosts.is_empty());
        match &spec.events[0] {
            Event::Observe {
                samples,
                tick,
                streams,
                drift,
                ..
            } => {
                assert_eq!(*samples, 1);
                assert_eq!(*tick, 0.25);
                assert!(streams.is_empty());
                assert_eq!(drift.jitter, 0.0);
            }
            other => panic!("{other:?}"),
        }
        match &spec.events[1] {
            Event::Recover { max_nodes } => assert_eq!(*max_nodes, 400),
            other => panic!("{other:?}"),
        }
        match &spec.events[2] {
            Event::Retry { max } => assert!(max.is_none()),
            other => panic!("{other:?}"),
        }
    }
}
