//! Typed scenario specifications, decoded from the TOML-subset tree.
//!
//! A scenario file has three sections:
//!
//! - `[system]` — which generated system/workload to build (the paper's
//!   §V-A simulation or §V-B cluster presets, scaled, optionally with an
//!   explicit heterogeneous `[[system.host]]` list) and the deterministic
//!   node budget every solve runs under;
//! - `[[event]]` — the timed script: query arrivals, observed-rate drift
//!   (through the metrics feedback loop or directly into §IV-B
//!   adaptation), host/link failures and restores, recovery storms, query
//!   removals and admission retries;
//! - `[expect]` — scenario-level expectations checked on the canonical
//!   run, over and above the golden transcript diff.

use std::collections::BTreeSet;
use std::fmt;

use sqpr_workload::{DriftSpec, RateProfile};

use crate::toml::{self, Value};

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

/// The `[system]` section.
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
    /// Submit the next `count` workload queries one at a time. An optional
    /// `min_patch_rate` floors the compressed-LP cache patch rate
    /// aggregated over this event's solver rounds.
    Submit {
        count: usize,
        min_patch_rate: Option<f64>,
    },
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
    Retry {
        max: Option<usize>,
        min_patch_rate: Option<f64>,
    },
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

/// The `[expect]` section.
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
    /// Decodes a scenario from TOML-subset source.
    pub fn parse(src: &str) -> Result<ScenarioSpec, SpecError> {
        let tree = toml::parse(src).map_err(|e| bad(format!("toml: {e}")))?;
        let mut root = Fields::new(&tree);
        let name = req_str(&mut root, "name")?;
        let system = parse_system(
            root.get("system")
                .and_then(Value::as_table)
                .ok_or_else(|| bad("missing [system] table"))?,
        )?;
        let mut events = Vec::new();
        for (i, ev) in root
            .get("event")
            .and_then(Value::as_table_arr)
            .ok_or_else(|| bad("missing [[event]] list"))?
            .iter()
            .enumerate()
        {
            events.push(parse_event(ev).map_err(|e| bad(format!("event #{}: {}", i + 1, e.0)))?);
        }
        if events.is_empty() {
            return Err(bad("scenario has no events"));
        }
        let expect = match root.get("expect") {
            None => Expectations::default(),
            Some(v) => parse_expect(
                v.as_table()
                    .ok_or_else(|| bad("[expect] must be a table"))?,
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

type Table = std::collections::BTreeMap<String, Value>;

/// One table under decode, tracking the keys the decoder has not read:
/// [`Fields::done`] rejects any left over, so a misspelt key fails the
/// decode instead of silently falling back to a default.
struct Fields<'a> {
    table: &'a Table,
    unread: BTreeSet<&'a str>,
}

impl<'a> Fields<'a> {
    fn new(table: &'a Table) -> Self {
        Fields {
            table,
            unread: table.keys().map(String::as_str).collect(),
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

/// Every number a scenario carries must be finite: `nan` and `inf` parse
/// as floats but mean nothing as a capacity, rate or time.
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

/// A share in `[0, 1]` (patch-rate and admit-fraction floors).
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
    if let Some(list) = t.get("host") {
        for h in list
            .as_table_arr()
            .ok_or_else(|| bad("[[system.host]] must be an array of tables"))?
        {
            let h = &mut Fields::new(h);
            hosts.push(HostClass {
                count: usize_or(h, "count", 1)?,
                cpu: req_non_negative(h, "cpu")?,
                bandwidth: req_non_negative(h, "bandwidth")?,
            });
            h.done("in [[system.host]]")?;
        }
        if hosts.iter().map(|h| h.count).sum::<usize>() == 0 {
            return Err(bad("[[system.host]] classes sum to zero hosts"));
        }
    }
    let round_deadline = opt_usize(t, "round_deadline")?;
    if round_deadline == Some(0) {
        return Err(bad("`round_deadline` must be at least 1"));
    }
    let system = SystemSpec {
        kind,
        scale,
        seed: t
            .get("seed")
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| bad("`seed` must be a non-negative integer"))
            })
            .transpose()?,
        queries: opt_usize(t, "queries")?,
        zipf_theta: opt_f64(t, "zipf_theta")?
            .map(|z| non_negative("zipf_theta", z))
            .transpose()?,
        max_nodes: usize_or(t, "max_nodes", 200)?,
        round_deadline,
        hosts,
    };
    t.done("in [system]")?;
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
        seed: t
            .get("seed")
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| bad("`seed` must be a non-negative integer"))
            })
            .transpose()?
            .unwrap_or(0),
    })
}

fn parse_event(table: &Table) -> Result<Event, SpecError> {
    let t = &mut Fields::new(table);
    let kind = req_str(t, "kind")?;
    let event = match kind.as_str() {
        "submit" => Event::Submit {
            count: req_usize(t, "count")?,
            min_patch_rate: opt_fraction(t, "min_patch_rate")?,
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
                queries: queries.into_iter().map(|q| q as u32).collect(),
            }
        }
        "retry" => Event::Retry {
            max: opt_usize(t, "max")?,
            min_patch_rate: opt_fraction(t, "min_patch_rate")?,
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
    t.done("in [expect]")?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        name = "sample"

        [system]
        kind = "paper_cluster"
        scale = 0.2
        seed = 9
        queries = 12
        max_nodes = 150

        [[system.host]]
        count = 2
        cpu = 1.2
        bandwidth = 20.0

        [[system.host]]
        count = 3
        cpu = 0.3
        bandwidth = 5.0

        [[event]]
        kind = "submit"
        count = 6

        [[event]]
        kind = "observe"
        profile = "diurnal"
        amplitude = 0.8
        period = 8.0
        t = 2.0
        samples = 3
        streams = [0, 1, 4]

        [[event]]
        kind = "adapt"
        threshold = 0.25

        [[event]]
        kind = "fail_hosts"
        hosts = [1]

        [[event]]
        kind = "recover"
        max_nodes = 300

        [[event]]
        kind = "restore_hosts"
        hosts = [1]

        [[event]]
        kind = "retry"

        [expect]
        admits = "AARARA"
        min_admitted = 4
        min_replanned = 1
    "#;

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

    #[test]
    fn rejects_bad_specs() {
        for (src, needle) in [
            ("[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"submit\"\ncount = 1", "missing string `name`"),
            ("name = \"x\"\n[[event]]\nkind = \"submit\"\ncount = 1", "missing [system]"),
            ("name = \"x\"\n[system]\nkind = \"nope\"\n[[event]]\nkind = \"submit\"\ncount = 1", "unknown system kind"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\nscale = 1.5\n[[event]]\nkind = \"submit\"\ncount = 1", "outside (0, 1]"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"", "missing [[event]]"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"warp\"", "unknown event kind"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"submit\"\ncount = 1\n[expect]\nadmits = \"AXR\"", "may only contain A/R"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"remove\"\nqueries = []", "non-empty"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\nround_deadline = 0\n[[event]]\nkind = \"submit\"\ncount = 1", "must be at least 1"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"pump\"\nticks = 0", "`ticks` >= 1"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\nround_dedline = 2\n[[event]]\nkind = \"submit\"\ncount = 1", "unknown key `round_dedline` in [system]"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"submit\"\ncount = 1\nmin_patch_rat = 0.9", "event #1: unknown key `min_patch_rat` in a `submit` event"),
            ("name = \"x\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"submit\"\ncount = 1\n[expect]\nmin_admited = 5", "unknown key `min_admited` in [expect]"),
        ] {
            let e = ScenarioSpec::parse(src).unwrap_err();
            assert!(e.0.contains(needle), "`{src}` -> `{}`", e.0);
        }
    }

    /// Decodes `[system]` extras plus one event body; returns the error.
    fn decode_err(system: &str, event: &str) -> String {
        let src =
            format!("name = \"x\"\n[system]\nkind = \"paper_sim\"\n{system}\n[[event]]\n{event}");
        match ScenarioSpec::parse(&src) {
            Ok(_) => panic!("`{src}` decoded"),
            Err(e) => e.0,
        }
    }

    const SUBMIT: &str = "kind = \"submit\"\ncount = 1";

    /// A misspelt or retired key is an error naming it, in every table,
    /// not a silently applied default (`rejects_bad_specs` has the
    /// `[system]`, `submit` and `[expect]` typos).
    #[test]
    fn rejects_unknown_keys_naming_them() {
        for (system, event, want) in [
            ("node_quantum = 1", SUBMIT, "unknown key `node_quantum` in [system]"),
            (
                "[[system.host]]\ncpu = 1.0\nbandwidth = 1.0\ncont = 2",
                SUBMIT,
                "unknown key `cont` in [[system.host]]",
            ),
            (
                "",
                "kind = \"drift\"\nprofile = \"burst\"\nfactor = 2.0\nperiod = 8.0\nt = 1.0\nthreshold = 0.2",
                "event #1: unknown key `period` in a `drift` event",
            ),
        ] {
            let e = decode_err(system, event);
            assert_eq!(e, want);
        }
        let top = "name = \"x\"\nnmae = \"y\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"drain\"";
        let e = ScenarioSpec::parse(top).unwrap_err();
        assert_eq!(e.0, "unknown key `nmae` at the top level");
    }

    #[test]
    fn rejects_non_finite_numbers_naming_the_key() {
        for (system, event, key) in [
            ("[[system.host]]\ncpu = nan\nbandwidth = 1.0", SUBMIT, "cpu"),
            (
                "[[system.host]]\ncpu = 1.0\nbandwidth = inf",
                SUBMIT,
                "bandwidth",
            ),
            ("zipf_theta = nan", SUBMIT, "zipf_theta"),
            (
                "",
                "kind = \"degrade_link\"\nfrom = 0\nto = 1\ncapacity = -inf",
                "capacity",
            ),
            ("", "kind = \"adapt\"\nthreshold = nan", "threshold"),
            (
                "",
                "kind = \"observe\"\nprofile = \"burst\"\nfactor = 2.0\nt = nan",
                "t",
            ),
            (
                "",
                "kind = \"observe\"\nprofile = \"burst\"\nfactor = 2.0\nt = 1.0\ntick = 1e999",
                "tick",
            ),
            (
                "",
                "kind = \"observe\"\nprofile = \"diurnal\"\namplitude = inf\nperiod = 8.0\nt = 1.0",
                "amplitude",
            ),
            (
                "",
                "kind = \"observe\"\nprofile = \"diurnal\"\namplitude = 0.5\nperiod = nan\nt = 1.0",
                "period",
            ),
            (
                "",
                "kind = \"observe\"\nprofile = \"step\"\nfactor = 2.0\nt = 1.0\njitter = nan",
                "jitter",
            ),
            (
                "",
                "kind = \"submit\"\ncount = 1\nmin_patch_rate = nan",
                "min_patch_rate",
            ),
        ] {
            let e = decode_err(system, event);
            assert!(
                e.contains(&format!("`{key}` must be a finite number")),
                "{key}: {e}"
            );
        }
    }

    #[test]
    fn rejects_negative_capacities_and_rates() {
        for (system, event, key) in [
            (
                "[[system.host]]\ncpu = -1.0\nbandwidth = 1.0",
                SUBMIT,
                "cpu",
            ),
            (
                "[[system.host]]\ncpu = 1.0\nbandwidth = -2",
                SUBMIT,
                "bandwidth",
            ),
            ("zipf_theta = -0.5", SUBMIT, "zipf_theta"),
            (
                "",
                "kind = \"degrade_link\"\nfrom = 0\nto = 1\ncapacity = -5.0",
                "capacity",
            ),
            (
                "",
                "kind = \"drift\"\nprofile = \"step\"\nfactor = -2.0\nt = 1.0\nthreshold = 0.2",
                "factor",
            ),
            (
                "",
                "kind = \"observe\"\nprofile = \"burst\"\nfactor = 2.0\nt = 1.0\njitter = -0.1",
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
        for (event, key) in [
            (
                "kind = \"submit\"\ncount = 1\nmin_patch_rate = 1.5",
                "min_patch_rate",
            ),
            ("kind = \"retry\"\nmin_patch_rate = -0.1", "min_patch_rate"),
            (
                "kind = \"submit\"\ncount = 1\n[expect]\nmin_admit_fraction = 2",
                "min_admit_fraction",
            ),
        ] {
            let e = decode_err("", event);
            assert!(
                e.contains(&format!("`{key}` must lie in [0, 1]")),
                "{key}: {e}"
            );
        }
        let ok = "name = \"x\"\n[system]\nkind = \"paper_sim\"\n[[event]]\nkind = \"retry\"\nmin_patch_rate = 1";
        assert!(ScenarioSpec::parse(ok).is_ok(), "1 is a valid floor");
    }

    #[test]
    fn rejects_self_links() {
        for kind in ["degrade_link\"\ncapacity = 1.0", "restore_link\""] {
            let e = decode_err("", &format!("kind = \"{kind}\nfrom = 2\nto = 2"));
            assert!(e.contains("both name host 2"), "{e}");
        }
    }

    #[test]
    fn decodes_deadline_mode() {
        let src = r#"
            name = "dl"
            [system]
            kind = "paper_cluster"
            scale = 0.2
            round_deadline = 2
            [[event]]
            kind = "submit"
            count = 3
            [[event]]
            kind = "pump"
            ticks = 4
            [[event]]
            kind = "drain"
        "#;
        let spec = ScenarioSpec::parse(src).unwrap();
        assert_eq!(spec.system.round_deadline, Some(2));
        assert!(matches!(spec.events[1], Event::Pump { ticks: 4 }));
        assert!(matches!(spec.events[2], Event::Drain));
        // `pump` defaults to one tick.
        let one = src.replace("ticks = 4", "");
        let spec = ScenarioSpec::parse(&one).unwrap();
        assert!(matches!(spec.events[1], Event::Pump { ticks: 1 }));
    }

    #[test]
    fn event_defaults_apply() {
        let src = r#"
            name = "d"
            [system]
            kind = "paper_sim"
            [[event]]
            kind = "observe"
            profile = "burst"
            factor = 3.0
            t = 1.0
            [[event]]
            kind = "recover"
            [[event]]
            kind = "retry"
        "#;
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
            Event::Retry {
                max,
                min_patch_rate,
            } => {
                assert!(max.is_none() && min_patch_rate.is_none());
            }
            other => panic!("{other:?}"),
        }
    }
}
