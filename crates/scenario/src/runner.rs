//! Scenario execution: the drives and their cross-checks.
//!
//! Every scenario is executed four times from scratch:
//!
//! 1. **warm** — the canonical run. Its transcript (admit/reject
//!    decisions, placements/flow counts, node counts and objective bits)
//!    is what golden files record and its counters feed the bench JSON.
//! 2. **sliced** — two twins of the warm run with every solve sliced into
//!    suspend/resume pieces (`node_quantum` 1, suspending at every node
//!    boundary, and 7, suspending mid-tree across cut rounds). Slicing
//!    must be invisible: each twin's transcript and bench JSON equal the
//!    warm run's byte for byte, deadline scenarios included.
//! 3. **cold** — a twin with `reuse_solver_context` off. Warm and cold
//!    solve different model sequences and may land on alternate optima
//!    within the MIP gap, so the contract is weaker than byte equality:
//!    identical admit/reject sequence, identical final admitted count,
//!    and final objectives within 2% relative tolerance.
//!
//! Scenario-level expectations (`expect`) and per-event patch-rate
//! floors are checked on the canonical run only; adaptation/storm
//! accounting identities (`replanned = readmitted + dropped`, no silent
//! drops) are checked on the warm and cold drives.
//!
//! **Deadline mode** (`system.round_deadline`): submissions route
//! through the [`AdmissionQueue`] and may park mid-search, so warm and
//! cold twins — whose trees differ in size — preempt different rounds.
//! The warm/cold contract therefore relaxes to *drained admit-set
//! equality*, and one more drive with the deadline stripped pins that the
//! deadline machinery changes **when** queries are admitted, never
//! **whether**.

use std::fs;
use std::path::Path;

use sqpr_core::{
    adapt_to_observed_rates, recover_from_failures, AdaptReport, AdmissionPath, AdmissionQueue,
    Admitted, DriftMonitor, PlannerConfig, Rejected, RoundVerdict, SolveBudget, SqprPlanner,
    StormBudget,
};
use sqpr_dsps::{HostId, HostSpec, QueryId, StreamId};
use sqpr_workload::text::{read_json_file, write_json, Layout, Table, Value};
use sqpr_workload::{generate_with_hosts, Workload, WorkloadSpec};

use crate::spec::{Event, ScenarioSpec, SystemKind, SystemSpec};
use crate::verdict::{first_diff, fmt_f64_bits, Transcript};

/// Preemption quanta of the sliced twins.
const SLICED_QUANTA: [usize; 2] = [1, 7];

/// Relative tolerance for the warm-vs-cold final objective (alternate
/// optima within the MIP gap; same bound as `tests/warm_start_equivalence`).
const OBJ_TOL: f64 = 0.02;

/// A completed scenario run: the canonical transcript and bench entry.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    pub name: String,
    pub transcript: String,
    pub bench: Table,
}

/// Cumulative counters of one drive (the bench JSON's raw material).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    submitted: usize,
    admits: usize,
    rejects: usize,
    reused: usize,
    retries: usize,
    retry_admits: usize,
    adapt_rounds: usize,
    drifted_streams: usize,
    replanned: usize,
    readmitted: usize,
    adapt_dropped: usize,
    storms: usize,
    storm_replanned: usize,
    storm_degraded: usize,
    storm_dropped: usize,
    rehomed: usize,
    removed: usize,
    nodes_total: usize,
    lp_iterations: usize,
    cache_patches: usize,
    cache_rebuilds: usize,
    cache_refix_patches: usize,
    // Deadline mode (`system.round_deadline`): admission-queue traffic.
    parked: usize,
    pump_ticks: usize,
    resumed: usize,
    incumbent_handoffs: usize,
    greedy_installs: usize,
    deferred_replans: usize,
}

/// The outcome of driving one planner through the script.
struct Drive {
    transcript: Transcript,
    counters: Counters,
    /// Admit/reject per `submit`-event submission, arrival order. In
    /// deadline mode this records the *submit-time* answer (a parked
    /// submission is `false` even if it later resolves to an admit).
    admits: Vec<bool>,
    final_admitted: usize,
    /// Admitted query ids at end of script (sorted). The deadline-mode
    /// cross-drive contract compares this set — submit-time sequences
    /// legitimately differ when warm and cold trees preempt differently.
    final_admit_set: Vec<u32>,
    final_objective: f64,
    deployment_valid: bool,
    /// Expectation/invariant violations found during the drive.
    errors: Vec<String>,
}

/// The workload recipe and the host list it is generated over.
fn workload_spec(sys: &SystemSpec) -> (WorkloadSpec, Vec<HostSpec>) {
    let mut spec = match sys.kind {
        SystemKind::PaperSim => WorkloadSpec::paper_sim(sys.scale),
        SystemKind::PaperCluster => WorkloadSpec::paper_cluster(sys.scale),
    };
    if let Some(seed) = sys.seed {
        spec.seed = seed;
    }
    if let Some(q) = sys.queries {
        spec.queries = q;
    }
    if let Some(z) = sys.zipf_theta {
        spec.zipf_theta = z;
    }
    let hosts: Vec<HostSpec> = if sys.hosts.is_empty() {
        vec![HostSpec::new(spec.cpu_capacity, spec.host_bandwidth); spec.hosts]
    } else {
        sys.hosts
            .iter()
            .flat_map(|c| std::iter::repeat_n(HostSpec::new(c.cpu, c.bandwidth), c.count))
            .collect()
    };
    (spec, hosts)
}

fn build_workload(sys: &SystemSpec) -> Workload {
    let (spec, hosts) = workload_spec(sys);
    generate_with_hosts(&spec, &hosts)
}

/// Host indices the script names must exist on the generated system —
/// checked before the first event runs, since the catalog panics on (or,
/// for links, silently misreads) an index past its host list.
fn host_index_errors(spec: &ScenarioSpec) -> Vec<String> {
    let hosts = workload_spec(&spec.system).1.len();
    let mut errors = Vec::new();
    for (i, ev) in spec.events.iter().enumerate() {
        let named = match ev {
            Event::FailHosts { hosts } | Event::RestoreHosts { hosts } => hosts.clone(),
            Event::DegradeLink { from, to, .. } | Event::RestoreLink { from, to } => {
                vec![*from, *to]
            }
            _ => continue,
        };
        for h in named.into_iter().filter(|&h| h >= hosts) {
            errors.push(format!(
                "event #{}: host index {h} out of range ({hosts} hosts)",
                i + 1
            ));
        }
    }
    errors
}

/// Drives one fresh planner through the whole script, every solve sliced
/// into `node_quantum`-node pieces (0: unsliced).
fn drive(spec: &ScenarioSpec, warm: bool, node_quantum: usize) -> Drive {
    let workload = build_workload(&spec.system);
    let mut config = PlannerConfig::new(&workload.catalog);
    // Node-only budgets keep every solve a pure function of the script.
    config.budget = SolveBudget::nodes(spec.system.max_nodes);
    config.reuse_solver_context = warm;
    config.node_quantum = node_quantum;
    config.round_deadline = spec.system.round_deadline;
    let deadline_mode = spec.system.round_deadline.is_some();
    let nominal: Vec<(StreamId, f64)> = workload
        .bases
        .iter()
        .map(|&s| (s, workload.catalog.stream(s).rate))
        .collect();
    let mut planner = SqprPlanner::new(workload.catalog.clone(), config);
    let mut monitor = DriftMonitor::new(16, 1);
    let mut queue = AdmissionQueue::new();
    // Submissions routed through the queue and records already shown in
    // the transcript (the ledger also logs `Direct` entries on submit).
    let mut routed = 0usize;
    let mut logged = 0usize;
    let mut d = Drive {
        transcript: Transcript::default(),
        counters: Counters::default(),
        admits: Vec::new(),
        final_admitted: 0,
        final_admit_set: Vec::new(),
        final_objective: 0.0,
        deployment_valid: false,
        errors: Vec::new(),
    };
    d.transcript.push(format!("scenario {}", spec.name));
    d.transcript.push(format!(
        "system hosts={} bases={} queries={} budget={}",
        planner.catalog().num_hosts(),
        workload.bases.len(),
        workload.queries.len(),
        spec.system.max_nodes
    ));

    let mut cursor = 0usize;
    // Queries removed by the script: retries must not resurrect them.
    let mut removed: std::collections::BTreeSet<QueryId> = std::collections::BTreeSet::new();
    for ev in &spec.events {
        match ev {
            Event::Submit {
                count,
                min_patch_rate,
            } => {
                let mut patches = 0usize;
                let mut rebuilds = 0usize;
                for _ in 0..*count {
                    let Some(bases) = workload.queries.get(cursor) else {
                        d.errors
                            .push("script submits more queries than the workload has".into());
                        break;
                    };
                    cursor += 1;
                    let o;
                    let mut was_parked = false;
                    if deadline_mode {
                        let parked_before = queue.parked();
                        o = queue
                            .submit(&mut planner, bases)
                            .expect("generated queries are well-formed");
                        routed += 1;
                        logged = queue.records().len();
                        was_parked = queue.parked() > parked_before;
                        d.counters.parked += usize::from(was_parked);
                    } else {
                        o = planner
                            .submit(bases)
                            .expect("generated queries are well-formed");
                    }
                    d.admits.push(o.admitted);
                    d.counters.submitted += 1;
                    // A parked submission has no terminal answer yet; its
                    // admit/reject is counted when the queue resolves it.
                    if !was_parked {
                        if o.admitted {
                            d.counters.admits += 1;
                        } else {
                            d.counters.rejects += 1;
                        }
                    }
                    if o.reused_existing {
                        d.counters.reused += 1;
                    }
                    account_outcome(&mut d.counters, &o);
                    patches += o.lp_cache.patches;
                    rebuilds += o.lp_cache.rebuilds;
                    if deadline_mode {
                        d.transcript.push(format!(
                            "submit q{} {} reused={} nodes={} verdict={}{}",
                            o.query.0,
                            verdict(o.admitted),
                            o.reused_existing,
                            o.nodes,
                            fmt_verdict(o.verdict),
                            if was_parked { " parked" } else { "" }
                        ));
                    } else {
                        d.transcript.push(format!(
                            "submit q{} {} reused={} nodes={}",
                            o.query.0,
                            verdict(o.admitted),
                            o.reused_existing,
                            o.nodes
                        ));
                    }
                }
                check_patch_floor(&mut d, "submit", *min_patch_rate, patches, rebuilds, warm);
            }
            Event::Observe {
                drift,
                t,
                samples,
                tick,
                streams,
            } => {
                let selected = select_streams(&nominal, streams, &mut d.errors);
                for k in 0..*samples {
                    let tk = t + (k as f64) * tick;
                    monitor.observe_all(&drift.observed_rates(&selected, tk));
                }
                d.transcript.push(format!(
                    "observe t={t} streams={} samples={samples}",
                    selected.len()
                ));
            }
            Event::Adapt { threshold } => {
                match monitor.adapt_if_drifted(&mut planner, *threshold) {
                    None => d
                        .transcript
                        .push(format!("adapt threshold={threshold} quiet")),
                    Some(r) => {
                        account_adapt(&mut d, &r, spec.expect.zero_dropped);
                        d.transcript.push(format!(
                        "adapt threshold={threshold} drifted={} replanned={} readmitted={} dropped={}",
                        r.drifted_streams.len(),
                        r.replanned.len(),
                        r.readmitted.len(),
                        r.dropped.len()
                    ));
                    }
                }
            }
            Event::Drift {
                drift,
                t,
                threshold,
                streams,
            } => {
                let selected = select_streams(&nominal, streams, &mut d.errors);
                let observed = drift.observed_rates(&selected, *t);
                let r = adapt_to_observed_rates(&mut planner, &observed, *threshold);
                account_adapt(&mut d, &r, spec.expect.zero_dropped);
                d.transcript.push(format!(
                    "drift t={t} threshold={threshold} drifted={} replanned={} readmitted={} dropped={}",
                    r.drifted_streams.len(),
                    r.replanned.len(),
                    r.readmitted.len(),
                    r.dropped.len()
                ));
            }
            Event::FailHosts { hosts } => {
                for &h in hosts {
                    planner.fail_host(HostId(h as u32));
                }
                d.transcript.push(format!("fail hosts={hosts:?}"));
            }
            Event::RestoreHosts { hosts } => {
                for &h in hosts {
                    planner.restore_host(HostId(h as u32));
                }
                d.transcript.push(format!("restore hosts={hosts:?}"));
            }
            Event::DegradeLink { from, to, capacity } => {
                planner.degrade_link(HostId(*from as u32), HostId(*to as u32), *capacity);
                d.transcript
                    .push(format!("degrade link={from}->{to} capacity={capacity}"));
            }
            Event::RestoreLink { from, to } => {
                planner.restore_link(HostId(*from as u32), HostId(*to as u32));
                d.transcript.push(format!("restore link={from}->{to}"));
            }
            Event::Recover { max_nodes } => {
                let r = recover_from_failures(&mut planner, &StormBudget::nodes(*max_nodes));
                d.counters.storms += 1;
                d.counters.storm_replanned += r.replanned();
                d.counters.storm_degraded += r.degraded();
                d.counters.storm_dropped += r.dropped();
                d.counters.rehomed += r.rehomed.len();
                d.counters.nodes_total += r.nodes_spent;
                if r.recoveries.len() != r.replanned() + r.degraded() + r.dropped() {
                    d.errors.push(format!(
                        "storm accounting leak: {} displaced vs {}+{}+{}",
                        r.recoveries.len(),
                        r.replanned(),
                        r.degraded(),
                        r.dropped()
                    ));
                }
                if spec.expect.zero_dropped && r.dropped() > 0 {
                    d.errors
                        .push(format!("storm dropped {} queries", r.dropped()));
                }
                d.transcript.push(format!(
                    "recover displaced={} replanned={} degraded={} dropped={} rehomed={} nodes={}",
                    r.recoveries.len(),
                    r.replanned(),
                    r.degraded(),
                    r.dropped(),
                    r.rehomed.len(),
                    r.nodes_spent
                ));
            }
            Event::Remove { queries } => {
                for &q in queries {
                    let ok = planner.remove_query(QueryId(q));
                    if ok {
                        d.counters.removed += 1;
                        removed.insert(QueryId(q));
                    }
                    d.transcript.push(format!("remove q{q} ok={ok}"));
                }
            }
            Event::Retry {
                max,
                min_patch_rate,
            } => {
                let mut rejected: Vec<QueryId> = planner
                    .queries()
                    .iter()
                    .map(|s| s.id)
                    .filter(|id| {
                        !planner.state().admitted().contains_key(id) && !removed.contains(id)
                    })
                    .collect();
                rejected.sort();
                if let Some(cap) = max {
                    rejected.truncate(*cap);
                }
                let mut patches = 0usize;
                let mut rebuilds = 0usize;
                for q in rejected {
                    let o = planner
                        .replan_query(q)
                        .expect("rejected queries stay registered");
                    d.counters.retries += 1;
                    if o.admitted {
                        d.counters.retry_admits += 1;
                    }
                    account_outcome(&mut d.counters, &o);
                    patches += o.lp_cache.patches;
                    rebuilds += o.lp_cache.rebuilds;
                    d.transcript.push(format!(
                        "retry q{} {} nodes={}",
                        q.0,
                        verdict(o.admitted),
                        o.nodes
                    ));
                }
                check_patch_floor(&mut d, "retry", *min_patch_rate, patches, rebuilds, warm);
            }
            Event::Pump { ticks } => {
                for _ in 0..*ticks {
                    let resolved = queue.pump(&mut planner);
                    d.counters.pump_ticks += 1;
                    for o in &resolved {
                        if o.admitted {
                            d.counters.admits += 1;
                        } else {
                            d.counters.rejects += 1;
                        }
                        account_outcome(&mut d.counters, o);
                    }
                    d.transcript.push(format!(
                        "pump tick={} resolved={} parked={}",
                        queue.tick(),
                        resolved.len(),
                        queue.parked()
                    ));
                    logged = push_resolutions(&mut d, &queue, logged);
                }
            }
            Event::Drain => {
                let resolved = queue.drain(&mut planner);
                for o in &resolved {
                    if o.admitted {
                        d.counters.admits += 1;
                    } else {
                        d.counters.rejects += 1;
                    }
                    account_outcome(&mut d.counters, o);
                }
                d.transcript.push(format!(
                    "drain resolved={} parked={}",
                    resolved.len(),
                    queue.parked()
                ));
                logged = push_resolutions(&mut d, &queue, logged);
            }
        }
        d.transcript.push(format!(
            "  state admitted={} placements={} flows={} obj={}",
            planner.num_admitted(),
            planner.state().placements().len(),
            planner.state().flows().len(),
            fmt_f64_bits(planner.deployment_objective())
        ));
    }

    if deadline_mode {
        // Zero silent drops: nothing may stay parked past the script's end,
        // and the ledger must hold one terminal record per routed
        // submission.
        if queue.parked() > 0 {
            d.errors.push(format!(
                "{} submissions left parked — the script must pump/drain the admission queue",
                queue.parked()
            ));
        }
        if queue.records().len() != routed {
            d.errors.push(format!(
                "admission ledger covers {} of {} submissions",
                queue.records().len(),
                routed
            ));
        }
        for r in queue.records() {
            match r.path {
                AdmissionPath::Direct => {}
                AdmissionPath::Resumed => d.counters.resumed += 1,
                AdmissionPath::IncumbentHandoff => d.counters.incumbent_handoffs += 1,
                AdmissionPath::GreedyInstall => d.counters.greedy_installs += 1,
                AdmissionPath::DeferredReplan => d.counters.deferred_replans += 1,
            }
        }
    }
    d.final_admitted = planner.num_admitted();
    d.final_admit_set = planner.state().admitted().keys().map(|q| q.0).collect();
    d.final_objective = planner.deployment_objective();
    d.deployment_valid = planner.state().is_valid(planner.catalog());
    d.transcript.push(format!(
        "final admitted={}/{} objective={} valid={}",
        d.final_admitted,
        d.counters.submitted,
        fmt_f64_bits(d.final_objective),
        d.deployment_valid
    ));
    if !d.deployment_valid {
        d.errors.push("final deployment is invalid".into());
    }
    d
}

fn verdict(admitted: bool) -> &'static str {
    if admitted {
        "ADMIT"
    } else {
        "REJECT"
    }
}

fn fmt_verdict(v: RoundVerdict) -> &'static str {
    match v {
        RoundVerdict::Admitted(Admitted::Proven) => "admit-proven",
        RoundVerdict::Admitted(Admitted::IncumbentAtDeadline) => "admit-incumbent",
        RoundVerdict::Rejected(Rejected::Proven) => "reject-proven",
        RoundVerdict::Rejected(Rejected::DeadlineNoCertificate) => "no-certificate",
    }
}

fn fmt_path(p: AdmissionPath) -> &'static str {
    match p {
        AdmissionPath::Direct => "direct",
        AdmissionPath::Resumed => "resumed",
        AdmissionPath::IncumbentHandoff => "handoff",
        AdmissionPath::GreedyInstall => "greedy",
        AdmissionPath::DeferredReplan => "deferred",
    }
}

/// Appends one transcript line per admission record not yet shown (queue
/// resolutions surfaced by a `pump`/`drain`), returning the new cursor.
fn push_resolutions(d: &mut Drive, queue: &AdmissionQueue, logged: usize) -> usize {
    for r in &queue.records()[logged..] {
        d.transcript.push(format!(
            "  resolve q{} verdict={} path={} attempts={}",
            r.query.0,
            fmt_verdict(r.verdict),
            fmt_path(r.path),
            r.attempts
        ));
    }
    queue.records().len()
}

fn account_outcome(c: &mut Counters, o: &sqpr_core::PlanningOutcome) {
    c.nodes_total += o.nodes;
    c.lp_iterations += o.lp_iterations;
    c.cache_patches += o.lp_cache.patches;
    c.cache_rebuilds += o.lp_cache.rebuilds;
    c.cache_refix_patches += o.lp_cache.refix_patches;
}

fn account_adapt(d: &mut Drive, r: &AdaptReport, zero_dropped: bool) {
    d.counters.adapt_rounds += 1;
    d.counters.drifted_streams += r.drifted_streams.len();
    d.counters.replanned += r.replanned.len();
    d.counters.readmitted += r.readmitted.len();
    d.counters.adapt_dropped += r.dropped.len();
    if r.replanned.len() != r.readmitted.len() + r.dropped.len() {
        d.errors.push(format!(
            "adapt accounting leak: {} replanned vs {} readmitted + {} dropped",
            r.replanned.len(),
            r.readmitted.len(),
            r.dropped.len()
        ));
    }
    if zero_dropped && !r.dropped.is_empty() {
        d.errors
            .push(format!("adaptation dropped queries {:?}", r.dropped));
    }
}

fn select_streams(
    nominal: &[(StreamId, f64)],
    indices: &[usize],
    errors: &mut Vec<String>,
) -> Vec<(StreamId, f64)> {
    if indices.is_empty() {
        return nominal.to_vec();
    }
    let mut out = Vec::with_capacity(indices.len());
    for &i in indices {
        match nominal.get(i) {
            Some(&pair) => out.push(pair),
            None => errors.push(format!(
                "stream index {i} out of range ({} bases)",
                nominal.len()
            )),
        }
    }
    out
}

/// Per-event compressed-LP patch-rate floor (canonical warm drive only —
/// the cold twin has no cache by construction).
fn check_patch_floor(
    d: &mut Drive,
    what: &str,
    floor: Option<f64>,
    patches: usize,
    rebuilds: usize,
    warm: bool,
) {
    let Some(floor) = floor else {
        return;
    };
    if !warm {
        return;
    }
    let total = patches + rebuilds;
    if total == 0 {
        // All rounds short-circuited: no cache activity to floor.
        return;
    }
    let rate = patches as f64 / total as f64;
    if rate < floor {
        d.errors.push(format!(
            "{what} event patch rate {rate:.3} below floor {floor:.3} ({patches} patches / {rebuilds} rebuilds)"
        ));
    }
}

/// Executes the drives for one scenario and applies every
/// cross-check and expectation. Returns the canonical run on success, the
/// full list of violations otherwise.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioRun, Vec<String>> {
    let bad_hosts = host_index_errors(spec);
    if !bad_hosts.is_empty() {
        return Err(bad_hosts);
    }
    // The sliced twins run on their own threads beside the warm and cold
    // drives: every drive owns its planner, so they share nothing.
    let (warm, sliced, cold) = std::thread::scope(|s| {
        let sliced = SLICED_QUANTA.map(|q| s.spawn(move || drive(spec, true, q)));
        let warm = drive(spec, true, 0);
        let cold = drive(spec, false, 0);
        let sliced = sliced.map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        (warm, sliced, cold)
    });
    let transcript = warm.transcript.render();
    let bench = bench_entry(spec, &warm);
    let bench_json = write_json(&bench, Layout::Pretty);
    let mut errors = warm.errors.clone();
    for (quantum, twin) in SLICED_QUANTA.into_iter().zip(&sliced) {
        let twin_json = write_json(&bench_entry(spec, twin), Layout::Pretty);
        let diff = first_diff(&transcript, &twin.transcript.render())
            .or_else(|| (twin_json != bench_json).then(|| "bench JSON".into()));
        if let Some(diff) = diff {
            errors.push(format!(
                "sliced twin (quantum {quantum}) differs from the warm run: {diff}"
            ));
        }
    }
    let deadline_mode = spec.system.round_deadline.is_some();

    if deadline_mode {
        // Warm and cold trees differ in size, so deadlines preempt
        // different rounds and submit-time sequences legitimately diverge;
        // anytime handoffs may also install alternate placements, putting
        // the objective outside the usual tolerance. The deadline contract
        // is about *admission*: once drained, both twins must serve the
        // same query set.
        if warm.final_admit_set != cold.final_admit_set {
            errors.push(format!(
                "warm/cold drained admit sets differ: {:?} vs {:?}",
                warm.final_admit_set, cold.final_admit_set
            ));
        }
        // And the whole deadline machinery must not change who gets in: a
        // deadline-free twin of the same script reaches the same set.
        let mut free_spec = spec.clone();
        free_spec.system.round_deadline = None;
        let free = drive(&free_spec, true, 0);
        if free.final_admit_set != warm.final_admit_set {
            errors.push(format!(
                "drained admit set {:?} differs from the deadline-free run's {:?}",
                warm.final_admit_set, free.final_admit_set
            ));
        }
    } else {
        // Warm vs cold: same decisions, objective within tolerance.
        if warm.admits != cold.admits {
            errors.push(format!(
                "warm/cold admit sequences differ: warm={} cold={}",
                admit_string(&warm.admits),
                admit_string(&cold.admits)
            ));
        }
        if warm.final_admitted != cold.final_admitted {
            errors.push(format!(
                "warm/cold final admitted differ: {} vs {}",
                warm.final_admitted, cold.final_admitted
            ));
        }
        let denom = warm.final_objective.abs().max(1e-9);
        let rel = (warm.final_objective - cold.final_objective).abs() / denom;
        if rel > OBJ_TOL {
            errors.push(format!(
                "warm/cold objectives differ by {:.4} (> {OBJ_TOL}): {} vs {}",
                rel, warm.final_objective, cold.final_objective
            ));
        }
    }
    for e in &cold.errors {
        errors.push(format!("cold twin: {e}"));
    }

    // Scenario expectations, on the canonical drive.
    let exp = &spec.expect;
    if let Some(want) = &exp.admits {
        let got = admit_string(&warm.admits);
        if &got != want {
            errors.push(format!("admit sequence {got} != expected {want}"));
        }
    }
    if let Some(min) = exp.min_admitted {
        if warm.final_admitted < min {
            errors.push(format!(
                "final admitted {} below floor {min}",
                warm.final_admitted
            ));
        }
    }
    if let Some(min) = exp.min_replanned {
        if warm.counters.replanned < min {
            errors.push(format!(
                "adaptation replanned {} queries, floor is {min}",
                warm.counters.replanned
            ));
        }
    }
    if let Some(min) = exp.min_admit_fraction {
        let frac = if warm.counters.submitted == 0 {
            1.0
        } else {
            warm.final_admitted as f64 / warm.counters.submitted as f64
        };
        if frac < min {
            errors.push(format!("admit fraction {frac:.3} below floor {min:.3}"));
        }
    }

    if !errors.is_empty() {
        return Err(errors);
    }
    Ok(ScenarioRun {
        name: spec.name.clone(),
        transcript,
        bench,
    })
}

fn admit_string(admits: &[bool]) -> String {
    admits.iter().map(|&a| if a { 'A' } else { 'R' }).collect()
}

fn bench_entry(spec: &ScenarioSpec, d: &Drive) -> Table {
    let c = &d.counters;
    let cache_total = c.cache_patches + c.cache_rebuilds;
    let patch_rate = if cache_total == 0 {
        0.0
    } else {
        c.cache_patches as f64 / cache_total as f64
    };
    Table::new()
        .with("bench", Value::Str(format!("scenario_{}", spec.name)))
        .with("scenario", Value::Str(spec.name.clone()))
        .with("submitted", c.submitted)
        .with("admits", c.admits)
        .with("rejects", c.rejects)
        .with("reused_existing", c.reused)
        .with("retries", c.retries)
        .with("retry_admits", c.retry_admits)
        .with("adapt_rounds", c.adapt_rounds)
        .with("drifted_streams", c.drifted_streams)
        .with("replanned", c.replanned)
        .with("readmitted", c.readmitted)
        .with("adapt_dropped", c.adapt_dropped)
        .with("storms", c.storms)
        .with("storm_replanned", c.storm_replanned)
        .with("storm_degraded", c.storm_degraded)
        .with("storm_dropped", c.storm_dropped)
        .with("rehomed", c.rehomed)
        .with("removed", c.removed)
        .with("parked", c.parked)
        .with("pump_ticks", c.pump_ticks)
        .with("resumed", c.resumed)
        .with("incumbent_handoffs", c.incumbent_handoffs)
        .with("greedy_installs", c.greedy_installs)
        .with("deferred_replans", c.deferred_replans)
        .with("final_admitted", d.final_admitted)
        .with("final_objective", Value::Float(d.final_objective))
        .with("deployment_valid", Value::Bool(d.deployment_valid))
        .with("nodes_total", c.nodes_total)
        .with("lp_iterations", c.lp_iterations)
        .with("cache_patches", c.cache_patches)
        .with("cache_rebuilds", c.cache_rebuilds)
        .with("cache_refix_patches", c.cache_refix_patches)
        .with("cache_patch_rate", Value::Float(patch_rate))
        .with("warm_cold_agreement", Value::Bool(true))
}

/// Runs one scenario *file* end to end against its golden transcript and
/// its entry in the committed combined bench file (`BENCH_scenarios.json`,
/// keyed by scenario name).
///
/// - The candidate transcript is always written to
///   `out_dir/<name>.txt` (CI uploads this directory as the diff
///   artifact on failure).
/// - With `SQPR_BLESS=1` the golden transcript and the scenario's bench
///   entry are (re)written instead of compared; other entries are kept.
pub fn check_scenario_file(
    path: &Path,
    golden_dir: &Path,
    bench_file: &Path,
    out_dir: &Path,
) -> Result<String, Vec<String>> {
    let src = fs::read_to_string(path)
        .map_err(|e| vec![format!("{}: read failed: {e}", path.display())])?;
    let spec = ScenarioSpec::parse(&src).map_err(|e| vec![format!("{}: {e}", path.display())])?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if spec.name != stem {
        return Err(vec![format!(
            "{}: scenario name `{}` must match the file stem `{stem}`",
            path.display(),
            spec.name
        )]);
    }
    let run = run_scenario(&spec).map_err(|errs| {
        errs.into_iter()
            .map(|e| format!("{}: {e}", spec.name))
            .collect::<Vec<_>>()
    })?;

    let _ = fs::create_dir_all(out_dir);
    let candidate = out_dir.join(format!("{}.txt", run.name));
    let _ = fs::write(&candidate, &run.transcript);

    #[expect(
        clippy::disallowed_methods,
        reason = "SQPR_BLESS is the operator's explicit golden-regeneration switch; it gates which files are written, never what the planner computes"
    )]
    let bless = std::env::var("SQPR_BLESS").is_ok_and(|v| v == "1");
    let golden_path = golden_dir.join(format!("{}.txt", run.name));
    let mut entries = read_json_file(bench_file)
        .map_err(|e| vec![format!("{}: {e}", run.name)])?
        .unwrap_or_default();
    let bench_json = write_json(&run.bench, Layout::Pretty);
    let mut errors = Vec::new();
    if bless {
        let _ = fs::create_dir_all(golden_dir);
        fs::write(&golden_path, &run.transcript)
            .map_err(|e| vec![format!("{}: bless write failed: {e}", run.name)])?;
        entries.insert(&run.name, Value::Table(run.bench));
        entries.sort_keys();
        fs::write(bench_file, write_json(&entries, Layout::Pretty))
            .map_err(|e| vec![format!("{}: bench write failed: {e}", run.name)])?;
    } else {
        match fs::read_to_string(&golden_path) {
            Err(_) => errors.push(format!(
                "{}: golden transcript {} missing (run with SQPR_BLESS=1 to create)",
                run.name,
                golden_path.display()
            )),
            Ok(golden) => {
                if let Some(diff) = first_diff(&golden, &run.transcript) {
                    errors.push(format!(
                        "{}: transcript drifted from golden (candidate at {}) — {diff}",
                        run.name,
                        candidate.display()
                    ));
                }
            }
        }
        match entries.get(&run.name) {
            None => errors.push(format!(
                "{}: no entry in committed bench file {} (run with SQPR_BLESS=1 to create)",
                run.name,
                bench_file.display()
            )),
            Some(committed) => {
                let committed = committed.as_table().map(|t| write_json(t, Layout::Pretty));
                if committed.as_ref() != Some(&bench_json) {
                    errors.push(format!(
                        "{}: bench JSON drifted from its entry in committed {}",
                        run.name,
                        bench_file.display()
                    ));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(run.name)
    } else {
        Err(errors)
    }
}

/// Lists the corpus scenario files (`*.json`, sorted by name).
pub fn discover(dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut files: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny but complete scenario exercising submit, drift, failure and
    /// retry against the §V-B cluster preset. Kept deliberately small so
    /// its drives stay fast as a unit test.
    const SMOKE: &str = r#"{
        "name": "smoke",
        "system": {"kind": "paper_cluster", "scale": 0.2, "queries": 6, "max_nodes": 60},
        "event": [
            {"kind": "submit", "count": 4},
            {"kind": "drift", "profile": "step", "factor": 1.6, "t": 1.0, "threshold": 0.3},
            {"kind": "fail_hosts", "hosts": [1]},
            {"kind": "recover", "max_nodes": 120},
            {"kind": "restore_hosts", "hosts": [1]},
            {"kind": "submit", "count": 2},
            {"kind": "retry"}
        ],
        "expect": {"min_admitted": 3}
    }"#;

    #[test]
    fn three_way_drive_agrees_on_a_smoke_scenario() {
        let spec = ScenarioSpec::parse(SMOKE).unwrap();
        let run = run_scenario(&spec).unwrap_or_else(|e| panic!("{}", e.join("\n")));
        assert!(run.transcript.starts_with("scenario smoke\n"));
        assert!(run.transcript.contains("recover displaced="));
        assert!(run.transcript.ends_with("\n"));
        let bench_json = write_json(&run.bench, Layout::Pretty);
        assert!(bench_json.contains("\"bench\": \"scenario_smoke\""));
        assert!(bench_json.contains("\"storms\": 1"));
    }

    #[test]
    fn drives_are_reproducible() {
        let spec = ScenarioSpec::parse(SMOKE).unwrap();
        let a = drive(&spec, true, 0);
        let b = drive(&spec, true, 0);
        assert_eq!(a.transcript.render(), b.transcript.render());
        assert_eq!(a.final_objective.to_bits(), b.final_objective.to_bits());
    }

    #[test]
    fn expectation_failures_are_reported_not_panicked() {
        let mut spec = ScenarioSpec::parse(SMOKE).unwrap();
        spec.expect.min_admitted = Some(1000);
        spec.expect.admits = Some("R".repeat(6));
        let errs = run_scenario(&spec).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("below floor 1000")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("admit sequence")),
            "{errs:?}"
        );
    }

    #[test]
    fn out_of_range_host_indices_are_errors_not_panics() {
        let src = r#"{
            "name": "hosts",
            "system": {
                "kind": "paper_cluster",
                "scale": 0.2,
                "queries": 2,
                "host": [{"count": 4, "cpu": 1.0, "bandwidth": 10.0}]
            },
            "event": [
                {"kind": "fail_hosts", "hosts": [1, 99]},
                {"kind": "degrade_link", "from": 0, "to": 5, "capacity": 1.0},
                {"kind": "restore_link", "from": 3, "to": 0}
            ]
        }"#;
        let errs = run_scenario(&ScenarioSpec::parse(src).unwrap()).unwrap_err();
        assert_eq!(
            errs,
            [
                "event #1: host index 99 out of range (4 hosts)",
                "event #2: host index 5 out of range (4 hosts)",
            ]
        );
    }

    #[test]
    fn transcripts_embed_objective_bits() {
        let spec = ScenarioSpec::parse(SMOKE).unwrap();
        let d = drive(&spec, true, 0);
        let final_line = d.transcript.lines().last().unwrap().clone();
        let bits = final_line
            .split("objective=")
            .nth(1)
            .and_then(|s| s.split('/').nth(1))
            .and_then(|s| s.split(' ').next())
            .unwrap();
        assert_eq!(
            u64::from_str_radix(bits, 16).unwrap(),
            d.final_objective.to_bits()
        );
    }
}
