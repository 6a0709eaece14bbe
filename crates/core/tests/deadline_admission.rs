//! The deadline-bounded admission layer, end to end:
//!
//! - **Quantum transparency**: slicing every solve into `node_quantum`
//!   preemptible pieces (no deadline) must be invisible — identical
//!   admit/reject sequences, tree sizes, simplex work and deployment
//!   objective bits at every quantum. The scenario corpus's sliced twins
//!   pin the same invariant over every lifecycle script.
//! - **Anytime verdicts + the admission queue**: under a tight
//!   `round_deadline` every preempted submission is either served at the
//!   deadline (incumbent handoff) or parked and later resolved by the
//!   queue — never silently dropped — and a drained system converges to
//!   the same admit set as the deadline-free run.
//! - **Stale parked models**: a parked round resumed after another
//!   submission took its capacity still installs only through the live
//!   round's gate.
//! - **The deferred rung**: a parked proof that outlasts every bounded
//!   retry, on hosts too full for the greedy placement, is settled by one
//!   unbounded resume.
//!
//! The deadline tests run unsliced and at quantum 1: the deadline binds
//! at any quantum, and the two runs must agree record for record.

use sqpr_core::{
    AdmissionPath, AdmissionQueue, AdmissionRecord, Admitted, MilpStatus, PlannerConfig, Rejected,
    RoundVerdict, SqprPlanner,
};
use sqpr_dsps::{Catalog, CostModel, HostId, HostSpec, QueryId, StreamId};

fn system(
    n_hosts: usize,
    n_bases: usize,
    cpu: f64,
    bw: f64,
    link: f64,
) -> (Catalog, Vec<StreamId>) {
    let mut c = Catalog::uniform(n_hosts, HostSpec::new(cpu, bw), link, CostModel::default());
    let bases = (0..n_bases)
        .map(|i| c.add_base_stream(HostId((i % n_hosts) as u32), 10.0, i as u64))
        .collect();
    (c, bases)
}

/// A tight-ish workload with both admissions and rejections.
fn submissions() -> Vec<Vec<usize>> {
    vec![
        vec![0, 1],
        vec![1, 2, 3],
        vec![2, 3],
        vec![0, 2, 4],
        vec![3, 4, 5],
        vec![1, 3],
        vec![0, 4],
        vec![2, 4, 5],
        vec![1, 4],
        vec![0, 3, 5],
    ]
}

fn run_planner(node_quantum: usize) -> SqprPlanner {
    let (c, b) = system(4, 6, 45.0, 40.0, 400.0);
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 200;
    cfg.node_quantum = node_quantum;
    let mut planner = SqprPlanner::new(c, cfg);
    for q in &submissions() {
        let streams: Vec<_> = q.iter().map(|&i| b[i]).collect();
        planner.submit(&streams).expect("valid bases");
    }
    planner
}

#[test]
fn node_quantum_is_transparent() {
    let base = run_planner(0);
    assert!(
        base.outcomes().iter().any(|o| o.admitted) && base.outcomes().iter().any(|o| !o.admitted),
        "workload must exercise both decisions"
    );
    // Aggressive quanta (1 = suspend at every node boundary) must all
    // reproduce the unsliced run exactly.
    for quantum in [1usize, 3, 5, 7] {
        let p = run_planner(quantum);
        assert_eq!(base.outcomes().len(), p.outcomes().len());
        for (i, (a, b)) in base.outcomes().iter().zip(p.outcomes()).enumerate() {
            let ctx = format!("round {i}, quantum {quantum}");
            assert_eq!(a.admitted, b.admitted, "{ctx}: admit/reject diverged");
            assert_eq!(a.nodes, b.nodes, "{ctx}: tree size diverged");
            assert_eq!(
                a.lp_iterations, b.lp_iterations,
                "{ctx}: simplex work diverged"
            );
            assert_eq!(a.lp_pivots, b.lp_pivots, "{ctx}: pivot breakdown diverged");
            assert_eq!(a.verdict, b.verdict, "{ctx}: verdict diverged");
        }
        assert_eq!(
            base.deployment_objective().to_bits(),
            p.deployment_objective().to_bits(),
            "objective bits diverged at quantum {quantum}"
        );
    }
}

#[test]
fn verdicts_certify_completed_rounds() {
    let p = run_planner(0);
    for o in p.outcomes() {
        match o.verdict {
            RoundVerdict::Admitted(Admitted::Proven) => {
                assert!(o.admitted && o.status == MilpStatus::Optimal)
            }
            RoundVerdict::Admitted(Admitted::IncumbentAtDeadline) => {
                assert!(o.admitted && o.status != MilpStatus::Optimal)
            }
            RoundVerdict::Rejected(Rejected::Proven) => assert!(!o.admitted),
            RoundVerdict::Rejected(Rejected::DeadlineNoCertificate) => {
                assert!(!o.admitted && o.status != MilpStatus::Optimal)
            }
        }
    }
}

/// What a deadline run must reproduce at every quantum: the number of
/// provisional rejections at submit time, the queue's ledger and the
/// drained admit set.
type DeadlineRun = (usize, Vec<AdmissionRecord>, Vec<QueryId>);

fn admitted_set(planner: &SqprPlanner, subs: usize) -> Vec<QueryId> {
    (0..subs as u32)
        .map(QueryId)
        .filter(|q| planner.state().admitted().contains_key(q))
        .collect()
}

/// Tight deadlines: submissions preempt mid-search, park in the queue, and
/// after pumping + draining every one has a terminal verdict, the queue is
/// empty, and the admit set matches the deadline-free run.
#[test]
fn deadline_storm_drains_to_the_deadline_free_admit_set() {
    let free = run_planner(0);
    let admitted_free: Vec<QueryId> = free
        .outcomes()
        .iter()
        .filter(|o| o.admitted)
        .map(|o| o.query)
        .collect();
    let runs = [0, 1].map(|quantum| {
        let run = deadline_storm(quantum);
        // The drained system serves the same queries the deadline-free run
        // admitted (possibly at degraded placement quality — that is the
        // documented anytime trade; admission itself must converge).
        assert_eq!(
            admitted_free, run.2,
            "deadline + drain changed the admit set at quantum {quantum}"
        );
        run
    });
    assert_eq!(runs[0], runs[1], "quantum 0 and 1 disagree");
}

fn deadline_storm(quantum: usize) -> DeadlineRun {
    let (c, b) = system(4, 6, 45.0, 40.0, 400.0);
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 200;
    cfg.node_quantum = quantum;
    cfg.round_deadline = Some(2); // far below typical rejection trees
    let mut planner = SqprPlanner::new(c, cfg);
    let mut queue = AdmissionQueue::new();

    let mut provisional = 0usize;
    for q in &submissions() {
        let streams: Vec<_> = q.iter().map(|&i| b[i]).collect();
        let out = queue.submit(&mut planner, &streams).expect("valid bases");
        if out.verdict == RoundVerdict::Rejected(Rejected::DeadlineNoCertificate) {
            provisional += 1;
        }
    }
    assert!(
        provisional > 0,
        "deadline of 2 nodes preempted nothing at quantum {quantum}; the test is vacuous"
    );
    assert!(queue.parked() > 0, "no submission was parked");

    // Quiet period: pump until the retry/backoff machinery settles, then
    // drain whatever the ladder deferred.
    for _ in 0..32 {
        queue.pump(&mut planner);
    }
    queue.drain(&mut planner);
    assert_eq!(queue.parked(), 0, "drain left submissions parked");

    // Zero silent drops: every submission has exactly one terminal record.
    let subs = submissions().len();
    assert_eq!(queue.records().len(), subs);
    let mut seen: Vec<u32> = queue.records().iter().map(|r| r.query.0).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..subs as u32).collect::<Vec<_>>());
    assert!(planner.state().is_valid(planner.catalog()));
    (
        provisional,
        queue.records().to_vec(),
        admitted_set(&planner, subs),
    )
}

/// A parked round resumes against a deployment that changed under its
/// model: a deadline-free submission of the same bases takes the capacity
/// the parked query needs before the queue resumes it. The resumed install
/// must still pass the live gate — every admitted query served, the
/// deployment valid — and the ledger must hold one record per routed
/// submission, with `drain` leaving the logical tick alone.
#[test]
fn resume_against_a_changed_deployment() {
    let runs = [0, 1].map(resume_against_a_changed_deployment_at);
    assert_eq!(runs[0], runs[1], "quantum 0 and 1 disagree");
}

fn resume_against_a_changed_deployment_at(quantum: usize) -> DeadlineRun {
    // Roomier CPU, tighter bandwidth: the ninth submission parks at a
    // 2-node deadline although the deadline-free run admits it.
    let (c, b) = system(4, 6, 70.0, 30.0, 400.0);
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 200;
    cfg.node_quantum = quantum;
    cfg.round_deadline = Some(2);
    let mut planner = SqprPlanner::new(c, cfg);
    let mut queue = AdmissionQueue::new();
    let gate_holds = |p: &SqprPlanner| {
        let s = p.state();
        s.admitted().values().all(|&r| s.provider_of(r).is_some()) && s.is_valid(p.catalog())
    };

    let subs = &submissions()[..9];
    let mut bases = Vec::new();
    let mut provisional = 0usize;
    for q in subs {
        bases = q.iter().map(|&i| b[i]).collect();
        let out = queue.submit(&mut planner, &bases).expect("valid bases");
        if out.verdict == RoundVerdict::Rejected(Rejected::DeadlineNoCertificate) {
            provisional += 1;
        }
    }
    let parked = QueryId(subs.len() as u32 - 1);
    assert!(
        queue.parked_queries().contains(&parked),
        "the last submission must park; parked {:?}",
        queue.parked_queries()
    );

    planner.config_mut().round_deadline = None;
    let rival = planner.submit(&bases).expect("valid bases");
    planner.config_mut().round_deadline = Some(2);
    assert!(rival.admitted, "the rival must take the capacity");
    assert!(planner.take_preempted_round().is_none());
    assert!(gate_holds(&planner));

    // One tick resumes both parked rounds against the changed deployment
    // (neither resolves yet); the drain resolves them.
    queue.pump(&mut planner);
    assert!(gate_holds(&planner), "a pumped resume broke the gate");
    let (open, tick) = (queue.parked(), queue.tick());
    assert!(open > 0, "the drain must have rounds left to resolve");
    assert_eq!(queue.drain(&mut planner).len(), open);
    assert_eq!(queue.tick(), tick, "drain must not advance the tick");
    assert_eq!(queue.parked(), 0);
    assert!(gate_holds(&planner), "a drained resume broke the gate");
    assert_eq!(
        queue.records().len(),
        subs.len(),
        "one record per routed submission"
    );
    let mut seen: Vec<u32> = queue.records().iter().map(|r| r.query.0).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..subs.len() as u32).collect::<Vec<_>>());
    assert!(planner.state().admitted().contains_key(&rival.query));
    (
        provisional,
        queue.records().to_vec(),
        admitted_set(&planner, subs.len() + 1),
    )
}

/// The ladder's last rung. A rejection whose proof outlasts every bounded
/// retry, on hosts too full for the greedy placement, is deferred to one
/// unbounded resume, and that resume's verdict is terminal. It is proven
/// only when the proof fits the search's node budget: at CPU 30 it does,
/// at CPU 45 the budget runs dry first and the provisional rejection
/// becomes the final one. No corpus scenario reaches this rung: their
/// parked proofs finish within one retry.
#[test]
fn exhausted_retries_on_full_hosts_defer_to_a_terminal_verdict() {
    let cases = [
        (30.0, 3, Rejected::Proven),
        (45.0, 7, Rejected::DeadlineNoCertificate),
    ];
    for (cpu, rejected, verdict) in cases {
        let runs =
            [0, 1].map(|quantum| exhausted_retries_defer_at(quantum, cpu, rejected, verdict));
        assert_eq!(runs[0], runs[1], "CPU {cpu}: quantum 0 and 1 disagree");
    }
}

/// Submission `rejected`, rejected by the deadline-free pass over hosts of
/// `cpu`, re-submitted under a one-node deadline and pumped down the
/// ladder to the deferred resume, which ends it `verdict`.
fn exhausted_retries_defer_at(
    quantum: usize,
    cpu: f64,
    rejected: usize,
    verdict: Rejected,
) -> Vec<AdmissionRecord> {
    // Tight CPU: the deadline-free pass rejects part of the workload and
    // leaves no room for the greedy placement of the rejected queries.
    let (c, b) = system(4, 6, cpu, 40.0, 400.0);
    let mut cfg = PlannerConfig::new(&c);
    cfg.budget.max_nodes = 200;
    cfg.node_quantum = quantum;
    let mut planner = SqprPlanner::new(c, cfg);
    let streams = |q: &[usize]| -> Vec<StreamId> { q.iter().map(|&i| b[i]).collect() };
    let subs = submissions();
    for q in &subs {
        planner.submit(&streams(q)).expect("valid bases");
    }
    assert!(
        !planner.outcomes()[rejected].admitted,
        "submission {rejected} must be rejected at CPU {cpu}, quantum {quantum}"
    );

    // Submitted again under a one-node deadline, it parks.
    planner.config_mut().round_deadline = Some(1);
    let mut queue = AdmissionQueue::new();
    let out = queue
        .submit(&mut planner, &streams(&subs[rejected]))
        .expect("valid bases");
    assert_eq!(
        out.verdict,
        RoundVerdict::Rejected(Rejected::DeadlineNoCertificate)
    );
    assert_eq!(queue.parked_queries(), [out.query]);

    // Two bounded retries (ticks 1 and 2, one more node each) leave the
    // search open; the greedy rung finds no room, so tick 3 runs the
    // deferred unbounded resume.
    for tick in 1..=2 {
        assert!(
            queue.pump(&mut planner).is_empty(),
            "tick {tick} resolved the round at CPU {cpu}, quantum {quantum}"
        );
    }
    let resolved = queue.pump(&mut planner);
    assert_eq!(resolved.len(), 1);
    assert_eq!(queue.parked(), 0);
    // Attempts: the two retries (`MAX_RETRIES`) plus the deferred resume.
    assert_eq!(
        queue.records(),
        [AdmissionRecord {
            query: out.query,
            verdict: RoundVerdict::Rejected(verdict),
            attempts: 3,
            path: AdmissionPath::DeferredReplan,
        }],
        "CPU {cpu}, quantum {quantum}"
    );
    assert!(planner.state().is_valid(planner.catalog()));
    queue.records().to_vec()
}
