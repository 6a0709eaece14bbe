//! Deadline-bounded admission: anytime verdicts and the admission queue.
//!
//! Every planning round — a live submission, a resumed one, a storm or an
//! adaptation replan — runs the same steps in `planner.rs`: the slice
//! driver, the install gate and [`RoundVerdict`]'s rule. What differs is
//! the fallback policy over a round that did not admit; this module holds
//! the queue's (the recovery storm's is in [`crate::recovery`]).
//!
//! With [`round_deadline`](crate::PlannerConfig::round_deadline) set, a
//! submission round still open at its node deadline answers *anytime*: an
//! admitting incumbent is installed ([`Admitted::IncumbentAtDeadline`]),
//! otherwise the suspended search is parked
//! ([`Rejected::DeadlineNoCertificate`], a provisional rejection).
//!
//! The [`AdmissionQueue`] owns the parked rounds. Each [`pump`] tick
//! resumes the eligible ones **in park order** (deterministic), another
//! `round_deadline` nodes per attempt, continuing each search bit-for-bit
//! where it left off. A round still open **retries** with exponential
//! logical-tick backoff; once
//! [`admission_max_retries`](crate::PlannerConfig::admission_max_retries)
//! run dry it gets the **greedy** baseline placement
//! ([`SqprPlanner::admit_greedy`]), else it is **deferred** to one
//! unbounded resume, which produces a proven verdict. [`drain`] gives every
//! parked round that unbounded resume now. Every submission routed through
//! the queue ends with exactly one [`AdmissionRecord`] — there is no
//! silent-drop path.
//!
//! [`pump`]: AdmissionQueue::pump
//! [`drain`]: AdmissionQueue::drain

use std::collections::VecDeque;

use sqpr_dsps::{QueryId, StreamId};
use sqpr_milp::MilpStatus;

use crate::planner::{PlannerError, PlanningOutcome, PreemptedRound, ResumeOutcome, SqprPlanner};

/// How a submission came to be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// The solver proved the admitting placement optimal.
    Proven,
    /// Admitted by an anytime handoff without an optimality certificate:
    /// the best incumbent at a deadline/budget expiry, or the queue's
    /// greedy fallback.
    IncumbentAtDeadline,
}

/// How a submission came to be rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The solver proved no admitting placement exists (infeasible, or the
    /// optimum does not admit).
    Proven,
    /// The deadline/budget expired with no admitting incumbent and no
    /// proof. When issued by a deadline round this rejection is
    /// *provisional*: the suspended search is parked in the
    /// [`AdmissionQueue`] and may still resolve either way.
    DeadlineNoCertificate,
}

/// Anytime verdict of one planning round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundVerdict {
    Admitted(Admitted),
    Rejected(Rejected),
}

impl RoundVerdict {
    /// The verdict rule every solved round closes with: a proof needs a
    /// search that ran to completion (`!at_deadline`) with a terminal
    /// solver status; everything else is an anytime answer.
    pub(crate) fn of(admitted: bool, status: MilpStatus, at_deadline: bool) -> Self {
        let proven = !at_deadline
            && if admitted {
                status == MilpStatus::Optimal
            } else {
                matches!(status, MilpStatus::Optimal | MilpStatus::Infeasible)
            };
        match (admitted, proven) {
            (true, true) => RoundVerdict::Admitted(Admitted::Proven),
            (true, false) => RoundVerdict::Admitted(Admitted::IncumbentAtDeadline),
            (false, true) => RoundVerdict::Rejected(Rejected::Proven),
            (false, false) => RoundVerdict::Rejected(Rejected::DeadlineNoCertificate),
        }
    }

    pub fn is_admitted(&self) -> bool {
        matches!(self, RoundVerdict::Admitted(_))
    }

    /// Whether the verdict carries a certificate (proven admit/reject).
    pub fn is_proven(&self) -> bool {
        matches!(
            self,
            RoundVerdict::Admitted(Admitted::Proven) | RoundVerdict::Rejected(Rejected::Proven)
        )
    }
}

/// How the queue reached a submission's terminal verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPath {
    /// Resolved by the submission round itself (no parking involved).
    Direct,
    /// Resolved by resuming the parked search to completion.
    Resumed,
    /// An admitting incumbent was installed at a deadline expiry.
    IncumbentHandoff,
    /// The greedy baseline placement was installed after the retry budget
    /// ran dry.
    GreedyInstall,
    /// Resolved by the deferred (unbounded) final resume.
    DeferredReplan,
}

/// Terminal record of one submission that went through the queue. Every
/// parked round produces exactly one record once resolved; the scenario
/// corpus asserts the ledger covers every preempted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRecord {
    pub query: QueryId,
    pub verdict: RoundVerdict,
    /// Resume attempts consumed (0 for `Direct`).
    pub attempts: u32,
    pub path: AdmissionPath,
}

struct Parked {
    round: PreemptedRound,
    attempts: u32,
    /// Logical tick at which the next resume attempt may run.
    eligible_at: u64,
    /// Deferred (or draining): the next resume runs unbounded.
    deferred: bool,
}

/// Admission front-end for deadline-bounded planning: parks
/// deadline-preempted submissions (suspended search included) and resumes
/// them in deterministic order under bounded retries with logical-tick
/// backoff. See the module docs for its fallback policy.
#[derive(Default)]
pub struct AdmissionQueue {
    parked: VecDeque<Parked>,
    tick: u64,
    log: Vec<AdmissionRecord>,
}

impl AdmissionQueue {
    pub fn new() -> Self {
        AdmissionQueue::default()
    }

    /// Submissions currently parked (suspended searches awaiting resume).
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Queries currently parked, in resume order.
    pub fn parked_queries(&self) -> Vec<QueryId> {
        self.parked.iter().map(|p| p.round.query()).collect()
    }

    /// Current logical tick (advanced by [`Self::pump`]).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Terminal ledger: one record per resolved submission, in resolution
    /// order.
    pub fn records(&self) -> &[AdmissionRecord] {
        &self.log
    }

    /// Submits a query through the deadline layer: a round preempted at
    /// its node deadline without an admitting incumbent is parked here for
    /// retries; everything else resolves directly. The returned outcome is
    /// the round's — check [`PlanningOutcome::verdict`] to distinguish a
    /// provisional [`Rejected::DeadlineNoCertificate`] (parked, may still
    /// admit) from a terminal answer.
    pub fn submit(
        &mut self,
        planner: &mut SqprPlanner,
        bases: &[StreamId],
    ) -> Result<PlanningOutcome, PlannerError> {
        let outcome = planner.submit(bases)?;
        match planner.take_preempted_round() {
            Some(round) => self.parked.push_back(Parked {
                round,
                attempts: 0,
                eligible_at: self.tick + 1,
                deferred: false,
            }),
            None => self.record(&outcome, 0, AdmissionPath::Direct),
        }
        Ok(outcome)
    }

    /// One logical tick: resumes every eligible parked round in park order,
    /// each under another `round_deadline` node budget (deferred rounds run
    /// unbounded). Returns the outcomes of the rounds that resolved this
    /// tick. Rounds that stay open retry with exponential backoff until
    /// their retries run dry, then get the greedy placement or are
    /// deferred.
    pub fn pump(&mut self, planner: &mut SqprPlanner) -> Vec<PlanningOutcome> {
        self.tick += 1;
        let max_retries = planner.config().admission_max_retries;
        let backoff = planner.config().admission_backoff_base.max(1);
        let mut resolved = Vec::new();
        for _ in 0..self.parked.len() {
            let Some(p) = self.parked.pop_front() else {
                break;
            };
            if p.eligible_at > self.tick {
                self.parked.push_back(p);
                continue;
            }
            let mut p = match self.resume(planner, p) {
                Ok(outcome) => {
                    resolved.push(outcome);
                    continue;
                }
                Err(p) => p,
            };
            if p.attempts < max_retries {
                p.eligible_at = self.tick + (backoff << (p.attempts - 1).min(32) as u64);
                self.parked.push_back(p);
                continue;
            }
            let outcome = greedy(planner, &p);
            if outcome.admitted {
                self.record(&outcome, p.attempts, AdmissionPath::GreedyInstall);
                resolved.push(outcome);
            } else {
                // The next resume runs unbounded and proves a verdict.
                p.deferred = true;
                p.eligible_at = self.tick + 1;
                self.parked.push_back(p);
            }
        }
        resolved
    }

    /// Forces every parked round to a terminal verdict *now*: each gets
    /// one unbounded resume (the parked search completes, reusing all
    /// progress). After `drain` the queue is empty — the zero-silent-drops
    /// guarantee the deadline-storm scenario pins. The logical tick does
    /// not advance.
    pub fn drain(&mut self, planner: &mut SqprPlanner) -> Vec<PlanningOutcome> {
        let mut resolved = Vec::new();
        while let Some(mut p) = self.parked.pop_front() {
            p.deferred = true;
            let outcome = self.resume(planner, p).unwrap_or_else(|p| {
                // Only an armed wall deadline stops an unbounded resume:
                // record the greedy answer rather than drop the submission.
                let outcome = greedy(planner, &p);
                self.record(&outcome, p.attempts, AdmissionPath::GreedyInstall);
                outcome
            });
            resolved.push(outcome);
        }
        resolved
    }

    /// The resolve-and-record step `pump` and `drain` share: one resume
    /// attempt (unbounded once deferred), recorded in the ledger when the
    /// round resolves; a round still open is handed back.
    fn resume(
        &mut self,
        planner: &mut SqprPlanner,
        mut p: Parked,
    ) -> Result<PlanningOutcome, Parked> {
        p.attempts += 1;
        let budget = if p.deferred {
            None
        } else {
            planner.config().round_deadline
        };
        match planner.resume_parked(p.round, budget) {
            ResumeOutcome::Resolved(outcome) => {
                let path = if p.deferred {
                    AdmissionPath::DeferredReplan
                } else if outcome.verdict == RoundVerdict::Admitted(Admitted::IncumbentAtDeadline) {
                    AdmissionPath::IncumbentHandoff
                } else {
                    AdmissionPath::Resumed
                };
                self.record(&outcome, p.attempts, path);
                Ok(outcome)
            }
            ResumeOutcome::StillOpen(round) => {
                p.round = round;
                Err(p)
            }
        }
    }

    fn record(&mut self, outcome: &PlanningOutcome, attempts: u32, path: AdmissionPath) {
        self.log.push(AdmissionRecord {
            query: outcome.query,
            verdict: outcome.verdict,
            attempts,
            path,
        });
    }
}

/// The greedy rung: the baseline placement for a parked query, its
/// suspended search dropped.
fn greedy(planner: &mut SqprPlanner, p: &Parked) -> PlanningOutcome {
    let q = p.round.query();
    let verdict = if matches!(planner.admit_greedy(q), Ok(true)) {
        RoundVerdict::Admitted(Admitted::IncumbentAtDeadline)
    } else {
        RoundVerdict::Rejected(Rejected::DeadlineNoCertificate)
    };
    PlanningOutcome::unsolved(q, verdict, p.round.nodes_done())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdict rule over every (admitted, status, node deadline)
    /// combination: only a completed search with a terminal status proves.
    #[test]
    fn verdict_rule_table() {
        use MilpStatus::*;
        // (status, proven when admitted, proven when rejected), deadline off.
        let table = [
            (Optimal, true, true),
            (Feasible, false, false),
            (Infeasible, false, true),
            (Unbounded, false, false),
            (Unknown, false, false),
        ];
        for (status, admit_proven, reject_proven) in table {
            for at_deadline in [false, true] {
                let ctx = format!("{status:?}, at_deadline={at_deadline}");
                let admit = RoundVerdict::of(true, status, at_deadline);
                let want = if admit_proven && !at_deadline {
                    Admitted::Proven
                } else {
                    Admitted::IncumbentAtDeadline
                };
                assert_eq!(admit, RoundVerdict::Admitted(want), "admitted, {ctx}");
                let reject = RoundVerdict::of(false, status, at_deadline);
                let want = if reject_proven && !at_deadline {
                    Rejected::Proven
                } else {
                    Rejected::DeadlineNoCertificate
                };
                assert_eq!(reject, RoundVerdict::Rejected(want), "rejected, {ctx}");
            }
        }
    }
}
