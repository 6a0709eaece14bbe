//! Rate and CPU cost model (paper §II-B).
//!
//! The paper assumes "a simple cost model where the required processing
//! resources for operators and the output stream network consumptions are
//! linear functions of the rates of input streams", and the evaluation uses
//! joins with selectivities in 0.1%–0.5%.
//!
//! To make k-way join results *order independent* (so that every join tree
//! over the same base set produces the same stream, enabling the semantic
//! reuse of §II-C), each unordered pair of base streams `{a, b}` carries a
//! pairwise selectivity `σ_ab`, and
//!
//! ```text
//! rate(join over base set U) = Π_{a∈U} rate(a) · Π_{{a,b}⊆U} σ_ab
//! ```
//!
//! which depends only on `U`, never on the tree shape. Operator CPU cost is
//! `cpu_per_rate · (sum of input rates)`.

use crate::ids::StreamId;
use std::collections::{BTreeMap, BTreeSet};

/// Cost model parameters and the pairwise selectivity table.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// CPU units consumed per unit of total input rate (joins).
    pub cpu_per_rate_join: f64,
    /// Memory units of window state per unit of total input rate (joins
    /// buffer a moving window over each input; paper §VII lists memory as
    /// a planned resource extension).
    pub memory_per_rate_join: f64,
    /// Selectivity used when a pair has no explicit entry.
    pub default_selectivity: f64,
    selectivities: BTreeMap<(StreamId, StreamId), f64>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_per_rate_join: 1.0,
            memory_per_rate_join: 0.5,
            default_selectivity: 0.003, // middle of the paper's 0.1%–0.5%
            selectivities: BTreeMap::new(),
        }
    }
}

impl CostModel {
    pub fn new(cpu_per_rate_join: f64, default_sel: f64) -> Self {
        CostModel {
            cpu_per_rate_join,
            memory_per_rate_join: 0.5,
            default_selectivity: default_sel,
            selectivities: BTreeMap::new(),
        }
    }

    fn key(a: StreamId, b: StreamId) -> (StreamId, StreamId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sets the selectivity for an unordered base-stream pair.
    pub fn set_selectivity(&mut self, a: StreamId, b: StreamId, sigma: f64) {
        assert!(sigma > 0.0, "selectivity must be positive");
        self.selectivities.insert(Self::key(a, b), sigma);
    }

    /// Selectivity of an unordered base-stream pair.
    pub fn selectivity(&self, a: StreamId, b: StreamId) -> f64 {
        self.selectivities
            .get(&Self::key(a, b))
            .copied()
            .unwrap_or(self.default_selectivity)
    }

    /// Rate of the join result over a base set, given per-base rates.
    ///
    /// Order independent: depends only on the set `bases`.
    pub fn join_rate(
        &self,
        bases: &BTreeSet<StreamId>,
        base_rate: impl Fn(StreamId) -> f64,
    ) -> f64 {
        let mut rate = 1.0;
        for &b in bases {
            rate *= base_rate(b);
        }
        let v: Vec<StreamId> = bases.iter().copied().collect();
        for i in 0..v.len() {
            for j in i + 1..v.len() {
                rate *= self.selectivity(v[i], v[j]);
            }
        }
        rate
    }

    /// CPU cost `γ_o` of a join operator with the given input rates.
    pub fn join_cpu(&self, input_rates: &[f64]) -> f64 {
        self.cpu_per_rate_join * input_rates.iter().sum::<f64>()
    }

    /// Memory cost (window state) of a join over the given input rates.
    pub fn join_memory(&self, input_rates: &[f64]) -> f64 {
        self.memory_per_rate_join * input_rates.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> BTreeSet<StreamId> {
        ids.iter().map(|&i| StreamId(i)).collect()
    }

    #[test]
    fn pairwise_selectivity_is_symmetric() {
        let mut cm = CostModel::default();
        cm.set_selectivity(StreamId(1), StreamId(2), 0.01);
        assert_eq!(cm.selectivity(StreamId(2), StreamId(1)), 0.01);
        assert_eq!(cm.selectivity(StreamId(1), StreamId(2)), 0.01);
        assert_eq!(cm.selectivity(StreamId(1), StreamId(3)), 0.003);
    }

    #[test]
    fn join_rate_depends_only_on_base_set() {
        let mut cm = CostModel::default();
        cm.set_selectivity(StreamId(0), StreamId(1), 0.002);
        cm.set_selectivity(StreamId(0), StreamId(2), 0.004);
        cm.set_selectivity(StreamId(1), StreamId(2), 0.001);
        let rate = |_s: StreamId| 10.0;
        let r = cm.join_rate(&set(&[0, 1, 2]), rate);
        // 10^3 * 0.002 * 0.004 * 0.001
        assert!((r - 1000.0 * 0.002 * 0.004 * 0.001).abs() < 1e-12);
    }

    #[test]
    fn two_way_join_rate() {
        let mut cm = CostModel::default();
        cm.set_selectivity(StreamId(5), StreamId(6), 0.005);
        let rate = |s: StreamId| if s == StreamId(5) { 10.0 } else { 20.0 };
        let r = cm.join_rate(&set(&[5, 6]), rate);
        assert!((r - 10.0 * 20.0 * 0.005).abs() < 1e-12);
    }

    #[test]
    fn cpu_costs_linear_in_rates() {
        let cm = CostModel::new(2.0, 0.003);
        assert_eq!(cm.join_cpu(&[3.0, 4.0]), 14.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_selectivity() {
        let mut cm = CostModel::default();
        cm.set_selectivity(StreamId(0), StreamId(1), 0.0);
    }
}
