//! Query operators (paper §II-A): `o = (S_o, s_o, γ_o)`.

use crate::ids::{OperatorId, StreamId};

/// A registered operator: input streams `S_o`, single output stream `s_o`,
/// and CPU cost `γ_o` (units of computational resource while running).
///
/// Every operator is a windowed equi-join of two streams. The relay
/// operator `µ` of §II-C is *not* an [`OperatorDef`]: relaying is a
/// property of flows, not of the operator catalog (it consumes network,
/// not meaningful CPU).
#[derive(Debug, Clone)]
pub struct OperatorDef {
    pub id: OperatorId,
    pub inputs: Vec<StreamId>,
    pub output: StreamId,
    pub cpu_cost: f64,
    /// Window-state memory held while running.
    pub memory_cost: f64,
}

impl OperatorDef {
    /// Whether `s` is one of this operator's inputs.
    pub fn consumes(&self, s: StreamId) -> bool {
        self.inputs.contains(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consumes_checks_inputs() {
        let op = OperatorDef {
            id: OperatorId(0),
            inputs: vec![StreamId(1), StreamId(2)],
            output: StreamId(3),
            cpu_cost: 1.5,
            memory_cost: 0.75,
        };
        assert!(op.consumes(StreamId(1)));
        assert!(!op.consumes(StreamId(3)));
    }
}
