//! Slack-based edge weights: the cost of paying a bus latency on a
//! dependence (reference [1] of the paper).

use cvliw_ddg::{time_bounds, Ddg};
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

/// Weight applied per bus-latency cycle to an edge inside a recurrence:
/// communications on cycles raise the RecMII directly, so they are treated
/// as (almost) uncuttable.
const RECURRENCE_PENALTY: u64 = 10;

/// Weight applied per cycle by which the bus latency exceeds an acyclic
/// edge's slack (each such cycle lengthens the critical path).
const SLACK_PENALTY: u64 = 2;

/// Base weight of any data edge (every cut consumes bus bandwidth).
const BASE_WEIGHT: u64 = 1;

/// Computes one weight per edge, aligned with `ddg.edges()` order.
///
/// Memory-ordering edges get weight 0: cutting them costs nothing because
/// the memory hierarchy is centralized. Data edges cost more the less slack
/// they have at the loop's MII-feasible II, and far more when they sit on a
/// recurrence. The RecMII, the SCC decomposition and the latencies are read
/// from the loop's cached [`LoopAnalysis`]; only the II-dependent slack
/// bounds are evaluated per call.
#[must_use]
pub fn edge_weights(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
) -> Vec<u64> {
    let lat = analysis.lat();
    let feasible_ii = ii.max(analysis.rec_mii());
    let bounds =
        time_bounds(ddg, feasible_ii, &lat).expect("II at or above RecMII always has time bounds");
    let of = analysis.scc_of();
    let nontrivial = analysis.scc_recurrent();

    // The conservative scalar communication cost: the worst transfer
    // latency any cluster pair can pay (= the bus latency on shared-bus
    // machines, so the paper configurations score identically).
    let bus = u64::from(machine.max_transfer_latency());
    ddg.edges()
        .map(|e| {
            if !e.is_data() {
                return 0;
            }
            let mut w = BASE_WEIGHT;
            let same_scc = of[e.src.index()] == of[e.dst.index()];
            if same_scc && nontrivial[of[e.src.index()]] {
                w += RECURRENCE_PENALTY * bus;
            }
            let slack = bounds.alap[e.dst.index()] - bounds.asap[e.src.index()] - i64::from(lat(e))
                + i64::from(feasible_ii) * i64::from(e.distance);
            let shortfall = (i64::try_from(bus).expect("small") - slack).max(0) as u64;
            w + SLACK_PENALTY * shortfall
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine() -> MachineConfig {
        MachineConfig::from_spec("4c1b2l64r").unwrap()
    }

    fn weights(ddg: &Ddg, ii: u32) -> Vec<u64> {
        let m = machine();
        edge_weights(ddg, &m, ii, &LoopAnalysis::new(ddg, &m))
    }

    #[test]
    fn mem_edges_are_free() {
        let mut b = Ddg::builder();
        let st = b.add_node(OpKind::Store);
        let ld = b.add_node(OpKind::Load);
        b.mem_dep(st, ld, 1);
        let ddg = b.build().unwrap();
        assert_eq!(weights(&ddg, 1), vec![0]);
    }

    #[test]
    fn recurrence_edges_outweigh_acyclic_edges() {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        b.data(x, y).data_dist(y, x, 1); // recurrence
        let z = b.add_node(OpKind::FpAdd);
        b.data(y, z); // acyclic exit edge — wait, y is in the SCC, z outside
        let ddg = b.build().unwrap();
        let w = weights(&ddg, 6);
        assert!(
            w[0] > w[2],
            "cycle edge {} should outweigh exit edge {}",
            w[0],
            w[2]
        );
        assert!(w[1] > w[2]);
    }

    #[test]
    fn tight_edges_outweigh_slack_edges() {
        // diamond: a → (long chain | single short op) → sink. The short
        // op's edges have slack; the chain's do not.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let c1 = b.add_node(OpKind::FpMul);
        let c2 = b.add_node(OpKind::FpMul);
        let short = b.add_node(OpKind::IntAdd);
        let sink = b.add_node(OpKind::Store);
        b.data(a, c1).data(c1, c2).data(c2, sink); // critical path
        b.data(a, short).data(short, sink); // slack path
        let ddg = b.build().unwrap();
        let w = weights(&ddg, 2);
        // edge 0 (a→c1, critical) heavier than edge 3 (a→short, slack)
        assert!(w[0] > w[3], "critical {} vs slack {}", w[0], w[3]);
    }

    #[test]
    fn weights_align_with_edges() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let c = b.add_node(OpKind::FpMul);
        b.data(a, c);
        let ddg = b.build().unwrap();
        let w = weights(&ddg, 1);
        assert_eq!(w.len(), ddg.edge_count());
        assert!(w[0] >= 1);
    }
}
