//! Pseudo-schedules: the cheap schedule estimates that guide partition
//! refinement (reference [2] of the paper).
//!
//! A pseudo-schedule does not allocate slots; it answers, for a candidate
//! partition at a candidate II: would the buses cope, do the per-cluster
//! resource capacities hold, do the recurrences still fit once bus latency
//! is added to cross-cluster dependences, roughly how long would one
//! iteration be, and how hard would it press on the register files.

use cvliw_ddg::{asap_times_into, Ddg, OpClass};
use cvliw_machine::MachineConfig;

use crate::assign::{Assignment, ClusterSet};
use crate::cache::LoopAnalysis;

/// The communication penalty a cross-cluster data edge pays: the uniform
/// transfer latency where the fabric has one (shared buses, crossbars),
/// otherwise the worst per-pair latency from the value's copy source to
/// the consumer clusters still missing it. `missing` must be non-empty;
/// `uniform` is [`MachineConfig::uniform_transfer_latency`], hoisted by
/// the caller so per-edge evaluation stays allocation-free.
pub fn comm_penalty(
    machine: &MachineConfig,
    assignment: &Assignment,
    src: cvliw_ddg::NodeId,
    missing: ClusterSet,
    uniform: Option<u32>,
) -> u32 {
    match uniform {
        Some(lat) => lat,
        None => {
            let from = assignment.copy_source(src);
            missing
                .iter()
                .map(|c| machine.transfer_latency(from, c))
                .max()
                .unwrap_or(0)
        }
    }
}

/// Reusable buffers for [`pseudo_schedule_scratch`]: the per-edge
/// communication-adjusted latency vector, the ASAP issue times, the
/// per-cluster class usage and the per-cluster register estimate.
///
/// Partition refinement scores hundreds of candidate partitions per II, and
/// every score needs all four buffers; holding them in a scratch that lives
/// for the whole compilation (see `cvliw_replicate::CompileContext`) makes
/// a score allocation-free.
#[derive(Clone, Debug, Default)]
pub struct PseudoScratch {
    /// Communication-adjusted per-edge latencies (`ddg.edges()` order).
    pub edge_lat: Vec<u32>,
    /// ASAP issue times per node.
    pub asap: Vec<i64>,
    /// Instance counts per cluster and class.
    pub usage: Vec<[u32; 3]>,
    /// Estimated rotating registers per cluster.
    pub est: Vec<u64>,
}

/// Estimated properties of scheduling `assignment` at a given II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PseudoSchedule {
    /// Communications implied by the assignment.
    pub ncoms: u32,
    /// Whether bus bandwidth fits `ncoms` at this II.
    pub bus_ok: bool,
    /// Total instance excess over `units·II`, summed over (cluster, class).
    pub cap_overflow: u32,
    /// Whether recurrences remain feasible with bus latency added to every
    /// cross-cluster data dependence.
    pub recurrences_ok: bool,
    /// Estimated issue-span of one iteration (critical path with
    /// communication latencies); `i64::MAX` when `recurrences_ok` is false.
    pub est_length: i64,
    /// Estimated register-file excess summed over clusters.
    pub reg_overflow: u32,
}

impl PseudoSchedule {
    /// Whether nothing rules this partition out at this II.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.bus_ok && self.cap_overflow == 0 && self.recurrences_ok && self.reg_overflow == 0
    }
}

/// Builds the pseudo-schedule estimate of an assignment.
///
/// One-shot convenience: computes a [`LoopAnalysis`] internally. Partition
/// refinement scores through [`pseudo_schedule_scratch`].
#[must_use]
pub fn pseudo_schedule(
    ddg: &Ddg,
    assignment: &Assignment,
    machine: &MachineConfig,
    ii: u32,
) -> PseudoSchedule {
    let analysis = LoopAnalysis::new(ddg, machine);
    pseudo_schedule_scratch(
        ddg,
        assignment,
        machine,
        ii,
        &analysis,
        &mut PseudoScratch::default(),
    )
}

/// [`pseudo_schedule`] on a cached [`LoopAnalysis`] and caller-owned
/// scratch buffers — the allocation-free scoring path of partition
/// refinement.
///
/// Capacity: every (cluster, class) must fit its instances in `units·II`.
/// Critical path: a data edge whose consumer lives in a cluster without
/// the producer pays the transfer; the ASAP fixpoint uses the same
/// relaxation order and pass bound as [`cvliw_ddg::time_bounds`] (its ALAP
/// sweep, which no score reads, is skipped). Registers: each value's
/// lifetime spans from its definition to its furthest consumer (plus
/// iteration distance), and overlapped copies cost `ceil(lifetime / II)`
/// registers in each cluster holding it.
#[must_use]
pub fn pseudo_schedule_scratch(
    ddg: &Ddg,
    assignment: &Assignment,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
    scratch: &mut PseudoScratch,
) -> PseudoSchedule {
    let ncoms = assignment.comm_count(ddg);
    let bus_ok = ncoms <= machine.coms_capacity_per_ii(ii);

    assignment.class_usage_into(ddg, machine.clusters(), &mut scratch.usage);
    let mut cap_overflow = 0u32;
    for (c, per_cluster) in scratch.usage.iter().enumerate() {
        for class in OpClass::ALL {
            let cap = u32::from(machine.fu_count_in(c as u8, class)) * ii;
            cap_overflow += per_cluster[class.index()].saturating_sub(cap);
        }
    }

    // Communication-adjusted per-edge latencies, from the cached base
    // vector (aligned with `ddg.edges()`).
    let base = analysis.edge_lat();
    let uniform = machine.uniform_transfer_latency();
    scratch.edge_lat.clear();
    scratch
        .edge_lat
        .extend(ddg.edges().zip(base).map(|(e, &lat)| {
            if !e.is_data() {
                return lat;
            }
            let missing = assignment
                .instances(e.dst)
                .difference(assignment.instances(e.src));
            if missing.is_empty() {
                lat
            } else {
                lat + comm_penalty(machine, assignment, e.src, missing, uniform)
            }
        }));

    let (recurrences_ok, est_length) =
        match asap_times_into(ddg, ii, &scratch.edge_lat, &mut scratch.asap) {
            Some(length) => (true, length),
            None => (false, i64::MAX),
        };

    let reg_overflow = if recurrences_ok {
        let asap = &scratch.asap;
        let est = &mut scratch.est;
        est.clear();
        est.resize(machine.clusters() as usize, 0);
        for n in ddg.node_ids() {
            if !ddg.kind(n).produces_value() {
                continue;
            }
            let def = asap[n.index()];
            let mut last = def + i64::from(analysis.node_lat()[n.index()]);
            for e in ddg.out_edges(n) {
                if e.is_data() {
                    last = last.max(asap[e.dst.index()] + i64::from(ii) * i64::from(e.distance));
                }
            }
            let span = u64::try_from((last - def).max(1)).expect("non-negative");
            let regs = span.div_ceil(u64::from(ii));
            for c in assignment.instances(n).iter() {
                est[c as usize] += regs;
            }
        }
        est.iter()
            .map(|&e| {
                u32::try_from(e.saturating_sub(u64::from(machine.regs_per_cluster())))
                    .unwrap_or(u32::MAX)
            })
            .sum()
    } else {
        0
    };

    PseudoSchedule {
        ncoms,
        bus_ok,
        cap_overflow,
        recurrences_ok,
        est_length,
        reg_overflow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    fn two_chain() -> Ddg {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        let m1 = b.add_node(OpKind::FpMul);
        b.data(ld, m0).data(m0, m1);
        b.build().unwrap()
    }

    #[test]
    fn single_cluster_has_no_comm_cost() {
        let ddg = two_chain();
        let m = machine("4c1b2l64r");
        let asg = Assignment::from_partition(&[0, 0, 0]);
        let ps = pseudo_schedule(&ddg, &asg, &m, 2);
        assert_eq!(ps.ncoms, 0);
        assert!(ps.bus_ok && ps.recurrences_ok);
        assert_eq!(ps.est_length, 8); // 2 + 6
        assert!(ps.feasible());
    }

    #[test]
    fn cross_cluster_pays_bus_latency() {
        let ddg = two_chain();
        let m = machine("4c1b2l64r");
        let split = Assignment::from_partition(&[0, 1, 1]);
        let ps = pseudo_schedule(&ddg, &split, &m, 2);
        assert_eq!(ps.ncoms, 1);
        assert_eq!(ps.est_length, 10); // +2 bus on the load edge
    }

    #[test]
    fn capacity_overflow_detected() {
        let mut b = Ddg::builder();
        for _ in 0..5 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r"); // 1 mem port per cluster
        let asg = Assignment::from_partition(&[0, 0, 0, 0, 0]);
        let ps = pseudo_schedule(&ddg, &asg, &m, 2);
        assert_eq!(ps.cap_overflow, 3); // 5 loads − 2 slots
        assert!(!ps.feasible());
    }

    #[test]
    fn bus_overflow_detected() {
        let mut b = Ddg::builder();
        let p0 = b.add_node(OpKind::IntAdd);
        let p1 = b.add_node(OpKind::IntAdd);
        let c0 = b.add_node(OpKind::FpAdd);
        let c1 = b.add_node(OpKind::FpAdd);
        b.data(p0, c0).data(p1, c1);
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r");
        let asg = Assignment::from_partition(&[0, 0, 1, 1]);
        let ps = pseudo_schedule(&ddg, &asg, &m, 2);
        assert_eq!(ps.ncoms, 2);
        assert!(!ps.bus_ok);
        let ps4 = pseudo_schedule(&ddg, &asg, &m, 4);
        assert!(ps4.bus_ok);
    }

    #[test]
    fn recurrence_with_communication_can_become_infeasible() {
        // Ring of 2 fp adds, distance 1 → RecMII 6 locally; splitting it
        // across clusters adds 2×2 bus cycles → needs II ≥ 10.
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        b.data(x, y).data_dist(y, x, 1);
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r");
        let local = Assignment::from_partition(&[0, 0]);
        assert!(pseudo_schedule(&ddg, &local, &m, 6).recurrences_ok);
        let split = Assignment::from_partition(&[0, 1]);
        assert!(!pseudo_schedule(&ddg, &split, &m, 6).recurrences_ok);
        assert!(pseudo_schedule(&ddg, &split, &m, 10).recurrences_ok);
    }

    #[test]
    fn replication_avoids_cross_latency() {
        let ddg = two_chain();
        let m = machine("4c1b2l64r");
        let mut asg = Assignment::from_partition(&[0, 0, 1]);
        let before = pseudo_schedule(&ddg, &asg, &m, 4);
        assert_eq!(before.ncoms, 1);
        // replicate the producer chain into cluster 1
        asg.add_instance(cvliw_ddg::NodeId::new(0), 1);
        asg.add_instance(cvliw_ddg::NodeId::new(1), 1);
        let after = pseudo_schedule(&ddg, &asg, &m, 4);
        assert_eq!(after.ncoms, 0);
        assert!(after.est_length < before.est_length);
    }
}
