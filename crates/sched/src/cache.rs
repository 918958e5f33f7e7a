//! The II-invariant analysis cache.
//!
//! The driver's Figure-2 loop retries `partition → replicate → schedule`
//! at every candidate initiation interval, and the suite compiles the same
//! loop under five policies on the same machine. Most of the analysis work
//! those retries perform does not depend on the II or the policy at all —
//! it is a pure function of `(Ddg, MachineConfig)`:
//!
//! * per-node producer latencies and the dense per-edge latency vector,
//! * longest-path depth/height over the distance-0 subgraph,
//! * the SCC decomposition, which components carry recurrences, and each
//!   component's RecMII,
//! * the loop-wide RecMII / unclustered ResMII / MII triple,
//! * the operation census per functional-unit class, and
//! * the full swing-modulo-scheduling priority order plus the topological
//!   fallback order.
//!
//! [`LoopAnalysis`] computes all of it exactly once and is threaded **by
//! shared reference** through `mii`, partitioning, replication and the
//! scheduler, so an II bump or a policy switch reuses it instead of
//! recomputing. Construction computes each artifact once and derives the
//! rest from it instead of calling the one-shot APIs: `topo_order` feeds
//! depth/height, the component index comes from the one `sccs` result
//! (not a second Tarjan pass in `scc_of_node`), and the loop-wide RecMII
//! is the largest per-component RecMII (not `rec_mii`'s whole-graph binary
//! search). Results stay bit-identical to the one-shot APIs (the
//! workspace's determinism contract): debug builds re-check the RecMII
//! and component index on every construction, and the differential tests
//! here and in the root crate assert the rest.

use cvliw_ddg::{depth_height, rec_mii, scc_of_node, sccs, topo_order, Ddg, Edge, NodeId};
use cvliw_machine::MachineConfig;

use crate::mii::res_mii_unclustered;
use crate::order::{comp_index, comp_rec_miis, is_recurrent_comp, sms_order_parts};

/// Every II-invariant artifact of one `(loop, machine)` pair.
///
/// Build it once per loop × machine and pass it by reference to the
/// pipeline's per-loop entry points (`partition_loop_scratch`,
/// `schedule_with_scratch`, …); `cvliw_replicate::CompileContext` owns one
/// per compiled loop. All accessors are cheap slice reads.
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    node_lat: Vec<u32>,
    edge_lat: Vec<u32>,
    depth: Vec<i64>,
    height: Vec<i64>,
    sccs: Vec<Vec<NodeId>>,
    scc_of: Vec<usize>,
    scc_recurrent: Vec<bool>,
    scc_rec_mii: Vec<u32>,
    rec_mii: u32,
    res_mii: u32,
    mii: u32,
    count_by_class: [u32; 3],
    sms_order: Vec<NodeId>,
    topo_order: Vec<NodeId>,
}

impl LoopAnalysis {
    /// Computes every II-invariant artifact of `(ddg, machine)`.
    #[must_use]
    pub fn new(ddg: &Ddg, machine: &MachineConfig) -> Self {
        let node_lat: Vec<u32> = ddg
            .node_ids()
            .map(|n| machine.latency(ddg.kind(n)))
            .collect();
        let edge_lat: Vec<u32> = ddg.edges().map(|e| node_lat[e.src.index()]).collect();
        let lat = |e: &Edge| node_lat[e.src.index()];

        let topo = topo_order(ddg);
        let (depth, height) = depth_height(ddg, &topo, lat);
        let comps = sccs(ddg);
        let scc_of = comp_index(&comps, ddg.node_count());
        debug_assert_eq!(scc_of, scc_of_node(ddg));
        let scc_recurrent: Vec<bool> = comps.iter().map(|c| is_recurrent_comp(ddg, c)).collect();
        let scc_rec_mii = comp_rec_miis(ddg, &comps, lat);

        // Every dependence circuit lies inside one SCC.
        let rec = scc_rec_mii.iter().copied().max().unwrap_or(1);
        debug_assert_eq!(rec, rec_mii(ddg, lat));
        let res = res_mii_unclustered(ddg, machine);
        let order = sms_order_parts(ddg, &depth, &height, &comps, &scc_of, &scc_rec_mii);

        LoopAnalysis {
            node_lat,
            edge_lat,
            depth,
            height,
            sccs: comps,
            scc_of,
            scc_recurrent,
            scc_rec_mii,
            rec_mii: rec,
            res_mii: res,
            mii: res.max(rec),
            count_by_class: ddg.count_by_class(),
            sms_order: order,
            topo_order: topo,
        }
    }

    /// Latency of the value each node produces, indexed by node.
    #[must_use]
    pub fn node_lat(&self) -> &[u32] {
        &self.node_lat
    }

    /// Per-edge latencies, aligned with `ddg.edges()` order.
    #[must_use]
    pub fn edge_lat(&self) -> &[u32] {
        &self.edge_lat
    }

    /// The edge-latency closure over the cached vector — a drop-in for
    /// `MachineConfig::edge_latency` without the per-call kind lookup.
    pub fn lat(&self) -> impl Fn(&Edge) -> u32 + '_ {
        move |e: &Edge| self.node_lat[e.src.index()]
    }

    /// Longest latency-weighted path from any source to each node.
    #[must_use]
    pub fn depth(&self) -> &[i64] {
        &self.depth
    }

    /// Longest latency-weighted path from each node to any sink.
    #[must_use]
    pub fn height(&self) -> &[i64] {
        &self.height
    }

    /// The strongly connected components, as produced by `cvliw_ddg::sccs`.
    #[must_use]
    pub fn sccs(&self) -> &[Vec<NodeId>] {
        &self.sccs
    }

    /// Component index of each node in [`LoopAnalysis::sccs`].
    #[must_use]
    pub fn scc_of(&self) -> &[usize] {
        &self.scc_of
    }

    /// Whether each component carries a recurrence (size > 1 or self-loop).
    #[must_use]
    pub fn scc_recurrent(&self) -> &[bool] {
        &self.scc_recurrent
    }

    /// RecMII of each component (1 for non-recurrent components).
    #[must_use]
    pub fn scc_rec_mii(&self) -> &[u32] {
        &self.scc_rec_mii
    }

    /// The loop-wide recurrence-constrained MII.
    #[must_use]
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// The unclustered resource-constrained MII.
    #[must_use]
    pub fn res_mii(&self) -> u32 {
        self.res_mii
    }

    /// `max(ResMII, RecMII)` — what [`crate::mii`] computes from scratch.
    #[must_use]
    pub fn mii(&self) -> u32 {
        self.mii
    }

    /// Operations per functional-unit class (`[int, fp, mem]`).
    #[must_use]
    pub fn count_by_class(&self) -> &[u32; 3] {
        &self.count_by_class
    }

    /// The full swing-modulo-scheduling priority order.
    #[must_use]
    pub fn sms_order(&self) -> &[NodeId] {
        &self.sms_order
    }

    /// The topological fallback order of the distance-0 subgraph.
    #[must_use]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo_order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::reference;
    use crate::{mii, sms_order};
    use cvliw_ddg::OpKind;
    use cvliw_workloads::{generate_loop, suite_with_salt, GeneratorParams};
    use proptest::prelude::*;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// A recurrence plus an independent chain, exercising every artifact.
    fn sample() -> Ddg {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpMul);
        b.data(x, y).data_dist(y, x, 1);
        let ld = b.add_node(OpKind::Load);
        let st = b.add_node(OpKind::Store);
        b.data(ld, st);
        b.build().unwrap()
    }

    #[test]
    fn matches_one_shot_apis() {
        let ddg = sample();
        let m = machine("4c1b2l64r");
        let a = LoopAnalysis::new(&ddg, &m);
        assert_eq!(a.mii(), mii(&ddg, &m));
        assert_eq!(a.sms_order(), sms_order(&ddg, &m).as_slice());
        assert_eq!(a.topo_order(), cvliw_ddg::topo_order(&ddg).as_slice());
        assert_eq!(a.rec_mii(), cvliw_ddg::rec_mii(&ddg, m.edge_latency(&ddg)));
        assert_eq!(a.count_by_class(), &ddg.count_by_class());
        let lat = m.edge_latency(&ddg);
        let expect: Vec<u32> = ddg.edges().map(&lat).collect();
        assert_eq!(a.edge_lat(), expect.as_slice());
        let (depth, height) = cvliw_ddg::depth_height(&ddg, a.topo_order(), &lat);
        assert_eq!(a.depth(), depth.as_slice());
        assert_eq!(a.height(), height.as_slice());
    }

    #[test]
    fn scc_artifacts_are_aligned() {
        let ddg = sample();
        let a = LoopAnalysis::new(&ddg, &machine("4c1b2l64r"));
        assert_eq!(a.sccs().len(), a.scc_recurrent().len());
        assert_eq!(a.sccs().len(), a.scc_rec_mii().len());
        assert_eq!(a.scc_of().len(), ddg.node_count());
        // the fp ring is recurrent with RecMII 3+6=9; ld/st are trivial.
        let ring_comp = a.scc_of()[0];
        assert!(a.scc_recurrent()[ring_comp]);
        assert_eq!(a.scc_rec_mii()[ring_comp], 9);
        let ld_comp = a.scc_of()[2];
        assert!(!a.scc_recurrent()[ld_comp]);
        assert_eq!(a.scc_rec_mii()[ld_comp], 1);
        assert_eq!(a.rec_mii(), 9);
    }

    /// The cached ordering, RecMII and component index against the
    /// reference ordering and the one-shot whole-graph APIs.
    fn assert_matches_reference(ddg: &Ddg, m: &MachineConfig) {
        let a = LoopAnalysis::new(ddg, m);
        assert_eq!(a.sms_order(), reference::sms_order(ddg, m).as_slice());
        assert_eq!(a.rec_mii(), cvliw_ddg::rec_mii(ddg, m.edge_latency(ddg)));
        assert_eq!(a.scc_of(), cvliw_ddg::scc_of_node(ddg).as_slice());
    }

    #[test]
    fn matches_reference_on_every_suite_loop() {
        let m = machine("4c1b2l64r");
        for program in suite_with_salt(0, usize::MAX) {
            for lp in &program.loops {
                assert_matches_reference(&lp.ddg, &m);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Many chains, most of them recurrences, cross-coupled and with
        /// aliasing memory recurrences: several recurrent SCCs per loop
        /// with path nodes between them.
        #[test]
        fn matches_reference_on_generated_recurrent_loops(
            seed in any::<u64>(),
            chains in 2usize..9,
            recurrence in 0.3f64..1.0,
            coupling in 0.0f64..0.6,
            mem_alias in 0.0f64..0.4,
        ) {
            let params = GeneratorParams {
                chains: (chains, chains),
                recurrence,
                coupling,
                mem_alias,
                ..GeneratorParams::medium()
            };
            let lp = generate_loop(seed, &params).unwrap();
            assert_matches_reference(&lp.ddg, &machine("4c-ring1l64r"));
        }
    }

    #[test]
    fn lat_closure_reads_the_cached_vector() {
        let ddg = sample();
        let m = machine("4c1b2l64r");
        let a = LoopAnalysis::new(&ddg, &m);
        let lat = a.lat();
        for (e, &expect) in ddg.edges().zip(a.edge_lat()) {
            assert_eq!(lat(e), expect);
        }
    }
}
