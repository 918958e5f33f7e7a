//! Multilevel data-dependence-graph partitioning for clustered VLIW
//! scheduling — the baseline scheduler's cluster-assignment stage
//! (references \[1\] and \[2\] of the MICRO-36 2003 replication paper).
//!
//! The pipeline follows the paper's description:
//!
//! 1. **Edge weighting** ([`edge_weights`]): every data dependence is
//!    weighted by the execution-time impact of paying a bus latency on it —
//!    low-slack edges and edges inside recurrences are expensive to cut.
//! 2. **Coarsening** ([`coarsen`]): repeated maximum-weight matchings group
//!    nodes into macro-nodes until as many macro-nodes remain as the
//!    machine has clusters, recording every intermediate level.
//! 3. **Initial partition** ([`Hierarchy::initial_partition`]): the
//!    coarsest macro-nodes map one-to-one onto clusters.
//! 4. **Refinement**: walking the hierarchy back from coarse to fine,
//!    macro-nodes are greedily moved between clusters whenever a
//!    pseudo-schedule-based score ([`PartitionScore`]) improves.
//!
//! [`partition_loop`] bundles the whole pipeline; [`refine_existing`] is
//! the "Refine Partition" box of the paper's Figure 2, used by the driver
//! each time the II is bumped.
//!
//! # Example
//!
//! ```
//! use cvliw_ddg::{Ddg, OpKind};
//! use cvliw_machine::MachineConfig;
//! use cvliw_partition::partition_loop;
//!
//! let mut b = Ddg::builder();
//! let ld = b.add_node(OpKind::Load);
//! let m0 = b.add_node(OpKind::FpMul);
//! let m1 = b.add_node(OpKind::FpMul);
//! b.data(ld, m0).data(m0, m1);
//! let ddg = b.build()?;
//! let machine = MachineConfig::from_spec("2c1b2l64r")?;
//!
//! let part = partition_loop(&ddg, &machine, 1);
//! // A dependent chain should stay in one cluster: no communications.
//! assert_eq!(part.to_assignment().comm_count(&ddg), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coarsen;
mod matching;
mod partition;
mod refine;
mod weights;

pub use coarsen::{coarsen, coarsen_from_weights, CoarseLevel, Hierarchy};
pub use matching::greedy_matching;
pub use partition::Partition;
pub use refine::{
    refine_existing, refine_existing_cached, refine_existing_oracle, refine_existing_trace,
    score_partition, score_partition_scratch, PartitionScore, RefineCache, RefineMove,
    RefineScratch,
};
pub use weights::edge_weights;

use cvliw_ddg::Ddg;
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

/// Runs the full multilevel pipeline: weight, coarsen, seed, refine.
///
/// `ii` is the initiation interval the partition is being built for
/// (normally the loop's MII); capacities and pseudo-schedules are evaluated
/// at this II. One-shot convenience over [`partition_loop_scratch`].
#[must_use]
pub fn partition_loop(ddg: &Ddg, machine: &MachineConfig, ii: u32) -> Partition {
    let analysis = LoopAnalysis::new(ddg, machine);
    partition_loop_scratch(ddg, machine, ii, &analysis, &mut RefineScratch::default())
}

/// [`partition_loop`] on a cached [`LoopAnalysis`] and a persistent
/// [`RefineScratch`]: the edge weights reuse the cache's RecMII and SCC
/// decomposition, every pseudo-schedule evaluated during refinement reads
/// the cached latency vector, and the multilevel refinement walk is
/// allocation-free.
#[must_use]
pub fn partition_loop_scratch(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
) -> Partition {
    partition_loop_variant(ddg, machine, ii, analysis, scratch, 0)
}

/// [`partition_loop_scratch`] with a refinement perturbation index, the
/// worker body of best-of-N seed racing: `variant` rotates the
/// target-cluster scan order inside every refinement level, so ties in the
/// greedy move selection break toward different clusters and the walk
/// explores a different trajectory through the same score landscape.
/// `variant == 0` is the canonical order ([`partition_loop_scratch`]); any
/// other variant still only ever accepts strictly score-improving moves.
#[must_use]
pub fn partition_loop_variant(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    variant: u32,
) -> Partition {
    if machine.clusters() == 1 {
        return Partition::single_cluster(ddg.node_count());
    }
    let weights = edge_weights(ddg, machine, ii, analysis);
    let hierarchy = coarsen_from_weights(ddg, machine, ii, &weights);
    let initial = hierarchy.initial_partition();
    refine::refine_hierarchy(
        ddg, machine, ii, &hierarchy, initial, analysis, scratch, variant,
    )
}
