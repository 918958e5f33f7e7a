//! Multilevel coarsening: heavy-edge matching into macro-nodes.

use std::collections::BTreeMap;

use cvliw_ddg::{Ddg, OpClass};
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

use crate::matching::greedy_matching;
use crate::partition::Partition;
use crate::weights::edge_weights;

/// One level of the coarsening hierarchy: a grouping of the original nodes
/// into `n_macros` macro-nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseLevel {
    /// Original node index → macro index at this level.
    pub macro_of: Vec<usize>,
    /// Number of macro-nodes at this level.
    pub n_macros: usize,
}

impl CoarseLevel {
    /// The member node indices of every macro, in macro order.
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.n_macros];
        for (node, &m) in self.macro_of.iter().enumerate() {
            groups[m].push(node);
        }
        groups
    }
}

/// The whole coarsening hierarchy, from the identity level (every node its
/// own macro) down to a level with at most as many macro-nodes as clusters.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Levels in coarsening order: `levels[0]` is the identity grouping,
    /// the last level is the coarsest.
    pub levels: Vec<CoarseLevel>,
    clusters: u8,
}

impl Hierarchy {
    /// The coarsest level.
    #[must_use]
    pub fn coarsest(&self) -> &CoarseLevel {
        self.levels
            .last()
            .expect("hierarchy has at least the identity level")
    }

    /// The preliminary partition induced by the coarsest level: macro `i`
    /// lands in cluster `i` (the paper's step 1).
    #[must_use]
    pub fn initial_partition(&self) -> Partition {
        let coarsest = self.coarsest();
        debug_assert!(coarsest.n_macros <= self.clusters as usize);
        Partition::from_vec(
            coarsest
                .macro_of
                .iter()
                .map(|&m| u8::try_from(m).expect("few clusters"))
                .collect(),
        )
    }
}

/// Per-macro operation counts by class, used for capacity-aware matching.
fn macro_class_counts(ddg: &Ddg, macro_of: &[usize], n_macros: usize) -> Vec<[u32; 3]> {
    let mut counts = vec![[0u32; 3]; n_macros];
    for n in ddg.node_ids() {
        counts[macro_of[n.index()]][ddg.kind(n).class().index()] += 1;
    }
    counts
}

/// Coarsens the DDG until at most `machine.clusters()` macro-nodes remain.
///
/// Each round aggregates the slack-based edge weights between macro-nodes,
/// takes a greedy maximum-weight matching among pairs whose merged size
/// still fits a cluster's `units·II` capacity, and merges. When matching
/// stalls (disconnected or capacity-blocked graphs) the two smallest
/// macro-nodes are force-merged so the process always terminates.
///
/// One-shot convenience: computes a [`LoopAnalysis`] for the weights.
#[must_use]
pub fn coarsen(ddg: &Ddg, machine: &MachineConfig, ii: u32) -> Hierarchy {
    let analysis = LoopAnalysis::new(ddg, machine);
    coarsen_from_weights(ddg, machine, ii, &edge_weights(ddg, machine, ii, &analysis))
}

/// [`coarsen`] with precomputed edge weights (see [`crate::edge_weights`]).
#[must_use]
pub fn coarsen_from_weights(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    weights: &[u64],
) -> Hierarchy {
    let n = ddg.node_count();
    let clusters = machine.clusters() as usize;

    let mut macro_of: Vec<usize> = (0..n).collect();
    let mut n_macros = n;
    let mut levels = vec![CoarseLevel {
        macro_of: macro_of.clone(),
        n_macros,
    }];

    // Macro-nodes must fit in *some* cluster; the largest one bounds them
    // (exact per-cluster fit is enforced later by refinement/scheduling).
    let cap = |class: OpClass| u32::from(machine.max_fu_count(class)) * ii.max(1);

    while n_macros > clusters {
        let counts = macro_class_counts(ddg, &macro_of, n_macros);
        // Aggregate inter-macro weights (+1 per edge so plain connectivity
        // counts even for weight-0 memory edges).
        let mut agg: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (e, &w) in ddg.edges().zip(weights.iter()) {
            let a = macro_of[e.src.index()];
            let b = macro_of[e.dst.index()];
            if a != b {
                *agg.entry((a.min(b), a.max(b))).or_insert(0) += w + 1;
            }
        }
        let fits = |a: usize, b: usize| {
            OpClass::ALL
                .iter()
                .all(|&class| counts[a][class.index()] + counts[b][class.index()] <= cap(class))
        };
        let candidates: Vec<(usize, usize, u64)> = agg
            .iter()
            .filter(|(&(a, b), _)| fits(a, b))
            .map(|(&(a, b), &w)| (a, b, w))
            .collect();

        let mut pairs = greedy_matching(n_macros, &candidates);
        // Never overshoot below the cluster count.
        pairs.truncate(n_macros - clusters);

        if pairs.is_empty() {
            // Force-merge the two smallest macros.
            let mut by_size: Vec<usize> = (0..n_macros).collect();
            by_size.sort_by_key(|&m| counts[m].iter().sum::<u32>());
            pairs.push((by_size[0].min(by_size[1]), by_size[0].max(by_size[1])));
        }

        // Apply merges and compact macro indices.
        let mut target: Vec<usize> = (0..n_macros).collect();
        for &(a, b) in &pairs {
            target[b] = a;
        }
        let mut remap = vec![usize::MAX; n_macros];
        let mut next = 0;
        for m in 0..n_macros {
            if target[m] == m {
                remap[m] = next;
                next += 1;
            }
        }
        for m in 0..n_macros {
            if target[m] != m {
                remap[m] = remap[target[m]];
            }
        }
        for slot in macro_of.iter_mut() {
            *slot = remap[target[*slot]];
        }
        n_macros = next;
        levels.push(CoarseLevel {
            macro_of: macro_of.clone(),
            n_macros,
        });
    }

    Hierarchy {
        levels,
        clusters: machine.clusters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    fn chain(n: usize) -> Ddg {
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for w in nodes.windows(2) {
            b.data(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn coarsens_to_cluster_count() {
        let ddg = chain(10);
        let h = coarsen(&ddg, &machine("4c1b2l64r"), 4);
        assert!(h.coarsest().n_macros <= 4);
        assert_eq!(h.levels[0].n_macros, 10);
        // levels strictly shrink
        for w in h.levels.windows(2) {
            assert!(w[1].n_macros < w[0].n_macros);
        }
    }

    #[test]
    fn initial_partition_covers_all_nodes() {
        let ddg = chain(9);
        let h = coarsen(&ddg, &machine("2c1b2l64r"), 4);
        let p = h.initial_partition();
        assert_eq!(p.node_count(), 9);
        assert!(p.as_slice().iter().all(|&c| c < 2));
    }

    #[test]
    fn groups_partition_the_nodes() {
        let ddg = chain(7);
        let h = coarsen(&ddg, &machine("2c1b2l64r"), 3);
        for level in &h.levels {
            let groups = level.groups();
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total, 7);
            assert!(groups.iter().all(|g| !g.is_empty()));
        }
    }

    #[test]
    fn disconnected_graph_still_coarsens() {
        let mut b = Ddg::builder();
        for _ in 0..6 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        let h = coarsen(&ddg, &machine("2c1b2l64r"), 3);
        assert!(h.coarsest().n_macros <= 2);
    }

    #[test]
    fn small_graphs_stay_as_is() {
        let ddg = chain(2);
        let h = coarsen(&ddg, &machine("4c1b2l64r"), 1);
        assert_eq!(h.levels.len(), 1);
        assert_eq!(h.coarsest().n_macros, 2);
        let p = h.initial_partition();
        assert_eq!(p.as_slice(), &[0, 1]);
    }

    #[test]
    fn heavy_edges_merge_first() {
        // A tight recurrence pair plus a loose consumer: the recurrence
        // nodes must end up in the same macro before the loose node joins.
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        b.data(x, y).data_dist(y, x, 1);
        let loose = b.add_node(OpKind::IntAdd);
        b.data(y, loose);
        let ddg = b.build().unwrap();
        let h = coarsen(&ddg, &machine("2c1b2l64r"), 6);
        // after the first merge round, x and y share a macro
        let level1 = &h.levels[1];
        assert_eq!(level1.macro_of[x.index()], level1.macro_of[y.index()]);
        assert_ne!(level1.macro_of[x.index()], level1.macro_of[loose.index()]);
    }
}
