//! Node ordering for modulo scheduling, following Swing Modulo Scheduling
//! (Llosa et al., PACT'96 — reference [18] of the paper).
//!
//! The ordering walks the DDG so that every node is placed while at least
//! one of its neighbours is already ordered (keeping issue windows tight and
//! register lifetimes short), gives priority to the most critical
//! recurrences, and alternates top-down/bottom-up sweeps.

use std::cmp::Reverse;

use cvliw_ddg::{depth_height, sccs, topo_order, Ddg, Edge, NodeId};
use cvliw_machine::MachineConfig;

/// Computes the swing-modulo-scheduling order of all nodes.
///
/// Recurrences are processed in decreasing RecMII order, each together with
/// the nodes on paths connecting it to the already-ordered subgraph; the
/// remaining (non-recurrent) nodes come last. Within a group the classic
/// alternating height/depth sweep is used. Ties break on node index, so the
/// result is deterministic.
///
/// One-shot convenience: recomputes every ingredient (latencies, SCCs,
/// depth/height) from scratch. The driver's II loop instead computes the
/// order once per (loop, machine) through [`crate::LoopAnalysis`], which
/// calls the same internals on its cached artifacts.
#[must_use]
pub fn sms_order(ddg: &Ddg, machine: &MachineConfig) -> Vec<NodeId> {
    let node_lat: Vec<u32> = ddg
        .node_ids()
        .map(|n| machine.latency(ddg.kind(n)))
        .collect();
    let lat = |e: &Edge| node_lat[e.src.index()];
    let (depth, height) = depth_height(ddg, &topo_order(ddg), lat);
    let comps = sccs(ddg);
    let scc_of = comp_index(&comps, ddg.node_count());
    let comp_rec_mii = comp_rec_miis(ddg, &comps, lat);
    sms_order_parts(ddg, &depth, &height, &comps, &scc_of, &comp_rec_mii)
}

/// Whether a strongly connected component carries a recurrence: more than
/// one node, or a single node with a loop-carried self-dependence.
pub(crate) fn is_recurrent_comp(ddg: &Ddg, comp: &[NodeId]) -> bool {
    comp.len() > 1 || ddg.out_edges(comp[0]).any(|e| e.dst == comp[0])
}

/// Index in `comps` of each of the `n` nodes' component.
pub(crate) fn comp_index(comps: &[Vec<NodeId>], n: usize) -> Vec<usize> {
    let mut of = vec![0usize; n];
    for (i, comp) in comps.iter().enumerate() {
        for &v in comp {
            of[v.index()] = i;
        }
    }
    of
}

/// RecMII of every component of `comps`, aligned by index; trivial
/// (non-recurrent) components report 1, the floor any II satisfies.
pub(crate) fn comp_rec_miis(
    ddg: &Ddg,
    comps: &[Vec<NodeId>],
    lat: impl Fn(&Edge) -> u32,
) -> Vec<u32> {
    let mut scratch = Vec::new();
    comps
        .iter()
        .map(|c| {
            if is_recurrent_comp(ddg, c) {
                scc_rec_mii(ddg, c, &lat, &mut scratch)
            } else {
                1
            }
        })
        .collect()
}

/// The ordering core on precomputed artifacts: depth/height per node, the
/// SCC decomposition in [`sccs`] order, each node's component index and
/// each component's RecMII.
pub(crate) fn sms_order_parts(
    ddg: &Ddg,
    depth: &[i64],
    height: &[i64],
    comps: &[Vec<NodeId>],
    scc_of: &[usize],
    comp_rec_mii: &[u32],
) -> Vec<NodeId> {
    let n = ddg.node_count();
    let mut orderer = Orderer {
        ddg,
        depth,
        height,
        order: Vec::with_capacity(n),
        succs_of_ordered: NodeSet::new(n),
        preds_of_ordered: NodeSet::new(n),
    };
    for group in priority_groups(ddg, comps, scc_of, comp_rec_mii) {
        orderer.order_group(group);
    }
    debug_assert_eq!(orderer.order.len(), n);
    orderer.order
}

/// A dense set of node indices: one bit per node, `n.div_ceil(64)` words.
struct NodeSet(Vec<u64>);

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

impl NodeSet {
    fn new(n: usize) -> Self {
        NodeSet(vec![0; n.div_ceil(64)])
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }

    fn insert(&mut self, i: usize) {
        set_bit(&mut self.0, i);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    fn union_with(&mut self, row: &[u64]) {
        or_into(&mut self.0, row);
    }

    fn intersection(&self, other: &NodeSet) -> NodeSet {
        NodeSet(self.0.iter().zip(&other.0).map(|(a, b)| a & b).collect())
    }

    /// Members in increasing index order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// Direction of the current sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sweep {
    TopDown,
    BottomUp,
}

impl Sweep {
    fn flip(self) -> Sweep {
        match self {
            Sweep::TopDown => Sweep::BottomUp,
            Sweep::BottomUp => Sweep::TopDown,
        }
    }
}

/// The order under construction plus the neighbourhood of its prefix:
/// every successor and every predecessor of an already-ordered node, kept
/// up to date as nodes are appended so a sweep can be re-seeded with two
/// word-wise intersections instead of a walk over the whole prefix.
struct Orderer<'a> {
    ddg: &'a Ddg,
    depth: &'a [i64],
    height: &'a [i64],
    order: Vec<NodeId>,
    succs_of_ordered: NodeSet,
    preds_of_ordered: NodeSet,
}

impl Orderer<'_> {
    fn push(&mut self, v: usize) {
        let v = NodeId::new(v as u32);
        self.order.push(v);
        for e in self.ddg.out_edges(v) {
            self.succs_of_ordered.insert(e.dst.index());
        }
        for e in self.ddg.in_edges(v) {
            self.preds_of_ordered.insert(e.src.index());
        }
    }

    /// Unordered nodes adjacent to the ordered prefix on the `sweep` side.
    fn frontier(&self, todo: &NodeSet, sweep: Sweep) -> NodeSet {
        match sweep {
            Sweep::TopDown => todo.intersection(&self.succs_of_ordered),
            Sweep::BottomUp => todo.intersection(&self.preds_of_ordered),
        }
    }

    /// Appends every node of `group` (disjoint from the prefix) to the order.
    fn order_group(&mut self, group: NodeSet) {
        // Group nodes not yet ordered.
        let mut todo = group;
        while !todo.is_empty() {
            // Seed the ready set from nodes adjacent to the ordered prefix.
            let mut sweep = Sweep::TopDown;
            let mut ready = self.frontier(&todo, sweep);
            if ready.is_empty() {
                ready = self.frontier(&todo, Sweep::BottomUp);
                if !ready.is_empty() {
                    sweep = Sweep::BottomUp;
                }
            }
            if ready.is_empty() {
                // Fresh component: start from the highest node (max height).
                let seed = todo
                    .iter()
                    .max_by_key(|&i| (self.height[i], Reverse(i)))
                    .expect("non-empty remaining group");
                ready.insert(seed);
            }

            // Alternate sweeps until this group's connected region is
            // exhausted.
            loop {
                while let Some(v) = pick(&ready, sweep, self.depth, self.height) {
                    ready.remove(v);
                    todo.remove(v);
                    self.push(v);
                    let v = NodeId::new(v as u32);
                    match sweep {
                        Sweep::TopDown => {
                            for e in self.ddg.out_edges(v) {
                                if todo.contains(e.dst.index()) {
                                    ready.insert(e.dst.index());
                                }
                            }
                        }
                        Sweep::BottomUp => {
                            for e in self.ddg.in_edges(v) {
                                if todo.contains(e.src.index()) {
                                    ready.insert(e.src.index());
                                }
                            }
                        }
                    }
                }
                // Switch direction: collect unordered group nodes adjacent
                // to anything ordered so far, on the opposite side.
                sweep = sweep.flip();
                ready = self.frontier(&todo, sweep);
                if ready.is_empty() {
                    break;
                }
            }
        }
    }
}

/// Picks the next node of the ready set: highest height when sweeping
/// top-down, highest depth when sweeping bottom-up; ties break on the other
/// metric and then on node index.
fn pick(ready: &NodeSet, sweep: Sweep, depth: &[i64], height: &[i64]) -> Option<usize> {
    ready.iter().max_by_key(|&i| {
        let (primary, secondary) = match sweep {
            Sweep::TopDown => (height[i], depth[i]),
            Sweep::BottomUp => (depth[i], height[i]),
        };
        (primary, secondary, Reverse(i))
    })
}

/// Builds the ordered list of node groups: each non-trivial SCC in
/// decreasing RecMII order together with the nodes on paths connecting it
/// to previously grouped nodes, then everything else. The per-component
/// RecMIIs arrive precomputed ([`comp_rec_miis`]) so a schedule attempt
/// never re-runs the binary searches.
///
/// A node `m` lies on such a path when some grouped `p` and some member
/// `v` of the SCC have `m` both below `p` and above `v` (or the reverse).
/// Since a union of pairwise intersections is the intersection of the
/// unions, the whole test is `(D_prev & A_comp | D_comp & A_prev)` on
/// [`Closure`] rows OR-ed over the grouped nodes and the SCC's members.
fn priority_groups(
    ddg: &Ddg,
    comps: &[Vec<NodeId>],
    scc_of: &[usize],
    comp_rec_mii: &[u32],
) -> Vec<NodeSet> {
    let n = ddg.node_count();
    let mut recurrent: Vec<(u32, usize)> = comps
        .iter()
        .zip(comp_rec_mii)
        .enumerate()
        .filter(|(_, (c, _))| is_recurrent_comp(ddg, c))
        .map(|(i, (_, &mii))| (mii, i))
        .collect();
    recurrent.sort_by_key(|&(mii, i)| (Reverse(mii), comps[i][0].index()));

    // The first group reads no closure, so single-recurrence loops (the
    // common case) never build one.
    let mut closure: Option<Closure> = None;
    let mut grouped = NodeSet::new(n);
    // Descendants / ancestors of every grouped node, folded in group by
    // group: `groups[..folded]` are already in.
    let mut prev_desc = NodeSet::new(n);
    let mut prev_anc = NodeSet::new(n);
    let mut folded = 0;
    let mut groups: Vec<NodeSet> = Vec::new();
    for (_, c) in recurrent {
        let mut group = NodeSet::new(n);
        for &v in &comps[c] {
            if !grouped.contains(v.index()) {
                group.insert(v.index());
            }
        }
        // Nodes on paths between earlier groups and this SCC. Every member
        // of an SCC has its component's closure rows.
        if !groups.is_empty() {
            let closure = closure.get_or_insert_with(|| Closure::new(ddg, comps, scc_of));
            for g in &groups[folded..] {
                for v in g.iter() {
                    prev_desc.union_with(closure.desc(scc_of[v]));
                    prev_anc.union_with(closure.anc(scc_of[v]));
                }
            }
            folded = groups.len();
            let (desc, anc) = (closure.desc(c), closure.anc(c));
            for (w, g) in group.0.iter_mut().enumerate() {
                *g |= (prev_desc.0[w] & anc[w] | desc[w] & prev_anc.0[w]) & !grouped.0[w];
            }
        }
        if !group.is_empty() {
            grouped.union_with(&group.0);
            groups.push(group);
        }
    }
    let mut rest = NodeSet::new(n);
    for i in 0..n {
        if !grouped.contains(i) {
            rest.insert(i);
        }
    }
    if !rest.is_empty() {
        groups.push(rest);
    }
    groups
}

/// Transitive closure of the dependence graph as one bitset row per SCC:
/// the nodes reachable from (`desc`) and reaching (`anc`) any member over
/// paths of at least one edge. All members of a component share its rows,
/// and a member appears in its own rows exactly when the component is a
/// recurrence — the per-node closure, stored once per component.
struct Closure {
    words: usize,
    desc: Vec<u64>,
    anc: Vec<u64>,
}

impl Closure {
    /// Builds both closures in one pass each over the condensation:
    /// [`sccs`] emits components sinks first, so every edge leaving a
    /// component enters one with a smaller index.
    fn new(ddg: &Ddg, comps: &[Vec<NodeId>], scc_of: &[usize]) -> Self {
        let words = ddg.node_count().div_ceil(64);
        let mut desc = vec![0u64; comps.len() * words];
        let mut anc = vec![0u64; comps.len() * words];
        for (c, comp) in comps.iter().enumerate() {
            let (below, row) = desc.split_at_mut(c * words);
            let row = &mut row[..words];
            for &u in comp {
                for e in ddg.out_edges(u) {
                    let w = e.dst.index();
                    set_bit(row, w);
                    let d = scc_of[w];
                    if d != c {
                        debug_assert!(d < c, "sccs emits sinks first");
                        or_into(row, &below[d * words..(d + 1) * words]);
                    }
                }
            }
        }
        for (c, comp) in comps.iter().enumerate().rev() {
            let (row, above) = anc.split_at_mut((c + 1) * words);
            let row = &mut row[c * words..];
            for &v in comp {
                for e in ddg.in_edges(v) {
                    let w = e.src.index();
                    set_bit(row, w);
                    let s = scc_of[w];
                    if s != c {
                        debug_assert!(s > c, "sccs emits sources last");
                        or_into(row, &above[(s - c - 1) * words..(s - c) * words]);
                    }
                }
            }
        }
        Closure { words, desc, anc }
    }

    fn desc(&self, comp: usize) -> &[u64] {
        &self.desc[comp * self.words..(comp + 1) * self.words]
    }

    fn anc(&self, comp: usize) -> &[u64] {
        &self.anc[comp * self.words..(comp + 1) * self.words]
    }
}

/// RecMII of a single strongly connected component, by binary search over
/// the feasibility of its internal edges. `t` is a reusable Bellman-Ford
/// buffer.
fn scc_rec_mii(ddg: &Ddg, comp: &[NodeId], lat: impl Fn(&Edge) -> u32, t: &mut Vec<i64>) -> u32 {
    // Internal edges as (src, dst) positions in `comp` plus latency and
    // distance, in the order the relaxation visits them.
    let mut internal: Vec<(usize, usize, i64, i64)> = Vec::new();
    let mut ub = 1u32;
    for (i, &u) in comp.iter().enumerate() {
        for e in ddg.out_edges(u) {
            if let Ok(j) = comp.binary_search(&e.dst) {
                internal.push((i, j, i64::from(lat(e)), i64::from(e.distance)));
                ub += lat(e);
            }
        }
    }
    // Bellman-Ford on comp nodes only.
    let mut feasible = |ii: u32| -> bool {
        let ii = i64::from(ii);
        t.clear();
        t.resize(comp.len(), 0);
        for pass in 0..=comp.len() {
            let mut changed = false;
            for &(i, j, l, d) in &internal {
                let cand = t[i] + l - ii * d;
                if cand > t[j] {
                    t[j] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if pass == comp.len() {
                return false;
            }
        }
        true
    };
    if feasible(1) {
        return 1;
    }
    let (mut lo, mut hi) = (1u32, ub);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Sanity helper used by tests: fraction of non-seed nodes that are
/// adjacent to an earlier node in the order (1.0 for connected graphs).
#[must_use]
pub fn neighbor_adjacency_ratio(ddg: &Ddg, order: &[NodeId]) -> f64 {
    if order.len() <= 1 {
        return 1.0;
    }
    let mut placed = vec![false; ddg.node_count()];
    placed[order[0].index()] = true;
    let mut adjacent = 0usize;
    let mut seeds = 1usize; // first node is always a seed
    for &v in &order[1..] {
        let has_neighbor = ddg
            .in_edges(v)
            .map(|e| e.src)
            .chain(ddg.out_edges(v).map(|e| e.dst))
            .any(|w| placed[w.index()]);
        if has_neighbor {
            adjacent += 1;
        } else {
            seeds += 1;
        }
        placed[v.index()] = true;
    }
    let _ = seeds;
    adjacent as f64 / (order.len() - 1) as f64
}

/// The ordering as first written, on `BTreeSet`s and per-node reachability
/// sets: the differential tests hold the dense ordering above to it.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::BTreeSet;

    use cvliw_ddg::{depth_height, sccs, topo_order, Ddg, Edge, NodeId};
    use cvliw_machine::MachineConfig;

    use super::{is_recurrent_comp, Sweep};

    /// [`super::sms_order`] computed with the reference internals.
    pub(crate) fn sms_order(ddg: &Ddg, machine: &MachineConfig) -> Vec<NodeId> {
        let node_lat: Vec<u32> = ddg
            .node_ids()
            .map(|n| machine.latency(ddg.kind(n)))
            .collect();
        let lat = |e: &Edge| node_lat[e.src.index()];
        let (depth, height) = depth_height(ddg, &topo_order(ddg), lat);
        let comps = sccs(ddg);
        let comp_rec_mii: Vec<u32> = comps
            .iter()
            .map(|c| {
                if is_recurrent_comp(ddg, c) {
                    scc_rec_mii(ddg, c, lat)
                } else {
                    1
                }
            })
            .collect();
        let n = ddg.node_count();
        let groups = priority_groups(ddg, &comps, &comp_rec_mii);

        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut ordered = vec![false; n];

        for group in groups {
            order_group(ddg, &group, &depth, &height, &mut order, &mut ordered);
        }
        debug_assert_eq!(order.len(), n);
        order
    }

    fn order_group(
        ddg: &Ddg,
        group: &BTreeSet<NodeId>,
        depth: &[i64],
        height: &[i64],
        order: &mut Vec<NodeId>,
        ordered: &mut [bool],
    ) {
        let in_group_unordered =
            |n: NodeId, ordered: &[bool]| group.contains(&n) && !ordered[n.index()];

        let remaining = |ordered: &[bool]| {
            group
                .iter()
                .copied()
                .filter(|n| !ordered[n.index()])
                .count()
        };

        while remaining(ordered) > 0 {
            // Seed the ready set from nodes adjacent to the ordered prefix.
            let mut ready: BTreeSet<NodeId> = BTreeSet::new();
            let mut sweep = Sweep::TopDown;
            for &o in order.iter() {
                for e in ddg.out_edges(o) {
                    if in_group_unordered(e.dst, ordered) {
                        ready.insert(e.dst);
                    }
                }
            }
            if ready.is_empty() {
                for &o in order.iter() {
                    for e in ddg.in_edges(o) {
                        if in_group_unordered(e.src, ordered) {
                            ready.insert(e.src);
                        }
                    }
                }
                if !ready.is_empty() {
                    sweep = Sweep::BottomUp;
                }
            }
            if ready.is_empty() {
                // Fresh component: start from the highest node (max height).
                let seed = group
                    .iter()
                    .copied()
                    .filter(|n| !ordered[n.index()])
                    .max_by_key(|n| (height[n.index()], std::cmp::Reverse(n.index())))
                    .expect("non-empty remaining group");
                ready.insert(seed);
                sweep = Sweep::TopDown;
            }

            // Alternate sweeps until this group's connected region is exhausted.
            loop {
                while let Some(v) = pick(&ready, sweep, depth, height) {
                    ready.remove(&v);
                    if ordered[v.index()] {
                        continue;
                    }
                    ordered[v.index()] = true;
                    order.push(v);
                    let next: Box<dyn Iterator<Item = &Edge>> = match sweep {
                        Sweep::TopDown => Box::new(ddg.out_edges(v)),
                        Sweep::BottomUp => Box::new(ddg.in_edges(v)),
                    };
                    for e in next {
                        let w = if sweep == Sweep::TopDown {
                            e.dst
                        } else {
                            e.src
                        };
                        if in_group_unordered(w, ordered) {
                            ready.insert(w);
                        }
                    }
                }
                // Switch direction: collect unordered group nodes adjacent to
                // anything ordered so far, on the opposite side.
                sweep = match sweep {
                    Sweep::TopDown => Sweep::BottomUp,
                    Sweep::BottomUp => Sweep::TopDown,
                };
                for &o in order.iter() {
                    let adj: Box<dyn Iterator<Item = &Edge>> = match sweep {
                        Sweep::TopDown => Box::new(ddg.out_edges(o)),
                        Sweep::BottomUp => Box::new(ddg.in_edges(o)),
                    };
                    for e in adj {
                        let w = if sweep == Sweep::TopDown {
                            e.dst
                        } else {
                            e.src
                        };
                        if in_group_unordered(w, ordered) {
                            ready.insert(w);
                        }
                    }
                }
                ready.retain(|v| !ordered[v.index()]);
                if ready.is_empty() {
                    break;
                }
            }
        }
    }

    /// Picks the next node of the ready set: highest height when sweeping
    /// top-down, highest depth when sweeping bottom-up; ties break on the other
    /// metric and then on node index.
    fn pick(
        ready: &BTreeSet<NodeId>,
        sweep: Sweep,
        depth: &[i64],
        height: &[i64],
    ) -> Option<NodeId> {
        ready.iter().copied().max_by_key(|n| {
            let (primary, secondary) = match sweep {
                Sweep::TopDown => (height[n.index()], depth[n.index()]),
                Sweep::BottomUp => (depth[n.index()], height[n.index()]),
            };
            (primary, secondary, std::cmp::Reverse(n.index()))
        })
    }

    /// Builds the ordered list of node groups: each non-trivial SCC in
    /// decreasing RecMII order together with the nodes on paths connecting it
    /// to previously grouped nodes, then everything else. The per-component
    /// RecMIIs arrive precomputed ([`comp_rec_miis`]) so a schedule attempt
    /// never re-runs the binary searches.
    fn priority_groups(
        ddg: &Ddg,
        comps: &[Vec<NodeId>],
        comp_rec_mii: &[u32],
    ) -> Vec<BTreeSet<NodeId>> {
        let mut recurrent: Vec<(u32, Vec<NodeId>)> = comps
            .iter()
            .zip(comp_rec_mii)
            .filter(|(c, _)| is_recurrent_comp(ddg, c))
            .map(|(c, &mii)| (mii, c.clone()))
            .collect();
        recurrent.sort_by_key(|(mii, c)| (std::cmp::Reverse(*mii), c[0].index()));

        let ancestors = reachability(ddg, true);
        let descendants = reachability(ddg, false);

        let mut grouped = vec![false; ddg.node_count()];
        let mut groups: Vec<BTreeSet<NodeId>> = Vec::new();
        for (_, comp) in recurrent {
            let mut group: BTreeSet<NodeId> = BTreeSet::new();
            for &v in &comp {
                if !grouped[v.index()] {
                    group.insert(v);
                }
            }
            // Nodes on paths between earlier groups and this SCC.
            for prev in groups.iter() {
                for &p in prev {
                    for &v in &comp {
                        for mid in ddg.node_ids() {
                            if grouped[mid.index()] || group.contains(&mid) {
                                continue;
                            }
                            let on_path = (descendants[p.index()].contains(&mid)
                                && ancestors[v.index()].contains(&mid))
                                || (descendants[v.index()].contains(&mid)
                                    && ancestors[p.index()].contains(&mid));
                            if on_path {
                                group.insert(mid);
                            }
                        }
                    }
                }
            }
            for &v in &group {
                grouped[v.index()] = true;
            }
            if !group.is_empty() {
                groups.push(group);
            }
        }
        let rest: BTreeSet<NodeId> = ddg.node_ids().filter(|n| !grouped[n.index()]).collect();
        if !rest.is_empty() {
            groups.push(rest);
        }
        groups
    }

    /// RecMII of a single strongly connected component, by binary search over
    /// the feasibility of its internal edges.
    fn scc_rec_mii(ddg: &Ddg, comp: &[NodeId], lat: impl Fn(&Edge) -> u32) -> u32 {
        let inside = |n: NodeId| comp.binary_search(&n).is_ok();
        // Build feasibility check over internal edges only by inflating the
        // latency function: external edges get distance-covered weight 0.
        let feasible = |ii: u32| -> bool {
            // Bellman-Ford on comp nodes only.
            let index_of = |n: NodeId| comp.binary_search(&n).expect("internal node");
            let mut t = vec![0i64; comp.len()];
            for pass in 0..=comp.len() {
                let mut changed = false;
                for &u in comp {
                    for e in ddg.out_edges(u) {
                        if !inside(e.dst) {
                            continue;
                        }
                        let w = i64::from(lat(e)) - i64::from(ii) * i64::from(e.distance);
                        let cand = t[index_of(u)] + w;
                        if cand > t[index_of(e.dst)] {
                            t[index_of(e.dst)] = cand;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    return true;
                }
                if pass == comp.len() {
                    return false;
                }
            }
            true
        };
        let mut ub = 1u32;
        for &u in comp {
            for e in ddg.out_edges(u) {
                if inside(e.dst) {
                    ub += lat(e);
                }
            }
        }
        if feasible(1) {
            return 1;
        }
        let (mut lo, mut hi) = (1u32, ub);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// For each node, the set of nodes that can reach it (`backward == true`)
    /// or that it can reach (`backward == false`), excluding itself unless on a
    /// cycle.
    fn reachability(ddg: &Ddg, backward: bool) -> Vec<BTreeSet<NodeId>> {
        let n = ddg.node_count();
        let mut sets = vec![BTreeSet::new(); n];
        for start in ddg.node_ids() {
            let mut stack = vec![start];
            let mut seen = vec![false; n];
            while let Some(v) = stack.pop() {
                let edges: Box<dyn Iterator<Item = &Edge>> = if backward {
                    Box::new(ddg.in_edges(v))
                } else {
                    Box::new(ddg.out_edges(v))
                };
                for e in edges {
                    let w = if backward { e.src } else { e.dst };
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            for (i, &was_seen) in seen.iter().enumerate() {
                if was_seen {
                    sets[start.index()].insert(NodeId::new(i as u32));
                }
            }
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine() -> MachineConfig {
        MachineConfig::from_spec("4c1b2l64r").unwrap()
    }

    #[test]
    fn order_is_a_permutation() {
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..8).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for w in nodes.windows(2) {
            b.data(w[0], w[1]);
        }
        b.data_dist(nodes[7], nodes[0], 1);
        let ddg = b.build().unwrap();
        let mut order = sms_order(&ddg, &machine());
        assert_eq!(order.len(), 8);
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), 8);
    }

    #[test]
    fn connected_graph_orders_adjacently() {
        // Diamond with a tail: every non-first node should touch the
        // ordered prefix.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let l = b.add_node(OpKind::FpMul);
        let r = b.add_node(OpKind::FpAdd);
        let j = b.add_node(OpKind::FpAdd);
        let s = b.add_node(OpKind::Store);
        b.data(a, l).data(a, r).data(l, j).data(r, j).data(j, s);
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg, &machine());
        assert_eq!(neighbor_adjacency_ratio(&ddg, &order), 1.0);
    }

    #[test]
    fn recurrence_nodes_come_first() {
        // A long-latency recurrence and an independent cheap chain: the
        // recurrence (higher RecMII) must be ordered before the chain.
        let mut b = Ddg::builder();
        let chain0 = b.add_node(OpKind::IntAdd);
        let chain1 = b.add_node(OpKind::IntAdd);
        b.data(chain0, chain1);
        let rec0 = b.add_node(OpKind::FpDiv);
        let rec1 = b.add_node(OpKind::FpAdd);
        b.data(rec0, rec1).data_dist(rec1, rec0, 1);
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg, &machine());
        let pos = |n: NodeId| order.iter().position(|&o| o == n).unwrap();
        assert!(pos(rec0) < pos(chain0));
        assert!(pos(rec1) < pos(chain0));
    }

    #[test]
    fn higher_recmii_scc_ordered_earlier() {
        let mut b = Ddg::builder();
        // slow recurrence: fdiv self-loop (RecMII 18)
        let slow = b.add_node(OpKind::FpDiv);
        b.data_dist(slow, slow, 1);
        // fast recurrence: int add self-loop (RecMII 1)
        let fast = b.add_node(OpKind::IntAdd);
        b.data_dist(fast, fast, 1);
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg, &machine());
        assert_eq!(order[0], slow);
        assert_eq!(order[1], fast);
    }

    #[test]
    fn path_nodes_join_recurrence_groups() {
        // rec1 → bridge → rec2: the bridge should be ordered with the
        // second recurrence group, before any leftover node.
        let mut b = Ddg::builder();
        let r1 = b.add_node(OpKind::FpDiv);
        b.data_dist(r1, r1, 1);
        let bridge = b.add_node(OpKind::FpAdd);
        let r2a = b.add_node(OpKind::FpMul);
        let r2b = b.add_node(OpKind::FpAdd);
        b.data(r1, bridge)
            .data(bridge, r2a)
            .data(r2a, r2b)
            .data_dist(r2b, r2a, 1);
        let leftover = b.add_node(OpKind::Load);
        let _ = leftover;
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg, &machine());
        let pos = |n: NodeId| order.iter().position(|&o| o == n).unwrap();
        assert!(pos(bridge) < pos(leftover));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn deterministic_across_calls() {
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..12)
            .map(|i| {
                b.add_node(if i % 3 == 0 {
                    OpKind::Load
                } else {
                    OpKind::FpAdd
                })
            })
            .collect();
        for i in 1..nodes.len() {
            b.data(nodes[i / 2], nodes[i]);
        }
        let ddg = b.build().unwrap();
        let o1 = sms_order(&ddg, &machine());
        let o2 = sms_order(&ddg, &machine());
        assert_eq!(o1, o2);
    }

    #[test]
    fn disconnected_components_are_all_ordered() {
        let mut b = Ddg::builder();
        for _ in 0..5 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg, &machine());
        assert_eq!(order.len(), 5);
    }
}
