//! Incrementally maintained recurrence-aware ASAP times.
//!
//! Partition refinement evaluates hundreds of candidate single-group moves
//! per II, and each evaluation used to re-run the full Bellman-Ford
//! fixpoint of [`asap_times_into`] from zero. A candidate move only
//! changes the latency of the edges incident to the moved group, so
//! [`IncrementalAsap`] maintains the fixpoint across speculations: it
//! updates only the **affected cone** with a dirty-node worklist seeded
//! from the changed edges' destinations, and restores the previous state
//! via an undo log when the speculation is rolled back.
//!
//! # Exactness
//!
//! The ASAP system `t(v) = max(0, max over in-edges e of t(src(e)) +
//! lat(e) − ii·dist(e))` has a unique **least** fixpoint whenever it is
//! satisfiable, and every other fixpoint dominates it. In the least
//! fixpoint `t(v)` is the heaviest path weight ending at `v` (paths start
//! anywhere at weight 0), so every node with `t(v) > 0` has a **tight**
//! in-edge (`t(src) + w(e) = t(v)`), and every edge on a heaviest path is
//! tight. The speculation algorithm maintains two invariants that pin the
//! result to exactly that least fixpoint, no matter in which order the
//! worklist drains:
//!
//! * **Start below.** Raised edges leave the old fixpoint a valid
//!   under-approximation of the new one (the least fixpoint is monotone in
//!   the latencies). Lowered edges do not: values downstream of a lowered
//!   edge may be *supported only by the old latency* — on a zero-weight
//!   recurrence they would stay stuck at the stale height forever. So the
//!   cone reachable from every lowered edge's destination is reset to 0
//!   first. Nodes outside that cone have all predecessors outside it too
//!   (the cone is successor-closed), so their old values are still exact.
//! * **Recompute, never just relax.** Each popped node is recomputed from
//!   *all* its in-edges, so the state can only move toward the fixpoint;
//!   starting ≤ the least fixpoint it can never overshoot, and when the
//!   worklist drains every constraint holds — the state *is* the least
//!   fixpoint.
//!
//! [`IncrementalAsap::rebuild`] also marks the **critical** nodes — those
//! with a tight path to a holder of the maximum — and the edges that are
//! tight into one ([`IncrementalAsap::is_critical_edge`]). A candidate that
//! lowers none of those edges keeps every holder's heaviest path intact,
//! so its length cannot drop below the base length; partition refinement
//! uses that to reject such moves without speculating.
//!
//! Divergence (the new system is infeasible because `ii` < RecMII, so no
//! finite fixpoint exists) can never drain the worklist; a pop budget
//! bounds the incremental attempt and falls back to the full
//! [`asap_times_into`] sweep, whose pass-counting detection is the
//! definition of infeasibility here. The fallback is also taken when the
//! base state itself is infeasible. Either way the result is **exactly**
//! what the full recompute would produce; debug assertions in the caller
//! (partition refinement) verify that per candidate.

use crate::analysis::asap_times_into;
use crate::graph::{Ddg, NodeId};

/// Pop budget multiplier: speculations that have not converged after
/// `SPEC_BUDGET_PER_NODE · (n + 8)` worklist pops fall back to the full
/// sweep. Generous enough that feasible updates essentially never hit it;
/// infeasible ones (which cannot converge) hit it quickly because the
/// budget is linear while Bellman-Ford's divergence check is quadratic.
const SPEC_BUDGET_PER_NODE: usize = 8;

/// The incrementally maintained ASAP fixpoint of one (graph, II, edge
/// latency vector) state, supporting speculative single-move updates with
/// exact rollback. See the module docs for the algorithm and its
/// exactness argument.
#[derive(Clone, Debug, Default)]
pub struct IncrementalAsap {
    asap: Vec<i64>,
    length: i64,
    /// How many nodes sit at `length` in the base state — lets a
    /// speculation derive its new maximum from the undo log alone unless
    /// every holder of the old maximum was touched.
    max_count: usize,
    feasible: bool,
    /// Per edge: tight into a critical node in the base state (every
    /// edge when infeasible).
    critical_edge: Vec<bool>,
    /// Per node: on a tight path to a holder of the base maximum.
    critical: Vec<bool>,
    /// Successor-closed set of nodes reset for a lowered-edge speculation.
    cone: Vec<u32>,
    in_cone: Vec<bool>,
    /// Dirty-node worklist (LIFO; the fixpoint is order-independent).
    queue: Vec<u32>,
    in_queue: Vec<bool>,
    /// `(node, previous value)` log of the active speculation, replayed in
    /// reverse by [`IncrementalAsap::rollback`].
    undo: Vec<(u32, i64)>,
    /// Whether the active speculation fell back to a full sweep (the
    /// pre-speculation state then lives in `full_tmp`).
    swapped_full: bool,
    full_tmp: Vec<i64>,
}

impl IncrementalAsap {
    /// Rebuilds the fixpoint from scratch for the given edge-latency
    /// vector (aligned with `ddg.edges()` order) — the non-incremental
    /// baseline every speculation is measured against — and marks the
    /// critical nodes and edges of the new base state.
    pub fn rebuild(&mut self, ddg: &Ddg, ii: u32, edge_lat: &[u32]) {
        debug_assert!(self.undo.is_empty() && !self.swapped_full);
        let n = ddg.node_count();
        match asap_times_into(ddg, ii, edge_lat, &mut self.asap) {
            Some(length) => {
                self.feasible = true;
                self.length = length;
                self.max_count = self.asap.iter().filter(|&&t| t == length).count();
            }
            None => {
                self.feasible = false;
                self.length = i64::MAX;
                self.max_count = 0;
            }
        }
        self.in_cone.clear();
        self.in_cone.resize(n, false);
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        self.cone.clear();
        self.queue.clear();
        self.critical_edge.clear();
        self.critical.clear();
        self.critical.resize(n, false);
        if !self.feasible {
            self.critical_edge.resize(ddg.edge_count(), true);
            return;
        }
        let asap = &self.asap;
        let tight = |eid: u32| {
            let e = ddg.edge(eid);
            asap[e.src.index()] + i64::from(edge_lat[eid as usize])
                - i64::from(ii) * i64::from(e.distance)
                == asap[e.dst.index()]
        };

        // Critical nodes: backwards along tight edges from every holder of
        // the maximum (`cone` doubles as the search stack).
        for (v, &t) in asap.iter().enumerate() {
            if t == self.length {
                self.critical[v] = true;
                self.cone.push(v as u32);
            }
        }
        while let Some(v) = self.cone.pop() {
            for &eid in ddg.in_edge_ids(NodeId::new(v)) {
                let u = ddg.edge(eid).src.index();
                if !self.critical[u] && tight(eid) {
                    self.critical[u] = true;
                    self.cone.push(u as u32);
                }
            }
        }
        let critical = &self.critical;
        self.critical_edge.extend(
            (0..ddg.edge_count() as u32)
                .map(|eid| critical[ddg.edge(eid).dst.index()] && tight(eid)),
        );
    }

    /// Whether the maintained base state satisfies all recurrences.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// `max(asap)` of the maintained state (the estimated issue span);
    /// `i64::MAX` when infeasible.
    #[must_use]
    pub fn length(&self) -> i64 {
        self.length
    }

    /// The maintained ASAP times. During a speculation this is the
    /// *speculated* state (meaningful only when the speculation returned
    /// `Some`); otherwise the base state.
    #[must_use]
    pub fn asap(&self) -> &[i64] {
        &self.asap
    }

    /// Whether edge `eid` is tight into a critical node of the base state
    /// (always true when the base is infeasible). A candidate that lowers
    /// no such edge cannot end below the base [`IncrementalAsap::length`]:
    /// every holder of the maximum keeps a heaviest path of unlowered
    /// edges.
    #[must_use]
    pub fn is_critical_edge(&self, eid: u32) -> bool {
        self.critical_edge[eid as usize]
    }

    /// Per node: whether it has a tight path to a holder of the base
    /// maximum (all false when the base is infeasible).
    #[must_use]
    pub fn critical(&self) -> &[bool] {
        &self.critical
    }

    /// The nodes whose ASAP value the active speculation changed, as undo
    /// records `(node index, previous value)` — possibly with duplicates,
    /// possibly including nodes whose value netted out unchanged. `None`
    /// when the speculation ran the full-sweep fallback (every node may
    /// have changed).
    #[must_use]
    pub fn spec_changed(&self) -> Option<&[(u32, i64)]> {
        if self.swapped_full {
            None
        } else {
            Some(&self.undo)
        }
    }

    /// Speculatively re-solves the fixpoint after an edge-latency change.
    ///
    /// `edge_lat` must already contain the *candidate* latencies;
    /// `raised_dsts` / `lowered_dsts` are the destination nodes of the
    /// edges whose latency increased / decreased (duplicates allowed).
    /// Returns the new `max(asap)` or `None` when the candidate system is
    /// infeasible, exactly as [`asap_times_into`] would. The caller must
    /// end every speculation with [`IncrementalAsap::rollback`] — there is
    /// deliberately no commit: accepted moves are rare, and a fresh
    /// [`IncrementalAsap::rebuild`] is both cheap and obviously exact.
    pub fn speculate(
        &mut self,
        ddg: &Ddg,
        ii: u32,
        edge_lat: &[u32],
        raised_dsts: &[NodeId],
        lowered_dsts: &[NodeId],
    ) -> Option<i64> {
        debug_assert!(self.undo.is_empty() && !self.swapped_full && self.queue.is_empty());
        if !self.feasible {
            return self.speculate_full(ddg, ii, edge_lat);
        }
        let n = ddg.node_count();

        // Reset the lowered cone (successor-closed) to the unsupported
        // floor; everything in it gets recomputed from its predecessors.
        for &d in lowered_dsts {
            let i = d.index();
            if !self.in_cone[i] {
                self.in_cone[i] = true;
                self.cone.push(i as u32);
            }
        }
        let mut head = 0;
        while head < self.cone.len() {
            let v = NodeId::new(self.cone[head]);
            head += 1;
            for &eid in ddg.out_edge_ids(v) {
                let w = ddg.edge(eid).dst.index();
                if !self.in_cone[w] {
                    self.in_cone[w] = true;
                    self.cone.push(w as u32);
                }
            }
        }
        for i in 0..self.cone.len() {
            let v = self.cone[i];
            self.undo.push((v, self.asap[v as usize]));
            self.asap[v as usize] = 0;
            self.push(v);
        }
        for &d in raised_dsts {
            self.push(d.index() as u32);
        }
        for &v in &self.cone {
            self.in_cone[v as usize] = false;
        }
        self.cone.clear();

        let budget = SPEC_BUDGET_PER_NODE * (n + 8);
        let mut pops = 0usize;
        while let Some(v) = self.pop() {
            pops += 1;
            if pops > budget {
                // Either infeasible (can never converge) or pathologically
                // slow; the full sweep settles both exactly.
                while let Some(w) = self.queue.pop() {
                    self.in_queue[w as usize] = false;
                }
                for &(w, old) in self.undo.iter().rev() {
                    self.asap[w as usize] = old;
                }
                self.undo.clear();
                return self.speculate_full(ddg, ii, edge_lat);
            }
            let node = NodeId::new(v);
            let mut val = 0i64;
            for &eid in ddg.in_edge_ids(node) {
                let e = ddg.edge(eid);
                let t = self.asap[e.src.index()] + i64::from(edge_lat[eid as usize])
                    - i64::from(ii) * i64::from(e.distance);
                val = val.max(t);
            }
            if val != self.asap[v as usize] {
                self.undo.push((v, self.asap[v as usize]));
                self.asap[v as usize] = val;
                for &eid in ddg.out_edge_ids(node) {
                    self.push(ddg.edge(eid).dst.index() as u32);
                }
            }
        }
        // Derive the new maximum from the undo log: untouched nodes kept
        // their base values, whose maximum is `length` iff some holder of
        // the base maximum was left untouched. Only when the speculation
        // touched *every* holder is a full scan needed (`cone`/`in_cone`
        // are idle here and double as the distinct-node filter — a node's
        // first undo record carries its true pre-speculation value).
        let mut max_new = i64::MIN;
        let mut holders_touched = 0usize;
        for k in 0..self.undo.len() {
            let (v, old) = self.undo[k];
            if !self.in_cone[v as usize] {
                self.in_cone[v as usize] = true;
                self.cone.push(v);
                if old == self.length {
                    holders_touched += 1;
                }
                max_new = max_new.max(self.asap[v as usize]);
            }
        }
        for &v in &self.cone {
            self.in_cone[v as usize] = false;
        }
        self.cone.clear();
        Some(if holders_touched < self.max_count {
            self.length.max(max_new)
        } else {
            self.asap.iter().copied().max().unwrap_or(0)
        })
    }

    /// Ends the active speculation and restores the base state exactly.
    pub fn rollback(&mut self) {
        if self.swapped_full {
            std::mem::swap(&mut self.asap, &mut self.full_tmp);
            self.swapped_full = false;
        } else {
            while let Some((v, old)) = self.undo.pop() {
                self.asap[v as usize] = old;
            }
        }
    }

    fn speculate_full(&mut self, ddg: &Ddg, ii: u32, edge_lat: &[u32]) -> Option<i64> {
        let res = asap_times_into(ddg, ii, edge_lat, &mut self.full_tmp);
        std::mem::swap(&mut self.asap, &mut self.full_tmp);
        self.swapped_full = true;
        res
    }

    fn push(&mut self, v: u32) {
        if !self.in_queue[v as usize] {
            self.in_queue[v as usize] = true;
            self.queue.push(v);
        }
    }

    fn pop(&mut self) -> Option<u32> {
        let v = self.queue.pop()?;
        self.in_queue[v as usize] = false;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    /// Chain a→b→c plus the recurrence c→a (distance 1).
    fn ring() -> Ddg {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        let z = b.add_node(OpKind::FpAdd);
        b.data(x, y).data(y, z).data_dist(z, x, 1);
        b.build().unwrap()
    }

    fn full(ddg: &Ddg, ii: u32, lat: &[u32]) -> (Option<i64>, Vec<i64>) {
        let mut asap = Vec::new();
        let r = asap_times_into(ddg, ii, lat, &mut asap);
        (r, asap)
    }

    #[test]
    fn raise_matches_full_recompute() {
        let ddg = ring();
        let base = vec![3u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 10, &base);
        assert!(inc.is_feasible());

        let raised = vec![5u32, 3, 3]; // edge 0 (a→b) got a bus penalty
        let got = inc.speculate(&ddg, 10, &raised, &[NodeId::new(1)], &[]);
        let (want, want_asap) = full(&ddg, 10, &raised);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        inc.rollback();
        let (_, base_asap) = full(&ddg, 10, &base);
        assert_eq!(inc.asap(), &base_asap[..]);
    }

    #[test]
    fn lower_on_tight_recurrence_matches_full_recompute() {
        // At II = RecMII the cycle is zero-weight: exactly the case where
        // naive re-relaxation without the cone reset would stay stuck at
        // the stale (higher) fixpoint.
        let ddg = ring();
        let with_bus = vec![5u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 11, &with_bus); // RecMII of the raised system
        assert!(inc.is_feasible());

        let without = vec![3u32, 3, 3];
        let got = inc.speculate(&ddg, 11, &without, &[], &[NodeId::new(1)]);
        let (want, want_asap) = full(&ddg, 11, &without);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        inc.rollback();
    }

    #[test]
    fn infeasible_speculation_is_detected_and_rolls_back() {
        let ddg = ring();
        let base = vec![3u32, 3, 3]; // RecMII 9
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 9, &base);
        assert!(inc.is_feasible());

        let raised = vec![9u32, 3, 3]; // cycle weight 15 > 9: infeasible
        assert_eq!(
            inc.speculate(&ddg, 9, &raised, &[NodeId::new(1)], &[]),
            None
        );
        inc.rollback();
        let (_, base_asap) = full(&ddg, 9, &base);
        assert_eq!(inc.asap(), &base_asap[..]);
        assert!(inc.is_feasible());
    }

    #[test]
    fn infeasible_base_falls_back_to_full() {
        let ddg = ring();
        let heavy = vec![9u32, 9, 9];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 3, &heavy);
        assert!(!inc.is_feasible());
        assert_eq!(inc.length(), i64::MAX);

        let light = vec![1u32, 1, 1];
        let got = inc.speculate(&ddg, 3, &light, &[], &[NodeId::new(1), NodeId::new(2)]);
        let (want, want_asap) = full(&ddg, 3, &light);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        assert!(inc.spec_changed().is_none());
        inc.rollback();
    }

    #[test]
    fn lowering_every_max_holder_still_finds_the_new_max() {
        // Base fixpoint a=0, b=3, c=6: the unique holder of the maximum is
        // in the lowered cone, so the incremental max derivation must take
        // the full-scan fallback and still agree with the full recompute.
        let ddg = ring();
        let base = vec![3u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 20, &base);
        assert_eq!(inc.length(), 6);

        let lowered = vec![3u32, 1, 3];
        let got = inc.speculate(&ddg, 20, &lowered, &[], &[NodeId::new(2)]);
        let (want, want_asap) = full(&ddg, 20, &lowered);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        inc.rollback();
    }

    #[test]
    fn spec_changed_reports_the_touched_cone() {
        let ddg = ring();
        let base = vec![3u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 20, &base);
        let raised = vec![6u32, 3, 3];
        inc.speculate(&ddg, 20, &raised, &[NodeId::new(1)], &[]);
        let changed = inc.spec_changed().expect("incremental path");
        assert!(changed.iter().any(|&(v, _)| v == 1));
        inc.rollback();
        assert!(inc.spec_changed().expect("no active spec").is_empty());
    }
}
