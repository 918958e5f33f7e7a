//! §5.1: replicate to reduce the schedule length.
//!
//! For loops with small trip counts the prolog/epilog dominates execution
//! time, so shaving the schedule length matters more than the II. The
//! extension finds communication edges on the critical path of one
//! iteration and copies the producer's subgraph into just the consumer's
//! cluster (Figure 11) — without necessarily removing the communication —
//! whenever that shortens the estimated schedule and fits the resources.

use cvliw_ddg::{time_bounds, Ddg, NodeId, OpClass};
use cvliw_machine::MachineConfig;
use cvliw_sched::{Assignment, ClusterSet, LoopAnalysis};

use crate::liveness::{always_anchor_into, dead_instances_dense, on_cycle_into, DenseViewRef};

/// Upper bound on extension rounds; each round commits one replication.
const MAX_ROUNDS: usize = 8;

/// The assignment-adjusted edge latency: the producer's base latency, plus
/// the transfer cost when some consumer instance lives in a cluster
/// without the producer (pair-dependent on point-to-point fabrics, the
/// flat bus latency on shared buses). `base_lat` is either a machine
/// lookup or the cached vector.
fn comm_lat<'a>(
    machine: &'a MachineConfig,
    assignment: &'a Assignment,
    base_lat: &'a impl Fn(NodeId) -> u32,
) -> impl Fn(&cvliw_ddg::Edge) -> u32 + 'a {
    let uniform = machine.uniform_transfer_latency();
    move |e: &cvliw_ddg::Edge| {
        let base = base_lat(e.src);
        if !e.is_data() {
            return base;
        }
        let missing = assignment
            .instances(e.dst)
            .difference(assignment.instances(e.src));
        if missing.is_empty() {
            base
        } else {
            base + cvliw_sched::comm_penalty(machine, assignment, e.src, missing, uniform)
        }
    }
}

/// Estimated critical-path length of one iteration (issue span) with bus
/// latency charged on cross-cluster data edges; `None` below RecMII.
/// `extend_for_length` inlines this (one `time_bounds` per round shares slacks
/// with the zero-slack filter); the tests keep it as the oracle.
#[cfg_attr(not(test), allow(dead_code))]
fn estimated_length(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    assignment: &Assignment,
    base_lat: &impl Fn(NodeId) -> u32,
) -> Option<i64> {
    let lat = comm_lat(machine, assignment, base_lat);
    time_bounds(ddg, ii, lat).map(|tb| tb.length)
}

/// Applies the §5.1 extension: repeatedly pick a zero-slack cross-cluster
/// data edge, replicate the producer into that one consumer cluster, and
/// keep the change only if the estimated schedule length shrinks. Producer
/// latencies are read from the loop's cached [`LoopAnalysis`].
#[must_use]
pub fn extend_for_length(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    mut assignment: Assignment,
    analysis: &LoopAnalysis,
) -> Assignment {
    let base_lat = &|n: NodeId| analysis.node_lat()[n.index()];
    let n = ddg.node_count();
    // Buffers reused across rounds and candidates: the Figure-4 walk, the
    // Figure-5 liveness query, the censuses and the span estimate.
    let mut cand_lat: Vec<u32> = Vec::new();
    let mut asap: Vec<i64> = Vec::new();
    let mut coms: Vec<NodeId> = Vec::new();
    let mut is_com = vec![false; n];
    let mut visited = vec![0u32; n];
    let mut added_mark = vec![0u32; n];
    let mut epoch = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    let mut adds: Vec<NodeId> = Vec::new();
    let mut usage: Vec<[u32; 3]> = Vec::new();
    let mut coms_buf: Vec<NodeId> = Vec::new();
    let mut com_src: Vec<u8> = Vec::new();
    let mut live: Vec<ClusterSet> = Vec::new();
    let mut worklist: Vec<(NodeId, u8)> = Vec::new();
    let mut dead: Vec<(NodeId, u8)> = Vec::new();
    let mut removable: Vec<(NodeId, u8)> = Vec::new();
    let mut on_cycle = Vec::new();
    on_cycle_into(ddg, &mut on_cycle);
    let mut always_anchor = Vec::new();
    always_anchor_into(ddg, &on_cycle, &mut always_anchor);

    for _ in 0..MAX_ROUNDS {
        // One full ASAP/ALAP pass per round gives both the current length
        // and the slacks (`estimated_length` is `time_bounds(..).length`).
        let Some(tb) = time_bounds(ddg, ii, comm_lat(machine, &assignment, base_lat)) else {
            return assignment;
        };
        let current_len = tb.length;
        assignment.communicated_into(ddg, &mut coms);
        for &v in &coms {
            is_com[v.index()] = true;
        }
        assignment.class_usage_into(ddg, machine.clusters(), &mut usage);

        // Zero-slack cross edges: slacks are materialized up front so the
        // assignment can be mutated while iterating.
        let edge_lat: Vec<u32> = {
            let lat = comm_lat(machine, &assignment, base_lat);
            ddg.edges().map(&lat).collect()
        };

        let edges: Vec<cvliw_ddg::Edge> = ddg.edges().copied().collect();
        let mut committed = false;
        'edges: for (idx, e) in edges.iter().enumerate() {
            if !e.is_data() {
                continue;
            }
            let missing = assignment
                .instances(e.dst)
                .difference(assignment.instances(e.src));
            if missing.is_empty() {
                continue;
            }
            let slack = tb.alap[e.dst.index()] - tb.asap[e.src.index()] - i64::from(edge_lat[idx])
                + i64::from(ii) * i64::from(e.distance);
            if slack != 0 {
                continue; // not on the critical path
            }
            // Replicate the producer into each consumer cluster that needs
            // it, one cluster at a time (Figure 11 replicates A into
            // cluster 1 only). Candidates are evaluated by applying the
            // single-target Figure-4 subgraph in place and undoing it on
            // rejection — exact, because the walk only records instances
            // absent from the target cluster.
            let com = e.src;
            for target in missing.iter() {
                epoch += 1;
                adds.clear();
                stack.clear();
                stack.push(com);
                while let Some(u) = stack.pop() {
                    if visited[u.index()] == epoch {
                        continue;
                    }
                    visited[u.index()] = epoch;
                    if assignment.instances(u).contains(target) {
                        continue; // already available locally
                    }
                    added_mark[u.index()] = epoch;
                    adds.push(u);
                    for &p in ddg.data_preds(u) {
                        if is_com[p.index()] && p != com {
                            continue; // broadcast value: available everywhere
                        }
                        stack.push(p);
                    }
                }
                adds.sort_unstable();

                for &u in &adds {
                    assignment.add_instance(u, target);
                }
                // Anticipated removals: Figure-5 liveness over the applied
                // state (== the hypothetical state), existing instances
                // only — an added pair is not a removal.
                assignment.communicated_into(ddg, &mut coms_buf);
                com_src.clear();
                com_src.extend(coms_buf.iter().map(|&v| assignment.copy_source(v)));
                dead_instances_dense(
                    ddg,
                    DenseViewRef {
                        instances: assignment.instance_sets(),
                        coms: &coms_buf,
                        com_src: &com_src,
                    },
                    &always_anchor,
                    &mut live,
                    &mut worklist,
                    &mut dead,
                );
                removable.clear();
                removable.extend(
                    dead.iter()
                        .filter(|&&(u, c)| !(c == target && added_mark[u.index()] == epoch)),
                );

                // The §3.3 feasibility rule on the round's usage census:
                // the target cluster must absorb the new instances, freed
                // slots credited.
                let fits = {
                    let mut ok = true;
                    'cap: for c in 0..machine.clusters() {
                        for class in OpClass::ALL {
                            let extra: u32 = if c == target {
                                adds.iter()
                                    .filter(|&&u| ddg.kind(u).class() == class)
                                    .count() as u32
                            } else {
                                0
                            };
                            let freed = removable
                                .iter()
                                .filter(|&&(u, rc)| rc == c && ddg.kind(u).class() == class)
                                .count() as u32;
                            let cap = u32::from(machine.fu_count_in(c, class)) * ii;
                            if usage[c as usize][class.index()] + extra > cap + freed {
                                ok = false;
                                break 'cap;
                            }
                        }
                    }
                    ok
                };
                #[cfg(debug_assertions)]
                {
                    // Differential guard against the map-based oracle.
                    for &u in &adds {
                        assignment.remove_instance(u, target);
                    }
                    let oracle_coms = assignment.communicated(ddg).into_iter().collect();
                    let oracle = crate::plan::replication_plan_into(
                        ddg,
                        &assignment,
                        &oracle_coms,
                        com,
                        ClusterSet::single(target),
                    );
                    debug_assert_eq!(oracle.subgraph(), adds);
                    debug_assert_eq!(oracle.removable, removable);
                    debug_assert_eq!(oracle.fits(ddg, machine, ii, &assignment), fits);
                    for &u in &adds {
                        assignment.add_instance(u, target);
                    }
                }
                if !fits {
                    for &u in &adds {
                        assignment.remove_instance(u, target);
                    }
                    continue;
                }
                // Bus bandwidth must keep fitting (replication can only
                // reduce the communication count, but be defensive); then
                // the candidate length needs the ASAP sweep only.
                let shorter = coms_buf.len() as u32 <= machine.coms_capacity_per_ii(ii) && {
                    let lat = comm_lat(machine, &assignment, base_lat);
                    cand_lat.clear();
                    cand_lat.extend(ddg.edges().map(&lat));
                    matches!(
                        cvliw_ddg::asap_times_into(ddg, ii, &cand_lat, &mut asap),
                        Some(new_len) if new_len < current_len
                    )
                };
                if shorter {
                    committed = true;
                    break 'edges;
                }
                for &u in &adds {
                    assignment.remove_instance(u, target);
                }
            }
        }
        for &v in &coms {
            is_com[v.index()] = false;
        }
        if !committed {
            break;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    /// The Figure-11 situation: A feeds B (local), D (cluster 1) and F
    /// (cluster 3); the A→D edge is on the critical path.
    fn fig11() -> (Ddg, Assignment) {
        let mut bld = Ddg::builder();
        let a = bld.add_labeled(OpKind::IntAdd, "A");
        let b = bld.add_labeled(OpKind::IntAdd, "B");
        let c = bld.add_labeled(OpKind::IntAdd, "C");
        let d = bld.add_labeled(OpKind::IntAdd, "D");
        let e = bld.add_labeled(OpKind::IntAdd, "E");
        let f = bld.add_labeled(OpKind::IntAdd, "F");
        bld.data(a, b).data(b, c); // cluster 2 chain
        bld.data(a, d).data(d, e); // cluster 1 chain (critical: depth 3)
        bld.data(a, f); // cluster 3 single consumer
        let ddg = bld.build().unwrap();
        // clusters: A,B,C → 1 (index 1); D,E → 0; F → 2.
        let asg = Assignment::from_partition(&[1, 1, 1, 0, 0, 2]);
        (ddg, asg)
    }

    fn machine() -> MachineConfig {
        cvliw_machine::MachineConfig::new(
            4,
            2,
            1,
            64,
            cvliw_machine::FuCounts {
                int: 4,
                fp: 4,
                mem: 4,
            },
            cvliw_machine::LatencyTable::UNIT,
        )
        .unwrap()
    }

    #[test]
    fn replicates_onto_the_critical_path_only() {
        let (ddg, asg) = fig11();
        let m = machine();
        let ii = 3;
        let base = |n: NodeId| m.latency(ddg.kind(n));
        let before = estimated_length(&ddg, &m, ii, &asg, &base).unwrap();
        let extended = extend_for_length(&ddg, &m, ii, asg, &LoopAnalysis::new(&ddg, &m));
        let after = estimated_length(&ddg, &m, ii, &extended, &base).unwrap();
        assert!(after < before, "length must shrink: {after} vs {before}");
        // A was copied into cluster 0 (the critical consumer D's cluster)…
        let a = ddg.find_by_label("A").unwrap();
        assert!(extended.instances(a).contains(0));
        // …but the communication of A itself may remain for F's cluster.
        assert!(extended.instances(a).len() >= 2);
    }

    #[test]
    fn no_op_when_nothing_is_critical_across_clusters() {
        // Everything in one cluster: nothing to do.
        let mut bld = Ddg::builder();
        let a = bld.add_node(OpKind::IntAdd);
        let b = bld.add_node(OpKind::IntAdd);
        bld.data(a, b);
        let ddg = bld.build().unwrap();
        let asg = Assignment::from_partition(&[0, 0]);
        let m = machine();
        let out = extend_for_length(&ddg, &m, 2, asg.clone(), &LoopAnalysis::new(&ddg, &m));
        assert_eq!(out, asg);
    }
}
