//! Property tests for `IncrementalAsap`: every speculation equals the full
//! `asap_times_into` sweep, every rollback restores the base exactly, and
//! the critical-node marks match a brute-force heaviest-path definition.
//!
//! Each case is checked at the smallest feasible II, where the binding
//! recurrence has zero slack (a lowered edge on it must be reset or the
//! cycle stays stuck at its stale height), and at IIs above it. Raised
//! latencies at the tight II also drive the infeasible-candidate fallback.

use cvliw_ddg::{asap_times_into, Ddg, DepKind, IncrementalAsap, OpKind};
use proptest::prelude::*;

/// A graph plus a base latency and a signed latency change per edge.
type Case = (Ddg, Vec<u32>, Vec<i64>);

/// Valid graphs (forward distance-0 edges, arbitrary loop-carried edges)
/// with per-edge base latencies and changes; about a third of the edges
/// change, each up or down.
fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..12)
        .prop_flat_map(|n| {
            let edge = (0..n, 0..n, 0u32..3, 0u32..7, 0u32..3, 0u64..7);
            (Just(n), prop::collection::vec(edge, 0..(3 * n)))
        })
        .prop_map(|(n, edges)| {
            let mut b = Ddg::builder();
            let ids: Vec<_> = (0..n).map(|_| b.add_node(OpKind::FpAdd)).collect();
            let mut lat = Vec::new();
            let mut delta = Vec::new();
            for (src, dst, dist, l, pick, d) in edges {
                if dist == 0 && src >= dst {
                    continue;
                }
                b.edge(ids[src], ids[dst], DepKind::Data, dist);
                lat.push(l);
                delta.push(if pick == 0 { d as i64 - 3 } else { 0 });
            }
            (b.build().expect("valid by construction"), lat, delta)
        })
}

/// The smallest II at which the system is feasible (the graph's RecMII
/// under these latencies, or 1).
fn tight_ii(ddg: &Ddg, lat: &[u32]) -> u32 {
    let mut asap = Vec::new();
    (1..)
        .find(|&ii| asap_times_into(ddg, ii, lat, &mut asap).is_some())
        .expect("large IIs are feasible")
}

/// Critical by definition: `v` starts a path to a holder `h` of the
/// maximum whose weight closes the gap, `asap[v] + w(v ⇝ h) = length`.
fn brute_force_critical(ddg: &Ddg, ii: u32, lat: &[u32], asap: &[i64], length: i64) -> Vec<bool> {
    let n = ddg.node_count();
    (0..n)
        .map(|v| {
            // Heaviest path weights from `v` (no positive cycles: feasible).
            let mut dist = vec![i64::MIN; n];
            dist[v] = 0;
            for _ in 0..n {
                for (e, &l) in ddg.edges().zip(lat) {
                    let s = dist[e.src.index()];
                    if s != i64::MIN {
                        let t = s + i64::from(l) - i64::from(ii) * i64::from(e.distance);
                        if t > dist[e.dst.index()] {
                            dist[e.dst.index()] = t;
                        }
                    }
                }
            }
            (0..n).any(|h| asap[h] == length && dist[h] != i64::MIN && asap[v] + dist[h] == length)
        })
        .collect()
}

fn check_at(ddg: &Ddg, ii: u32, lat: &[u32], delta: &[i64]) -> Result<(), TestCaseError> {
    let mut base = Vec::new();
    let base_len = asap_times_into(ddg, ii, lat, &mut base);
    let mut inc = IncrementalAsap::default();
    inc.rebuild(ddg, ii, lat);
    prop_assert_eq!(inc.is_feasible(), base_len.is_some());
    match base_len {
        Some(length) => {
            prop_assert_eq!(inc.length(), length);
            prop_assert_eq!(inc.asap(), &base[..]);
            let want = brute_force_critical(ddg, ii, lat, &base, length);
            prop_assert_eq!(inc.critical(), &want[..], "critical marks at ii {}", ii);
        }
        None => prop_assert!(inc.critical().iter().all(|&c| !c)),
    }

    let mut cand = lat.to_vec();
    let mut raised = Vec::new();
    let mut lowered = Vec::new();
    for ((e, slot), &d) in ddg.edges().zip(cand.iter_mut()).zip(delta) {
        let new = u32::try_from(i64::from(*slot) + d).unwrap_or(0);
        if new > *slot {
            raised.push(e.dst);
        } else if new < *slot {
            lowered.push(e.dst);
        }
        *slot = new;
    }
    // Speculate twice from the same base: the second run sees whatever
    // the first rollback left behind.
    for _ in 0..2 {
        let got = inc.speculate(ddg, ii, &cand, &raised, &lowered);
        let mut want_asap = Vec::new();
        let want = asap_times_into(ddg, ii, &cand, &mut want_asap);
        prop_assert_eq!(got, want, "speculated length at ii {}", ii);
        if want.is_some() {
            prop_assert_eq!(inc.asap(), &want_asap[..], "speculated state at ii {}", ii);
        }
        inc.rollback();
        prop_assert_eq!(inc.asap(), &base[..], "rollback at ii {}", ii);
        prop_assert_eq!(inc.length(), base_len.unwrap_or(i64::MAX));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn speculation_matches_full_sweep_and_rolls_back(case in arb_case()) {
        let (ddg, lat, delta) = case;
        let ii = tight_ii(&ddg, &lat);
        for ii in [ii, ii + 1, ii + 3] {
            check_at(&ddg, ii, &lat, &delta)?;
        }
        // Below the RecMII the base itself is infeasible.
        if ii > 1 {
            check_at(&ddg, ii - 1, &lat, &delta)?;
        }
    }
}
