//! Differential properties of incremental partition refinement.
//!
//! The production refinement path earns its speed from three layers that
//! all skip work: lazy lexicographic rejection (most candidates are
//! discarded from a partial score), incremental ASAP maintenance (the
//! survivors are scored by updating only the affected cone of the
//! pseudo-schedule fixpoint) and the `(op, dest-cluster)` move-result
//! cache (rejected moves re-examined in later passes and later IIs hit a
//! version-checked cache). None of that may be observable: on random
//! loops across every interconnect topology variant, the production path
//! must produce the **identical accepted-move sequence and final
//! partition** as a naive oracle that re-scores every candidate with a
//! full from-scratch pseudo-schedule.
//!
//! The II sweep mirrors the driver's Figure-2 climb — each II refines the
//! previous II's result, with one `RefineScratch` and one `RefineCache`
//! carried across the whole chain, exactly as
//! `cvliw_replicate::CompileContext` does — so cache entries filled at
//! one II are re-validated at the next.

use cvliw::machine::MachineConfig;
use cvliw::partition::{
    partition_loop_scratch, refine_existing_oracle, refine_existing_trace, RefineCache, RefineMove,
    RefineScratch,
};
use cvliw::sched::LoopAnalysis;
use cvliw::workloads::{generate_loop, GeneratorParams};
use proptest::prelude::*;

/// Every interconnect fabric the machine model supports, on the cluster
/// counts the suite exercises: the paper's shared buses (2- and
/// 4-cluster, narrow and wide) plus the PR 5 topology appendix's
/// point-to-point rings (both latencies) and crossbar.
const TOPOLOGY_VARIANTS: [&str; 6] = [
    "2c1b2l64r",
    "4c1b2l64r",
    "4c4b4l64r",
    "4c-ring1l64r",
    "4c-ring2l64r",
    "4c-xbar1l64r",
];

/// IIs swept above the MII — enough for the cache to see re-validation
/// across IIs without making the (slow, full-rescoring) oracle the
/// dominant cost of the test suite.
const II_STEPS: u32 = 3;

fn arb_params() -> impl Strategy<Value = GeneratorParams> {
    (
        (1usize..=5, 1usize..=4),
        0.0f64..0.6,
        0.0f64..1.0,
        0.0f64..0.3,
    )
        .prop_map(
            |((chains, depth), coupling, shared_addr, recurrence)| GeneratorParams {
                chains: (chains, chains + 2),
                depth: (depth, depth + 2),
                coupling,
                shared_addr,
                recurrence,
                ..GeneratorParams::medium()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Production refinement (lazy rejection + incremental ASAP + move
    /// cache, state carried across the II climb) versus the full-recompute
    /// oracle, move for move.
    #[test]
    fn incremental_refinement_matches_full_recompute_oracle(
        seed in 0u64..10_000,
        params in arb_params(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        for spec in TOPOLOGY_VARIANTS {
            let machine = MachineConfig::from_spec(spec).expect("preset parses");
            let analysis = LoopAnalysis::new(&ddg, &machine);
            let mii = analysis.mii();
            // One scratch and one cache across the whole climb, like the
            // driver's per-(loop, machine) compile scratch.
            let mut scratch = RefineScratch::default();
            let mut part = partition_loop_scratch(&ddg, &machine, mii, &analysis, &mut scratch);
            let mut cache = RefineCache::default();
            for ii in mii..mii + II_STEPS {
                let (oracle_part, oracle_moves) =
                    refine_existing_oracle(&ddg, &machine, ii, part.clone(), &analysis);
                let mut trace: Vec<RefineMove> = Vec::new();
                let refined = refine_existing_trace(
                    &ddg,
                    &machine,
                    ii,
                    part.clone(),
                    &analysis,
                    &mut scratch,
                    Some(&mut cache),
                    &mut trace,
                );
                prop_assert_eq!(
                    &trace, &oracle_moves,
                    "{} at ii {}: accepted-move sequences diverged", spec, ii
                );
                prop_assert_eq!(
                    &refined, &oracle_part,
                    "{} at ii {}: refined partitions diverged", spec, ii
                );
                part = refined;
            }
        }
    }

    /// The cache layer alone must also be invisible when entries go stale
    /// the hard way: running the *same* climb uncached must retrace the
    /// cached run exactly (the unit tests in `refine.rs` cover single
    /// calls; this pins the cross-II chain on generated loops).
    #[test]
    fn cached_climb_retraces_uncached_climb(
        seed in 0u64..10_000,
        params in arb_params(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        for spec in TOPOLOGY_VARIANTS {
            let machine = MachineConfig::from_spec(spec).expect("preset parses");
            let analysis = LoopAnalysis::new(&ddg, &machine);
            let mii = analysis.mii();
            let mut scratch = RefineScratch::default();
            let seed_part = partition_loop_scratch(&ddg, &machine, mii, &analysis, &mut scratch);
            let mut cache = RefineCache::default();
            let mut cached_part = seed_part.clone();
            let mut uncached_part = seed_part;
            for ii in mii..mii + II_STEPS {
                let mut cached_trace: Vec<RefineMove> = Vec::new();
                cached_part = refine_existing_trace(
                    &ddg,
                    &machine,
                    ii,
                    cached_part.clone(),
                    &analysis,
                    &mut scratch,
                    Some(&mut cache),
                    &mut cached_trace,
                );
                let mut uncached_trace: Vec<RefineMove> = Vec::new();
                uncached_part = refine_existing_trace(
                    &ddg,
                    &machine,
                    ii,
                    uncached_part.clone(),
                    &analysis,
                    &mut scratch,
                    None,
                    &mut uncached_trace,
                );
                prop_assert_eq!(
                    &cached_trace, &uncached_trace,
                    "{} at ii {}: cache changed the move sequence", spec, ii
                );
                prop_assert_eq!(&cached_part, &uncached_part);
            }
        }
    }
}
