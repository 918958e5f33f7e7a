//! Equivalence property test for the per-loop compile state: one
//! `CompileContext` shared across all five modes — its memoized refinement
//! chain and engine outcomes, its dirty `CompileScratch`, its seed-racing
//! threads — and a `SchedScratch` reused across attempts must produce
//! **bit-identical** results — same instances, copies, length and II — to
//! a fresh context (`compile_loop`) or a fresh scratch per call, across
//! generated loops × machines × modes.
//!
//! This is the determinism contract of the perf work: memoization and
//! scratch reuse are observationally pure, and `docs/RESULTS.md` plus the
//! golden emitter files stay byte-identical because every cell compiles to
//! the same statistics no matter what the context compiled before. (The
//! cached analysis itself is pinned against the one-shot `sms_order` /
//! `rec_mii` / `sccs` by `cvliw_sched`'s `cache::tests`.)

use cvliw::machine::{FuCounts, LatencyTable, MachineConfig};
use cvliw::prelude::*;
use cvliw::replicate::{compile_loop_ctx, CompileContext};
use cvliw::sched::{
    schedule_with_scratch, Assignment, LoopAnalysis, OrderStrategy, SchedScratch, ScheduleRequest,
};
use cvliw::workloads::{generate_loop, GeneratorParams};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = GeneratorParams> {
    (
        (1usize..=6, 1usize..=5),
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

fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    (
        prop_oneof![Just(1u8), Just(2u8), Just(4u8)],
        1u8..=4,
        1u32..=4,
        prop_oneof![Just(32u32), Just(64u32), Just(128u32)],
    )
        .prop_map(|(clusters, buses, bus_lat, regs)| {
            let per = 4 / clusters;
            MachineConfig::new(
                clusters,
                buses,
                bus_lat,
                regs,
                FuCounts {
                    int: per,
                    fp: per,
                    mem: per,
                },
                LatencyTable::PAPER,
            )
            .expect("valid machine")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One shared `CompileContext` across all five modes versus a fresh
    /// self-contained `compile_loop` per mode: identical schedules,
    /// assignments, statistics — and identical errors when no II fits.
    #[test]
    fn cached_context_is_bit_identical_across_all_modes(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let ctx = CompileContext::new(&ddg, &machine);

        for mode in Mode::ALL {
            let opts = CompileOptions { mode, max_ii: None };
            let fresh = compile_loop(&ddg, &machine, &opts);
            let shared = compile_loop_ctx(&ddg, &machine, &opts, &ctx);
            match (&fresh, &shared) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.schedule, &b.schedule, "mode {}", mode.name());
                    prop_assert_eq!(&a.assignment, &b.assignment);
                    prop_assert_eq!(a.stats, b.stats);
                    // The shared fields the suite aggregates, spelled out.
                    prop_assert_eq!(a.stats.ii, b.stats.ii);
                    prop_assert_eq!(a.schedule.length(), b.schedule.length());
                    prop_assert_eq!(a.schedule.op_count(), b.schedule.op_count());
                    prop_assert_eq!(a.schedule.copy_count(), b.schedule.copy_count());
                    a.schedule.verify(&ddg, &machine).expect("schedule verifies");
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(
                    false,
                    "fresh and shared contexts disagree on success for mode {}",
                    mode.name()
                ),
            }
        }
    }

    /// Scratch reuse is observationally pure: compiling through one
    /// `CompileContext` — whose `CompileScratch` stays dirty across modes
    /// and repeated compilations — must equal a fresh-state `compile_loop`
    /// per call: same II, same schedule, same statistics. "Dirty" here
    /// covers every piece of incremental refinement state this crate
    /// maintains: the `RefineScratch` with its incremental-ASAP engine
    /// (per-candidate edge-latency overrides, cone worklists, undo logs),
    /// the `(op, dest-cluster)` move-result `RefineCache` shared by the
    /// whole II-climb chain, and the reused base-state communication
    /// counts of the multilevel walk. An arbitrary capped pre-compile
    /// first abandons the II climb at an arbitrary prefix — possibly as
    /// an error — so the comparison passes start from a genuinely
    /// arbitrary dirty state, not just a completed one. The second pass
    /// through every mode then exercises reuse of buffers left behind by
    /// a *different* mode's attempt loop (including the failure-driven
    /// II-skip state), and the driver's debug assertions re-verify every
    /// skipped attempt along the way.
    ///
    /// The scratch itself arrives *recycled from a different loop*, the
    /// way the suite's loop-granular worker pool hands it around: a donor
    /// loop is compiled first and its `CompileScratch` — dense `PlanArena`,
    /// engine buffers, refinement caches, all sized and filled for the
    /// donor's graph — is recovered with `into_scratch` and threaded into
    /// this loop's context via `new_with_scratch`. Equality with the
    /// fresh-state path proves `reset_for_new_loop` invalidates everything
    /// graph-specific (notably the move-result `RefineCache`, which two
    /// same-sized graphs could otherwise alias) while the fingerprint
    /// guards re-prime the rest.
    #[test]
    fn scratch_reuse_equals_fresh_state_compilation(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
        cap_bump in 0u32..3,
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;

        // Dirty the scratch on a *different* loop first — different node
        // count, different partitions, a populated plan arena — before it
        // ever sees this test's graph.
        let donor = generate_loop(seed ^ 0x9e37_79b9, &params)
            .expect("generator is total")
            .ddg;
        let donor_ctx = CompileContext::new(&donor, &machine);
        let donor_opts = CompileOptions { mode: Mode::Replicate, max_ii: None };
        let _ = compile_loop_ctx(&donor, &machine, &donor_opts, &donor_ctx);
        let ctx = CompileContext::new_with_scratch(&ddg, &machine, donor_ctx.into_scratch());

        // Dirty every incremental structure with a prior compile that may
        // abort partway: the refinement chain, the move cache and the
        // incremental-ASAP scratch are left at whatever prefix the capped
        // climb reached.
        let capped = CompileOptions {
            mode: Mode::Replicate,
            max_ii: Some(ctx.analysis().mii() + cap_bump),
        };
        let _ = compile_loop_ctx(&ddg, &machine, &capped, &ctx);

        for pass in 0..2 {
            for mode in Mode::ALL {
                let opts = CompileOptions { mode, max_ii: None };
                let fresh = compile_loop(&ddg, &machine, &opts);
                let reused = compile_loop_ctx(&ddg, &machine, &opts, &ctx);
                match (&fresh, &reused) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(
                            a.stats.ii, b.stats.ii,
                            "pass {} mode {}", pass, mode.name()
                        );
                        prop_assert_eq!(&a.schedule, &b.schedule);
                        prop_assert_eq!(&a.assignment, &b.assignment);
                        prop_assert_eq!(a.stats, b.stats);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(
                        false,
                        "dirty-scratch and fresh-state compilation disagree on \
                         success for mode {} (pass {})",
                        mode.name(),
                        pass
                    ),
                }
            }
        }
    }

    /// Best-of-N seed racing is deterministic at the context level: two
    /// independently constructed seeded contexts — each racing its
    /// perturbed refinements on its own scoped threads — must agree
    /// bit-for-bit across every mode, because the winner is selected by
    /// `(score, seed-index)`, never by thread completion order.
    #[test]
    fn seed_racing_context_is_deterministic(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let a = CompileContext::new(&ddg, &machine).with_refine_seeds(4);
        let b = CompileContext::new(&ddg, &machine).with_refine_seeds(4);
        for mode in Mode::ALL {
            let opts = CompileOptions { mode, max_ii: None };
            let ra = compile_loop_ctx(&ddg, &machine, &opts, &a);
            let rb = compile_loop_ctx(&ddg, &machine, &opts, &b);
            match (&ra, &rb) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(&x.schedule, &y.schedule, "mode {}", mode.name());
                    prop_assert_eq!(&x.assignment, &y.assignment);
                    prop_assert_eq!(x.stats, y.stats);
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => prop_assert!(
                    false,
                    "raced contexts disagree on success for mode {}",
                    mode.name()
                ),
            }
        }
    }

    /// The scheduler's dense arena is observationally pure: one
    /// `SchedScratch` left dirty by attempts at other IIs and under the
    /// other ordering strategy schedules exactly as a fresh scratch does,
    /// for both strategies on a plain partition-derived assignment.
    #[test]
    fn scheduler_arena_matches_for_both_strategies(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
        ii_bump in 0u32..4,
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let analysis = LoopAnalysis::new(&ddg, &machine);
        let partition = cvliw::partition::partition_loop(&ddg, &machine, analysis.mii());
        let assignment: Assignment = partition.to_assignment();
        let mut dirty = SchedScratch::default();
        for ii in analysis.mii()..=analysis.mii() + ii_bump {
            let request = ScheduleRequest {
                ddg: &ddg,
                machine: &machine,
                assignment: &assignment,
                ii,
                zero_bus_dep_latency: false,
            };
            for strategy in [OrderStrategy::Swing, OrderStrategy::Topological] {
                let fresh =
                    schedule_with_scratch(&request, strategy, &analysis, &mut SchedScratch::default());
                let reused = schedule_with_scratch(&request, strategy, &analysis, &mut dirty);
                match (fresh, reused) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (a, b) => prop_assert!(false, "disagreement at II {ii}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
