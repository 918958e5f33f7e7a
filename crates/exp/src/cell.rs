//! Running one grid cell: compile every loop of one program for one
//! machine under one policy, and fold the per-loop statistics into
//! integer accumulators.
//!
//! Everything in [`CellResult`] is an exact integer sum in loop order, so
//! a cell's result — and therefore a whole report — is bit-identical no
//! matter how many workers ran the suite or in what order cells finished.
//! Floating point only appears in the derived accessors ([`CellResult::ipc`]
//! and friends), computed at read time from the integer sums.

use cvliw_machine::MachineConfig;
use cvliw_replicate::{
    compile_loop, compile_loop_ctx, CompileContext, CompileOptions, CompileScratch, LoopStats, Mode,
};
use cvliw_sim::IpcAccumulator;
use cvliw_workloads::{BenchmarkProgram, WorkloadLoop};

use crate::grid::CellSpec;

/// Aggregated result of one (program × machine × mode) cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// Benchmark program name.
    pub program: String,
    /// Machine specification string.
    pub spec: String,
    /// Replication policy the cell compiled under.
    pub mode: Mode,
    /// Loops attempted.
    pub loops: usize,
    /// Loops that failed to compile (healthy suites report zero).
    pub failures: usize,
    /// Dynamic original operations (profile-weighted; replicas excluded).
    pub ops: u64,
    /// Analytic execution cycles under the `(N − 1 + SC)·II` model.
    pub cycles: u64,
    /// Dynamic net replicated instructions (profile-weighted).
    pub added_ops: u64,
    /// `Σ dynamic_iterations × II` — numerator of the weighted mean II.
    pub weighted_ii: u64,
    /// `Σ dynamic_iterations × MII`.
    pub weighted_mii: u64,
    /// `Σ dynamic_iterations` — denominator of the weighted means.
    pub dyn_iters: u64,
    /// Communications implied by the partition, summed over loops.
    pub partition_coms: u64,
    /// Communications actually scheduled on buses, summed over loops.
    pub final_coms: u64,
}

impl CellResult {
    /// An empty result for the given cell.
    #[must_use]
    pub fn empty(cell: &CellSpec) -> Self {
        CellResult {
            program: cell.program.clone(),
            spec: cell.spec.clone(),
            mode: cell.mode,
            loops: 0,
            failures: 0,
            ops: 0,
            cycles: 0,
            added_ops: 0,
            weighted_ii: 0,
            weighted_mii: 0,
            dyn_iters: 0,
            partition_coms: 0,
            final_coms: 0,
        }
    }

    /// Folds one compiled loop into the accumulators.
    pub fn add_loop(&mut self, l: &WorkloadLoop, stats: &LoopStats) {
        let mut acc = IpcAccumulator::new();
        acc.add_loop(
            l.profile.visits,
            l.profile.iterations,
            stats.ops_per_iter,
            stats.ii,
            stats.stage_count,
        );
        let dyn_iters = l.profile.total_iterations();
        self.loops += 1;
        self.ops += acc.ops();
        self.cycles += acc.cycles();
        self.added_ops += dyn_iters * u64::from(stats.net_added());
        self.weighted_ii += dyn_iters * u64::from(stats.ii);
        self.weighted_mii += dyn_iters * u64::from(stats.mii);
        self.dyn_iters += dyn_iters;
        self.partition_coms += u64::from(stats.partition_coms);
        self.final_coms += u64::from(stats.final_coms);
    }

    /// Profile-weighted IPC of the cell (original operations per cycle).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        ratio(self.ops, self.cycles)
    }

    /// Iteration-weighted mean II.
    #[must_use]
    pub fn mean_ii(&self) -> f64 {
        ratio(self.weighted_ii, self.dyn_iters)
    }

    /// Iteration-weighted mean MII.
    #[must_use]
    pub fn mean_mii(&self) -> f64 {
        ratio(self.weighted_mii, self.dyn_iters)
    }

    /// Dynamic executed-instruction overhead: net replicas over original
    /// operations (the paper's Figure 10 metric).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        ratio(self.added_ops, self.ops)
    }

    /// Fraction of the partition's communications that replication removed
    /// from the buses.
    #[must_use]
    pub fn comm_removed(&self) -> f64 {
        if self.partition_coms == 0 {
            0.0
        } else {
            1.0 - ratio(self.final_coms, self.partition_coms)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The suite's atomic unit of work: one loop of one (machine, program)
/// pair under every mode of `cells`, on one [`CompileContext`] built over
/// a recycled [`CompileScratch`]. Returns the per-mode outcome (`None` =
/// compile failure), the context's per-stage wall clock, and the scratch
/// for the caller's next unit.
pub(crate) fn compile_loop_all_modes(
    l: &WorkloadLoop,
    machine: &MachineConfig,
    cells: &[CellSpec],
    refine_seeds: u32,
    scratch: CompileScratch,
) -> (Vec<Option<LoopStats>>, [u64; 4], CompileScratch) {
    let ctx =
        CompileContext::new_with_scratch(&l.ddg, machine, scratch).with_refine_seeds(refine_seeds);
    let per_mode = cells
        .iter()
        .map(|cell| {
            let opts = CompileOptions {
                mode: cell.mode,
                max_ii: None,
            };
            compile_loop_ctx(&l.ddg, machine, &opts, &ctx)
                .ok()
                .map(|c| c.stats)
        })
        .collect();
    let stages = ctx.stage_nanos();
    (per_mode, stages, ctx.into_scratch())
}

/// Result of compiling one whole program under one configuration, keeping
/// the per-loop statistics (the regenerators in `cvliw_bench` plot from
/// these; suite-level aggregation uses the leaner [`CellResult`]).
#[derive(Clone, Debug, Default)]
pub struct ProgramResult {
    /// Profile-weighted IPC (original operations per cycle).
    pub ipc: f64,
    /// Per-loop statistics, aligned with the program's loop order (loops
    /// that failed to compile are skipped and counted).
    pub loop_stats: Vec<LoopStats>,
    /// Loop profiles matching `loop_stats` (visits, iterations).
    pub profiles: Vec<(u64, u64)>,
    /// Loops that failed to compile (should stay zero).
    pub failures: usize,
}

impl ProgramResult {
    /// Dynamic (profile-weighted) executed instructions, split into
    /// `(original, net replicated)`.
    #[must_use]
    pub fn executed_instructions(&self) -> (u64, u64) {
        let mut original = 0u64;
        let mut replicated = 0u64;
        for (stats, &(visits, iters)) in self.loop_stats.iter().zip(&self.profiles) {
            let dyn_iters = visits * iters;
            original += dyn_iters * u64::from(stats.ops_per_iter);
            replicated += dyn_iters * u64::from(stats.net_added());
        }
        (original, replicated)
    }

    /// Dynamic net replicated instructions per class (`[int, fp, mem]`).
    #[must_use]
    pub fn replicated_by_class(&self) -> [u64; 3] {
        let mut out = [0u64; 3];
        for (stats, &(visits, iters)) in self.loop_stats.iter().zip(&self.profiles) {
            let dyn_iters = visits * iters;
            let net = stats.replication.net_added_by_class();
            for (slot, &n) in out.iter_mut().zip(net.iter()) {
                *slot += dyn_iters * u64::from(n);
            }
        }
        out
    }
}

/// Compiles every loop of `program` for `machine` under `opts` and
/// aggregates profile-weighted IPC.
#[must_use]
pub fn run_program(
    program: &BenchmarkProgram,
    machine: &MachineConfig,
    opts: &CompileOptions,
) -> ProgramResult {
    let mut acc = IpcAccumulator::new();
    let mut result = ProgramResult::default();
    for l in &program.loops {
        match compile_loop(&l.ddg, machine, opts).map(|c| c.stats) {
            Ok(stats) => {
                acc.add_loop(
                    l.profile.visits,
                    l.profile.iterations,
                    stats.ops_per_iter,
                    stats.ii,
                    stats.stage_count,
                );
                result.loop_stats.push(stats);
                result
                    .profiles
                    .push((l.profile.visits, l.profile.iterations));
            }
            Err(_) => result.failures += 1,
        }
    }
    result.ipc = acc.ipc();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_suite, SuiteGrid};
    use cvliw_workloads::program_subset;

    /// A one-cell suite: two tomcatv loops on `4c2b2l64r` under `mode`.
    fn small_cell(mode: Mode) -> CellResult {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into()])
            .with_specs(vec!["4c2b2l64r".into()])
            .with_modes(vec![mode])
            .with_max_loops(2);
        let mut report = run_suite(&grid, 1).unwrap();
        assert_eq!(report.cells.len(), 1);
        report.cells.pop().unwrap()
    }

    #[test]
    fn run_cell_accumulates_all_loops() {
        let r = small_cell(Mode::Replicate);
        assert_eq!(r.loops, 2);
        assert_eq!(r.failures, 0);
        assert!(r.ipc() > 0.0);
        assert!(r.mean_ii() >= r.mean_mii());
        assert!(r.dyn_iters > 0);
    }

    #[test]
    fn baseline_cell_adds_no_instructions() {
        let r = small_cell(Mode::Baseline);
        assert_eq!(r.added_ops, 0);
        assert_eq!(r.overhead(), 0.0);
    }

    #[test]
    fn run_program_matches_cell_ipc() {
        let cell_r = small_cell(Mode::Replicate);
        let program = program_subset("tomcatv", 2).unwrap();
        let machine = MachineConfig::from_spec("4c2b2l64r").unwrap();
        let prog_r = run_program(&program, &machine, &CompileOptions::replicate());
        assert!((cell_r.ipc() - prog_r.ipc).abs() < 1e-12);
        assert_eq!(prog_r.failures, 0);
        let (orig, _) = prog_r.executed_instructions();
        assert_eq!(orig, cell_r.ops);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let cell = CellSpec {
            program: "tomcatv".into(),
            spec: "unified".into(),
            mode: Mode::Baseline,
        };
        let r = CellResult::empty(&cell);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.comm_removed(), 0.0);
    }
}
