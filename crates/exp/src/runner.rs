//! The suite worker pool: shard grid work across scoped threads and
//! collect results by cell index.
//!
//! The unit of work is **one loop of one (machine, program) pair** — all
//! modes of that loop run on one worker, sharing one `CompileContext`.
//! Workers pull unit indices from a shared atomic counter (dynamic
//! work-stealing — loops vary a lot in cost, fpppp's dozen huge loops vs
//! wave5's 276 small ones), but every result lands in its unit's slot, and
//! aggregation walks the slots in grid order after the pool joins. The
//! worker count therefore changes wall-clock time and nothing else:
//! `--jobs 1` and `--jobs 4` produce byte-identical reports.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use cvliw_machine::{MachineConfig, SpecError};
use cvliw_workloads::{program, program_subset, BenchmarkProgram};

use cvliw_replicate::CompileScratch;

use crate::cell::{compile_loop_all_modes, CellResult};
use crate::grid::{CellSpec, SuiteGrid};
use crate::report::SuiteReport;

/// Parsed `(spec, program, wall_ms)` rows of the committed timing book
/// (`BENCH_compile.json` at the repository root, written by `cvliw
/// bench`), which seed the longest-first dispatch. Loaded at runtime from
/// the repository the crate was built from — never from the working
/// directory, so a stray same-named file cannot skew dispatch — and
/// *best-effort*: a missing or unparseable book (e.g. a binary deployed
/// off its build machine) just means pairs dispatch in machine-major
/// order. The file is machine-written with one pair per line, so a line
/// scan suffices — no JSON dependency.
fn committed_pair_ms() -> &'static [(String, String, f64)] {
    static ROWS: OnceLock<Vec<(String, String, f64)>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_compile.json"
        ))
        .unwrap_or_default();
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = &line[line.find(key)? + key.len()..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        text.lines()
            .filter(|l| l.contains("\"spec\"") && l.contains("\"wall_ms\""))
            .filter_map(|l| {
                let spec = field(l, "\"spec\"")?;
                let program = field(l, "\"program\"")?;
                let rest = &l[l.find("\"wall_ms\"")? + "\"wall_ms\"".len()..];
                let num: String = rest
                    .chars()
                    .skip_while(|c| *c == ':' || c.is_whitespace())
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                Some((spec, program, num.parse().ok()?))
            })
            .collect()
    })
}

/// A suite run that could not start.
#[derive(Debug)]
pub enum SuiteError {
    /// A machine spec in the grid does not parse.
    Spec {
        /// The offending spec string.
        spec: String,
        /// The underlying parse error.
        source: SpecError,
    },
    /// A program name the workload suite does not define.
    UnknownProgram(String),
    /// The grid enumerates no cells.
    EmptyGrid,
    /// The serve-restart bench could not persist or recover its cache.
    Persist(String),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Spec { spec, source } => {
                write!(f, "bad machine spec `{spec}` in grid: {source}")
            }
            SuiteError::UnknownProgram(name) => {
                write!(f, "unknown benchmark program `{name}`")
            }
            SuiteError::EmptyGrid => write!(f, "the grid enumerates no cells"),
            SuiteError::Persist(detail) => {
                write!(f, "cache persistence failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// The default worker count for suite runs: the machine's available
/// parallelism, capped at 8. The cap is a tail-latency observation, not a
/// cell-count limit: the 300-cell paper grid dispatches 60 machine×program
/// work units whose costs vary ~50×, and beyond about 8 workers the heavy
/// fpppp/applu pairs dominate the critical path while the extra threads
/// idle after the short tail drains.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// A validated, ready-to-run suite: parsed machines, generated programs and
/// the enumerated cell list. Shared by [`run_suite`] and the bench harness
/// so warmup and measured runs reuse one validation pass.
pub(crate) struct PreparedSuite {
    pub machines: Vec<MachineConfig>,
    pub programs: Vec<BenchmarkProgram>,
    pub cells: Vec<CellSpec>,
    pub n_programs: usize,
    pub n_modes: usize,
    /// Best-of-N refinement seeds raced per loop (from the grid).
    pub refine_seeds: u32,
    /// Pair indices in dispatch order: heaviest first by the committed
    /// timing book, unseeded pairs trailing in machine-major order. Work
    /// distribution only — results land in grid-order slots regardless.
    pub dispatch: Vec<usize>,
}

impl PreparedSuite {
    /// Number of (machine, program) work units.
    pub fn pair_count(&self) -> usize {
        self.machines.len() * self.n_programs
    }

    /// The worker count the pool will actually use for a requested `jobs`
    /// (the single source of the clamp, also reported by the bench
    /// harness).
    pub fn effective_jobs(&self, jobs: usize) -> usize {
        jobs.max(1).min(self.pair_count())
    }

    /// The cell index of `(spec s, mode m, program j)` — the `cells()`
    /// order is spec-major, then mode, then program.
    fn cell_index(&self, s: usize, m: usize, j: usize) -> usize {
        (s * self.n_modes + m) * self.n_programs + j
    }
}

/// Validates the grid up front: parses every machine spec, generates every
/// program once (workers spend their time compiling, not generating) and
/// enumerates the cells.
pub(crate) fn prepare(grid: &SuiteGrid) -> Result<PreparedSuite, SuiteError> {
    let machines: Vec<MachineConfig> = grid
        .specs
        .iter()
        .map(|s| {
            MachineConfig::from_extended_spec(s).map_err(|source| SuiteError::Spec {
                spec: s.clone(),
                source,
            })
        })
        .collect::<Result<_, _>>()?;
    let programs: Vec<BenchmarkProgram> = grid
        .programs
        .iter()
        .map(|name| {
            match grid.max_loops {
                Some(cap) => program_subset(name, cap),
                None => program(name),
            }
            .ok_or_else(|| SuiteError::UnknownProgram(name.clone()))
        })
        .collect::<Result<_, _>>()?;

    let cells = grid.cells();
    if cells.is_empty() {
        return Err(SuiteError::EmptyGrid);
    }

    // Longest-first dispatch: pairs whose cost the committed timing book
    // knows go out heaviest-first, so a multi-worker run starts su2cor and
    // fpppp immediately instead of discovering them behind a short tail;
    // everything else keeps machine-major order. This is scheduling only —
    // every report stays byte-identical for any `--jobs`.
    let n_programs = grid.programs.len();
    let seed_ms = |k: usize| -> f64 {
        let (s, j) = (k / n_programs, k % n_programs);
        committed_pair_ms()
            .iter()
            .find(|(spec, prog, _)| *spec == grid.specs[s] && *prog == grid.programs[j])
            .map_or(-1.0, |&(_, _, ms)| ms)
    };
    let mut dispatch: Vec<usize> = (0..machines.len() * n_programs).collect();
    dispatch.sort_by(|&a, &b| seed_ms(b).total_cmp(&seed_ms(a)).then(a.cmp(&b)));

    Ok(PreparedSuite {
        machines,
        programs,
        cells,
        n_programs,
        n_modes: grid.modes.len(),
        refine_seeds: grid.refine_seeds,
        dispatch,
    })
}

/// Runs the worker pool over the grid, returning the per-cell results in
/// grid order plus each pair's wall-clock nanoseconds and per-stage
/// nanoseconds (indexed `spec-major × program`; the bench harness reads
/// them, plain suite runs drop them).
///
/// The unit of work is one loop of one (machine, program) pair, so the
/// heavy su2cor/fpppp pairs do not serialize a whole worker each and
/// `--jobs N` cuts the critical path *inside* a pair, not just across
/// pairs. Units are *dispatched* longest-pair-first (see
/// [`PreparedSuite::dispatch`]) but every result lands in its grid-order
/// slot. A pair's wall clock is the sum of its loops' unit clocks — CPU
/// time, the same convention seed racing uses — so the per-stage
/// breakdown still sums to it. Each worker recycles one [`CompileScratch`]
/// across all the units it runs.
/// One compiled unit of the loop-granular pool: the per-mode outcomes of
/// one loop, the context's per-stage clocks, and the unit's wall time.
type LoopUnitResult = (Vec<Option<cvliw_replicate::LoopStats>>, [u64; 4], u64);

pub(crate) fn run_pool(
    prep: &PreparedSuite,
    jobs: usize,
) -> (Vec<CellResult>, Vec<u64>, Vec<[u64; 4]>) {
    let n_pairs = prep.pair_count();

    // Flat (pair, loop) units in dispatch order: the heaviest pair's loops
    // go out first and spread over every idle worker. Loops within a pair
    // keep their program order for the deterministic fold below.
    let units: Vec<(usize, usize)> = prep
        .dispatch
        .iter()
        .flat_map(|&k| {
            let j = k % prep.n_programs;
            (0..prep.programs[j].loops.len()).map(move |li| (k, li))
        })
        .collect();
    let pair_cells: Vec<Vec<CellSpec>> = (0..n_pairs)
        .map(|k| {
            let (s, j) = (k / prep.n_programs, k % prep.n_programs);
            (0..prep.n_modes)
                .map(|m| prep.cells[prep.cell_index(s, m, j)].clone())
                .collect()
        })
        .collect();
    let jobs = jobs.max(1).min(units.len().max(1));

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<LoopUnitResult>> = (0..units.len()).map(|_| OnceLock::new()).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut scratch = CompileScratch::default();
                loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    if u >= units.len() {
                        break;
                    }
                    let (k, li) = units[u];
                    let (s, j) = (k / prep.n_programs, k % prep.n_programs);
                    let started = Instant::now();
                    let (per_mode, stages, recycled) = compile_loop_all_modes(
                        &prep.programs[j].loops[li],
                        &prep.machines[s],
                        &pair_cells[k],
                        prep.refine_seeds,
                        std::mem::take(&mut scratch),
                    );
                    scratch = recycled;
                    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    slots[u]
                        .set((per_mode, stages, nanos))
                        .expect("each unit index is claimed exactly once");
                }
            });
        }
    });

    // Deterministic fold: units are grouped per pair with loops ascending,
    // so each cell accumulates its loops in program order — scheduling
    // cannot reach a single byte.
    let mut results: Vec<CellResult> = prep.cells.iter().map(CellResult::empty).collect();
    let mut nanos = vec![0u64; n_pairs];
    let mut stages = vec![[0u64; 4]; n_pairs];
    for (slot, &(k, li)) in slots.into_iter().zip(units.iter()) {
        let (per_mode, unit_stages, unit_nanos) =
            slot.into_inner().expect("pool completed every unit");
        let (s, j) = (k / prep.n_programs, k % prep.n_programs);
        let l = &prep.programs[j].loops[li];
        for (m, stats) in per_mode.iter().enumerate() {
            let out = &mut results[prep.cell_index(s, m, j)];
            match stats {
                Some(stats) => out.add_loop(l, stats),
                None => {
                    out.loops += 1;
                    out.failures += 1;
                }
            }
        }
        nanos[k] = nanos[k].saturating_add(unit_nanos);
        for (total, stage) in stages[k].iter_mut().zip(unit_stages) {
            *total += stage;
        }
    }
    (results, nanos, stages)
}

/// Runs every cell of `grid` on a pool of `jobs` worker threads and
/// aggregates the results into a [`SuiteReport`].
///
/// The report is a pure function of the grid: worker count and scheduling
/// order cannot affect a single byte of any emitted format.
///
/// # Errors
///
/// Returns [`SuiteError`] if a spec does not parse, a program is unknown,
/// or the grid is empty — all validated before any worker starts.
pub fn run_suite(grid: &SuiteGrid, jobs: usize) -> Result<SuiteReport, SuiteError> {
    let prep = prepare(grid)?;
    let (results, _timings, _stages) = run_pool(&prep, jobs);
    Ok(SuiteReport::new(grid, results, &prep.programs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_replicate::Mode;

    fn tiny_grid() -> SuiteGrid {
        SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into(), "mgrid".into()])
            .with_specs(vec!["2c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline, Mode::Replicate])
            .with_max_loops(2)
    }

    #[test]
    fn suite_runs_and_orders_cells() {
        let report = run_suite(&tiny_grid(), 2).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[0].program, "tomcatv");
        assert_eq!(report.cells[1].program, "mgrid");
        assert_eq!(report.cells[0].mode, Mode::Baseline);
        assert_eq!(report.cells[2].mode, Mode::Replicate);
        assert_eq!(report.failures(), 0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = tiny_grid();
        let one = run_suite(&grid, 1).unwrap();
        let many = run_suite(&grid, 7).unwrap();
        assert_eq!(one.cells, many.cells);
    }

    #[test]
    fn seed_racing_reports_are_byte_identical_across_jobs_and_vs_disabled() {
        // Best-of-N seed racing picks its winner by (score, seed-index),
        // never by thread completion order — so a raced suite must be
        // byte-identical at any worker count, and because seed 0 is the
        // canonical unperturbed pipeline (winning every score tie), it
        // must also match the seeds-disabled run whenever no perturbation
        // finds a strictly better partition, as on this subset.
        let raced = tiny_grid().with_refine_seeds(4);
        let one = run_suite(&raced, 1).unwrap();
        let four = run_suite(&raced, 4).unwrap();
        assert_eq!(
            one, four,
            "seed racing leaked thread scheduling into a report"
        );
        let disabled = run_suite(&tiny_grid(), 1).unwrap();
        assert_eq!(
            one, disabled,
            "a raced report diverged from the canonical pipeline"
        );
    }

    #[test]
    fn intra_pair_jobs_are_byte_identical() {
        // The loop-granular pool must not be able to change a single byte
        // of any emitted report at any worker count — including counts
        // that do not divide the unit count. Compare the rendered bytes,
        // not just the structs: the emitters are the determinism contract.
        let grid = tiny_grid();
        let reports: Vec<(usize, SuiteReport)> = [1, 2, 4, 7]
            .into_iter()
            .map(|jobs| (jobs, run_suite(&grid, jobs).unwrap()))
            .collect();
        for format in [
            crate::Format::Text,
            crate::Format::Csv,
            crate::Format::Json,
            crate::Format::Markdown,
        ] {
            let reference = crate::emit(&reports[0].1, format);
            for (jobs, report) in &reports[1..] {
                assert_eq!(
                    reference,
                    crate::emit(report, format),
                    "--jobs {jobs} leaked into {format:?} bytes"
                );
            }
        }
    }

    #[test]
    fn bad_spec_is_rejected_up_front() {
        let grid = tiny_grid().with_specs(vec!["notaspec".into()]);
        assert!(matches!(run_suite(&grid, 1), Err(SuiteError::Spec { .. })));
    }

    #[test]
    fn unknown_program_is_rejected() {
        let grid = tiny_grid().with_programs(vec!["gcc".into()]);
        assert!(matches!(
            run_suite(&grid, 1),
            Err(SuiteError::UnknownProgram(_))
        ));
    }

    #[test]
    fn empty_grid_is_rejected() {
        let grid = tiny_grid().with_modes(vec![]);
        assert!(matches!(run_suite(&grid, 1), Err(SuiteError::EmptyGrid)));
    }

    #[test]
    fn dispatch_is_a_longest_first_permutation() {
        let grid = SuiteGrid::paper().with_max_loops(1);
        let prep = prepare(&grid).unwrap();
        let mut sorted = prep.dispatch.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..prep.pair_count()).collect::<Vec<_>>());

        // Dispatch order must walk the committed wall-clock seeds in
        // non-increasing order (unseeded pairs trail as -1).
        let seed = |k: usize| {
            let (s, j) = (k / prep.n_programs, k % prep.n_programs);
            committed_pair_ms()
                .iter()
                .find(|(spec, prog, _)| *spec == grid.specs[s] && *prog == grid.programs[j])
                .map_or(-1.0, |&(_, _, ms)| ms)
        };
        for pair in prep.dispatch.windows(2) {
            assert!(seed(pair[0]) >= seed(pair[1]), "not longest-first");
        }
    }

    #[test]
    fn committed_bench_parses_into_pair_seeds() {
        // The committed book must contain the full paper grid's pairs
        // (6 machines × 10 programs) with positive medians.
        let rows = committed_pair_ms();
        assert_eq!(rows.len(), 60, "one row per (machine, program) pair");
        assert!(rows.iter().all(|&(_, _, ms)| ms > 0.0));
    }
}
