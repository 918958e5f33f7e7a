//! Experiment orchestration for the `cvliw` workspace — the layer that
//! turns the paper's §4 evaluation (Table 1's config grid, the Figure 7–12
//! sweeps over 678 SPECfp95 loops) from one-off CLI calls into a single
//! parallel, reproducible suite run.
//!
//! The pieces:
//!
//! * [`SuiteGrid`] — enumerates the (workload × machine × policy) product
//!   in a fixed, machine-major order;
//! * [`run_suite`] — shards the grid's loops across a scoped-thread worker
//!   pool (`std::thread::scope`, no external dependencies) and runs each
//!   loop under every mode through one `cvliw_replicate::CompileContext`;
//! * [`SuiteReport`] — the typed result: integer per-cell accumulators
//!   ([`CellResult`]) plus config-level aggregates (profile-weighted IPC,
//!   HMEAN, weighted II, replication overhead);
//! * [`emit`] — JSON, CSV, Markdown and aligned-text renderings. The
//!   Markdown emitter writes the repository's regenerable results book,
//!   `docs/RESULTS.md`, shaped after Table 1 and Figures 7/9/10/12.
//!
//! Determinism is the design invariant: cells are work-stolen dynamically
//! (they vary ~50× in cost), but every result lands in its grid slot and
//! all aggregation is integer arithmetic in grid order, so the worker
//! count changes wall-clock time and nothing else. `cvliw suite --jobs 1`
//! and `--jobs 4` emit byte-identical reports, and CI regenerates
//! `docs/RESULTS.md` to prove the committed book is fresh.
//!
//! # Example
//!
//! ```
//! use cvliw_exp::{emit, run_suite, Format, SuiteGrid};
//! use cvliw_replicate::Mode;
//!
//! let grid = SuiteGrid::paper()
//!     .with_programs(vec!["mgrid".into()])
//!     .with_specs(vec!["2c1b2l64r".into()])
//!     .with_modes(vec![Mode::Baseline, Mode::Replicate])
//!     .with_max_loops(1);
//! let report = run_suite(&grid, 2)?;
//! assert_eq!(report.cells.len(), 2);
//! let csv = emit(&report, Format::Csv);
//! assert!(csv.starts_with("spec,mode,program"));
//! # Ok::<(), cvliw_exp::SuiteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod cell;
mod emit;
mod emit_md;
mod grid;
mod report;
mod runner;
mod serve_bench;

pub use bench::{bench_suite, emit_bench_json, BenchReport, PairStageTiming, PairTiming};
pub use cell::{run_program, CellResult, ProgramResult};
pub use emit::{emit, emit_csv, emit_json, emit_text, Format};
pub use emit_md::emit_markdown;
pub use grid::{CellSpec, SuiteGrid};
pub use report::SuiteReport;
pub use runner::{default_jobs, run_suite, SuiteError};
pub use serve_bench::{serve_replay, serve_restart_replay, ServeReport, ServeRestartReport};
