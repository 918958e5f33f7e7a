//! Shared harness for the experiment regenerators in `benches/` — the
//! workspace's §4 instrumentation, one `harness = false` bench target per
//! figure and table of the paper (Figures 1, 7, 8 and 10, Table 1, the
//! communication and register-sweep tables, plus ablations). Figures 9 and
//! 12 are sections 3 and 4 of the results book that `cvliw suite --format
//! md` writes.
//!
//! The compile-and-aggregate plumbing (compiling a whole benchmark program
//! under a machine/mode pair, profile-weighted IPC, replication
//! accounting) lives in [`cvliw_exp`] and is re-exported here so every
//! regenerator keeps a single import surface; this crate adds only the
//! table-printing helpers and the `CVLIW_MAX_LOOPS` escape hatch for quick
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cvliw_exp::{run_program, ProgramResult};

use cvliw_workloads::BenchmarkProgram;

/// Prints a row of right-aligned cells after a left-aligned label.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<12}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

/// Formats a float with two decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Standard header printed by every regenerator.
pub fn banner(title: &str, source: &str) {
    println!("\n=== {title} ===");
    println!("(reproduces {source} of Aletà et al., MICRO-36 2003)\n");
}

/// The workload suite for regenerators: the full 678 loops by default, or
/// capped per program through `CVLIW_MAX_LOOPS` for quick runs.
#[must_use]
pub fn suite_for_bench() -> Vec<BenchmarkProgram> {
    match std::env::var("CVLIW_MAX_LOOPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(cap) => {
            eprintln!("[cvliw-bench] CVLIW_MAX_LOOPS={cap}: using a reduced suite");
            cvliw_workloads::suite_subset(cap)
        }
        None => cvliw_workloads::suite(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_machine::MachineConfig;
    use cvliw_replicate::CompileOptions;
    use cvliw_workloads::suite_subset;

    #[test]
    fn run_program_compiles_a_small_program() {
        let programs = suite_subset(2);
        let m = MachineConfig::from_spec("4c2b2l64r").unwrap();
        let r = run_program(&programs[0], &m, &CompileOptions::replicate());
        assert_eq!(r.failures, 0);
        assert!(r.ipc > 0.0);
        let (orig, _) = r.executed_instructions();
        assert!(orig > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.255), "25.5%");
    }
}
