//! Seeded, self-checking benchmark of the replication compiler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 0 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload from one process and one thread (a closed loop with
//! one client), checks every output, and prints a table of metrics
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced passes, reports the
//! per-layer metrics and the tracing overhead, and writes the spans to
//! `perfbench/traces/`. See `README.md` for the workloads and metrics.

mod grid;
mod probe;
mod report;
mod serve_mix;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use cvliw_replicate::LoopStats;
use cvliw_workloads::WorkloadLoop;
use probe::Probe;
use report::Metric;
use stats::{median, Samples};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: u32 = 21;

const WORKLOADS: [&str; 3] = ["paper_grid", "baseline_fabrics", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The `suite_with_salt` salts of a run that draws `count` suites:
/// `count` consecutive salts from `seed × count`, so distinct seeds share
/// no suite and seed 0 starts with the published suite (salt 0).
fn salts(seed: u64, count: u64) -> impl Iterator<Item = u64> {
    let first = seed.wrapping_mul(count);
    (0..count).map(move |k| first.wrapping_add(k))
}

/// The MII kernel bound on a compiled loop's cycles: every iteration of
/// every visit at II = MII, with no pipeline fill or drain. A schedule's
/// `LoopProfile::cycles` is never below it.
fn mii_bound_cycles(lp: &WorkloadLoop, stats: &LoopStats) -> u64 {
    lp.profile.total_iterations() * u64::from(stats.mii)
}

/// Runs `build` [`SETUP_REPS`] times and returns the last result and every
/// repetition's probe-normalised duration in seconds.
fn time_setup<T>(mut build: impl FnMut(u32) -> T) -> (T, Vec<f64>) {
    let mut probe = Probe::new();
    let mut secs = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(build(rep));
        let wall = started.elapsed().as_secs_f64();
        secs.push(wall / probe.factor());
    }
    (last.expect("at least one set-up"), secs)
}

/// Runs passes until they have measured `seconds` of wall-clock time in
/// total. A traced run alternates untraced and traced passes, starting
/// untraced, and runs at least one of each. `pass` gets whether to trace
/// and returns the wall-clock seconds it measured.
fn run_passes(seconds: f64, trace: bool, mut pass: impl FnMut(bool) -> f64) {
    let min_passes = if trace { 2 } else { 1 };
    let (mut measured, mut done) = (0.0, 0);
    while measured < seconds || done < min_passes {
        measured += pass(trace && done % 2 == 1);
        done += 1;
    }
}

/// The median and 99th percentile of `samples` as metrics `names`, in
/// nanoseconds divided by `scale`, each noting the sample count and how
/// many samples lie beyond it.
fn percentiles(
    samples: &mut Samples,
    names: [&'static str; 2],
    scale: f64,
    what: &str,
) -> [Metric; 2] {
    let n = samples.len();
    let mut qs = [0.50, 0.99].into_iter();
    names.map(|name| {
        let q = qs.next().expect("two quantiles for two names");
        let (ns, beyond) = samples.quantile(q).unwrap_or((0, 0));
        Metric::new(
            name,
            ns as f64 / scale,
            format!("{what}: {n} samples, {beyond} beyond"),
        )
    })
}

/// Prints each span name's count, total and self time, and writes every
/// span to `perfbench/traces/<workload>-seed<n>.tsv`.
fn write_trace(tracer: &Tracer, args: &Args) {
    for (name, t) in tracer.totals_since(0) {
        println!(
            "# span {name:<22} {:>9} spans {:>12.3} ms total {:>12.3} ms self",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Median over passes of each named per-pass value.
fn medians(rows: &[Vec<(&'static str, f64)>]) -> Vec<Metric> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            Metric::new(
                name,
                median(&values),
                format!("median of {} traced passes", rows.len()),
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_grid" => grid::run(&grid::GridSpec::paper_grid(), &args),
        "baseline_fabrics" => grid::run(&grid::GridSpec::baseline_fabrics(), &args),
        _ => serve_mix::run(&args),
    };
    outcome.print(args.trace);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = args(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 7, 3.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "paper_grid", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "paper_grid", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "paper_grid", "--seed"]).is_err());
    }

    #[test]
    fn seeds_draw_disjoint_salts_and_seed_zero_starts_published() {
        let a: Vec<u64> = salts(0, 4).collect();
        let b: Vec<u64> = salts(1, 4).collect();
        assert_eq!(a[0], 0);
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn traced_runs_alternate_and_cover_both_kinds() {
        let mut kinds = Vec::new();
        run_passes(0.5, true, |traced| {
            kinds.push(traced);
            1.0
        });
        assert_eq!(kinds, [false, true]);
    }
}
