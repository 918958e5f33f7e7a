//! The `cvliw bench --serve` loopback driver: replays the suite grid as
//! daemon traffic and measures the serving layer the way `bench_suite`
//! measures the compiler.
//!
//! The replay renders every (machine × mode × loop) cell of the grid as a
//! protocol request line — the loop reprinted through `cvliw_ir`, exactly
//! what a real client would pipe in — then pushes the whole stream through
//! one in-process [`Server`] **twice**: a cold pass that compiles and
//! populates the cache, and a warm pass of the same requests under fresh
//! ids that must be answered entirely from it. Byte-identity of the two
//! passes (modulo ids) is asserted here on every bench run, not just in
//! the test suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cvliw_ir::print_loop;
use cvliw_serve::testutil::escape;
use cvliw_serve::{Server, ServerConfig, SharedState};

use crate::grid::SuiteGrid;
use crate::runner::{prepare, PreparedSuite, SuiteError};

/// Throughput and hit-rate accounting of one loopback replay.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Requests per pass (grid cells × loops per program).
    pub requests: usize,
    /// Worker threads the server ran with.
    pub jobs: usize,
    /// Wall-clock milliseconds of the cold (compiling) pass.
    pub cold_wall_ms: f64,
    /// Wall-clock milliseconds of the warm (all-hit) pass.
    pub warm_wall_ms: f64,
    /// Cold-pass requests per second.
    pub cold_rps: f64,
    /// Warm-pass requests per second.
    pub warm_rps: f64,
    /// Fraction of warm-pass requests answered from the result cache.
    pub warm_hit_rate: f64,
    /// Responses that carried an error body (0 for a healthy grid).
    pub errors: u64,
}

/// Traffic in cell order (machine-major, then mode, then program), every
/// loop of the program: the same work a suite run compiles, phrased as
/// requests. Sources are escaped once; passes differ only in id.
struct GridTraffic {
    /// `(escaped loop source, spec index, mode index)` per request.
    sources: Vec<(String, usize, usize)>,
    specs: Vec<String>,
    modes: Vec<String>,
    seeds: u32,
}

impl GridTraffic {
    fn build(grid: &SuiteGrid, prep: &PreparedSuite) -> GridTraffic {
        let mut sources = Vec::new();
        for s in 0..grid.specs.len() {
            for m in 0..grid.modes.len() {
                for program in &prep.programs {
                    for l in &program.loops {
                        sources.push((escape(&print_loop(&l.name, &l.ddg)), s, m));
                    }
                }
            }
        }
        GridTraffic {
            sources,
            specs: grid.specs.iter().map(|s| escape(s)).collect(),
            modes: grid.modes.iter().map(|m| m.name().to_string()).collect(),
            seeds: prep.refine_seeds.max(1),
        }
    }

    fn render_pass(&self, id_base: u64) -> Vec<String> {
        self.sources
            .iter()
            .enumerate()
            .map(|(i, (escaped, s, m))| {
                format!(
                    "{{\"id\": {}, \"loop\": \"{escaped}\", \"machine\": \"{}\", \
                     \"mode\": \"{}\", \"seeds\": {}}}",
                    id_base + i as u64,
                    self.specs[*s],
                    self.modes[*m],
                    self.seeds,
                )
            })
            .collect()
    }
}

/// Pushes one pass through `server` in [`cvliw_serve::MAX_BATCH`]-line
/// batches; returns the response text and the pass's wall-clock
/// milliseconds.
fn timed_pass(server: &mut Server, lines: &[String]) -> (String, f64) {
    let mut out = String::new();
    let started = Instant::now();
    for batch in lines.chunks(cvliw_serve::MAX_BATCH) {
        server.process_batch(batch, &mut out);
    }
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Strips the id prefix of every response line, leaving the body bytes
/// two passes must agree on.
fn strip_ids(out: &str) -> Vec<String> {
    out.lines()
        .map(|line| {
            line.split_once(',')
                .map_or_else(|| line.to_string(), |(_, rest)| rest.to_string())
        })
        .collect()
}

/// Replays `grid` through an in-process server: one cold pass, one warm
/// pass, asserting the warm responses are byte-identical to the cold ones
/// apart from the request ids.
///
/// # Errors
///
/// Returns [`SuiteError`] for the same invalid grids [`crate::run_suite`]
/// rejects.
///
/// # Panics
///
/// Panics if the server violates its byte-identity guarantee — a bench
/// run doubles as an end-to-end check of the serving layer.
pub fn serve_replay(grid: &SuiteGrid, jobs: usize) -> Result<ServeReport, SuiteError> {
    let prep = prepare(grid)?;
    let jobs = jobs.max(1);
    let traffic = GridTraffic::build(grid, &prep);
    let requests = traffic.sources.len();

    // The cache must hold the whole grid for the warm pass to be a pure
    // hit storm — that is the scenario this bench exists to time.
    let mut server = Server::new(ServerConfig {
        jobs,
        cache_entries: requests.max(1),
        ..ServerConfig::default()
    });

    let (cold_out, cold_wall_ms) = timed_pass(&mut server, &traffic.render_pass(0));
    let cold_stats = server.stats();
    let (warm_out, warm_wall_ms) = timed_pass(&mut server, &traffic.render_pass(requests as u64));
    let warm_stats = server.stats();

    // Byte-identity: strip the id prefix of every response line; the
    // remainder must match pairwise between the passes.
    let cold_bodies = strip_ids(&cold_out);
    let warm_bodies = strip_ids(&warm_out);
    assert_eq!(
        cold_bodies, warm_bodies,
        "serve replay: warm responses diverged from cold responses"
    );

    // The fault-tolerance plumbing must be inert when disarmed: no
    // deadline is configured, the in-flight bound far exceeds a batch,
    // and nothing injects faults — so a replay that sheds, panics or
    // deadlines has a real regression to report.
    assert_eq!(
        (warm_stats.shed, warm_stats.panics, warm_stats.deadlines),
        (0, 0, 0),
        "serve replay tripped fault-tolerance paths while disarmed: {warm_stats:?}"
    );

    let warm_requests = warm_stats.requests - cold_stats.requests;
    let warm_hits = warm_stats.hits - cold_stats.hits;
    Ok(ServeReport {
        requests,
        jobs,
        cold_wall_ms,
        warm_wall_ms,
        cold_rps: requests as f64 / (cold_wall_ms / 1e3),
        warm_rps: requests as f64 / (warm_wall_ms / 1e3),
        warm_hit_rate: if warm_requests == 0 {
            0.0
        } else {
            warm_hits as f64 / warm_requests as f64
        },
        errors: warm_stats.errors,
    })
}

/// Throughput and recovery accounting of one restart replay
/// (`cvliw bench --serve --restart`).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRestartReport {
    /// Requests per pass.
    pub requests: usize,
    /// Worker threads each daemon "run" used.
    pub jobs: usize,
    /// Cache entries the restarted daemon recovered from disk.
    pub loaded_entries: usize,
    /// Wall-clock milliseconds of the warm pass served by the
    /// *restarted* daemon.
    pub restart_wall_ms: f64,
    /// Restart-warm requests per second.
    pub restart_rps: f64,
    /// Fraction of restart-pass requests answered from the recovered
    /// cache (the headline number: how much of the warm state survived
    /// the restart).
    pub restart_hit_rate: f64,
}

/// Measures cache persistence end to end: a first daemon "run" compiles
/// the grid cold and compacts its log in a scratch cache directory; its
/// state is dropped (the restart); a second run recovers the directory and
/// serves the same traffic, which must be answered from the recovered
/// cache — byte-identical to the cold responses.
///
/// # Errors
///
/// [`SuiteError`] for invalid grids, [`SuiteError::Persist`] when the
/// scratch directory cannot be written or recovered.
///
/// # Panics
///
/// Panics if a restart-pass response diverges from its cold counterpart
/// — persistence must never change a single served byte.
pub fn serve_restart_replay(
    grid: &SuiteGrid,
    jobs: usize,
) -> Result<ServeRestartReport, SuiteError> {
    let prep = prepare(grid)?;
    let jobs = jobs.max(1);
    let traffic = GridTraffic::build(grid, &prep);
    let requests = traffic.sources.len();

    static SCRATCH: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cvliw-restart-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let cfg = ServerConfig {
        jobs,
        cache_entries: requests.max(1),
        ..ServerConfig::default()
    };
    let persist_err = |e: std::io::Error| SuiteError::Persist(e.to_string());

    // First life: cold-compile the grid, compact, "crash" (drop).
    let (shared, _) = SharedState::with_persistence(&cfg, &dir).map_err(persist_err)?;
    let mut server = Server::with_shared(cfg, shared.clone());
    let (cold_out, _) = timed_pass(&mut server, &traffic.render_pass(0));
    if let Some(outcome) = shared.snapshot_now() {
        outcome.map_err(persist_err)?;
    }
    drop(server);
    drop(shared);

    // Second life: recover the directory, serve the same traffic warm.
    let (shared, load) = SharedState::with_persistence(&cfg, &dir).map_err(persist_err)?;
    let mut server = Server::with_shared(cfg, shared.clone());
    let (warm_out, restart_wall_ms) =
        timed_pass(&mut server, &traffic.render_pass(requests as u64));
    let stats = server.stats();
    drop(server);
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        strip_ids(&cold_out),
        strip_ids(&warm_out),
        "serve restart replay: recovered-cache responses diverged from cold responses"
    );

    Ok(ServeRestartReport {
        requests,
        jobs,
        loaded_entries: load.loaded,
        restart_wall_ms,
        restart_rps: requests as f64 / (restart_wall_ms / 1e3),
        restart_hit_rate: if stats.requests == 0 {
            0.0
        } else {
            stats.hits as f64 / stats.requests as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_replicate::Mode;

    fn tiny_grid() -> SuiteGrid {
        SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into()])
            .with_specs(vec!["2c1b2l64r".into(), "4c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline, Mode::Replicate])
            .with_max_loops(2)
    }

    #[test]
    fn replay_reports_full_warm_hit_rate_and_no_errors() {
        let report = serve_replay(&tiny_grid(), 2).unwrap();
        assert_eq!(report.requests, 2 * 2 * 2);
        assert_eq!(report.jobs, 2);
        assert!(report.errors == 0, "{report:?}");
        assert!(
            (report.warm_hit_rate - 1.0).abs() < 1e-9,
            "warm pass must be all hits: {report:?}"
        );
        assert!(report.cold_wall_ms > 0.0 && report.warm_wall_ms > 0.0);
        assert!(report.warm_rps >= report.cold_rps, "{report:?}");
    }

    #[test]
    fn bad_grid_is_rejected() {
        let grid = tiny_grid().with_specs(vec!["nope".into()]);
        assert!(matches!(
            serve_replay(&grid, 1),
            Err(SuiteError::Spec { .. })
        ));
    }

    #[test]
    fn restart_replay_recovers_the_whole_cache() {
        let report = serve_restart_replay(&tiny_grid(), 1).unwrap();
        assert_eq!(report.requests, 2 * 2 * 2);
        assert_eq!(
            report.loaded_entries, report.requests,
            "every cold compile must survive the restart: {report:?}"
        );
        assert!(
            (report.restart_hit_rate - 1.0).abs() < 1e-9,
            "the restarted daemon recompiled something: {report:?}"
        );
        assert!(report.restart_wall_ms > 0.0 && report.restart_rps > 0.0);
    }
}
