//! The compile workloads: every (loop, machine) unit of a seeded suite,
//! compiled the way the experiment suite compiles it.
//!
//! A unit builds one `CompileContext` on a recycled scratch and compiles
//! each of the workload's modes on it. Units run in chunks; a chunk's
//! compiles are timed back to back and its schedules are checked only
//! after the chunk, so the checks never run between timed compiles and
//! at most one chunk of schedules is alive at a time.

use std::hint::black_box;
use std::time::Instant;

use cvliw_machine::MachineConfig;
use cvliw_replicate::{
    compile_loop_ctx, CompileContext, CompileError, CompileOptions, CompileScratch, CompiledLoop,
    LoopStats, Mode,
};
use cvliw_sim::{simulate, SimError};
use cvliw_workloads::{suite_with_salt, WorkloadLoop};

use crate::probe::Probe;
use crate::report::{Metric, Outcome};
use crate::stats::{median, Samples};
use crate::trace::{Tracer, ROOT};
use crate::{
    medians, mii_bound_cycles, percentiles, run_passes, salts, time_setup, write_trace, Args,
};

/// Salted suites per run. On one suite, throughput and tail latency move
/// by about 10% and 20% from seed to seed with the loops the generator
/// happens to draw; four suites bring that to about 5% and 8%.
const SUITES: u64 = 4;
/// Units per timed chunk.
const CHUNK_UNITS: usize = 64;
/// Iterations of each lockstep simulation (what `cvliw schedule` runs).
const SIM_ITERATIONS: u64 = 8;

/// Which machines and modes a compile workload covers.
pub struct GridSpec {
    pub machines: Vec<&'static str>,
    pub modes: &'static [Mode],
}

impl GridSpec {
    /// The paper's reproduction traffic: the six bus machines, all modes.
    pub fn paper_grid() -> Self {
        GridSpec {
            machines: cvliw_machine::paper_specs().to_vec(),
            modes: &Mode::ALL,
        }
    }

    /// One-shot baseline compiles on the bus machines and the
    /// point-to-point topology machines.
    pub fn baseline_fabrics() -> Self {
        let mut machines = cvliw_machine::paper_specs().to_vec();
        machines.extend(cvliw_machine::topology_specs());
        GridSpec {
            machines,
            modes: &[Mode::Baseline],
        }
    }
}

/// One salted suite's loops, flattened in program order.
fn suite_loops(salt: u64) -> Vec<WorkloadLoop> {
    suite_with_salt(salt, usize::MAX)
        .into_iter()
        .flat_map(|p| p.loops)
        .collect()
}

fn compile_span(mode: Mode) -> &'static str {
    match mode {
        Mode::Baseline => "compile[baseline]",
        Mode::ValueClone => "compile[value-clone]",
        Mode::Replicate => "compile[replicate]",
        Mode::ReplicateSchedLen => "compile[sched-len]",
        Mode::ZeroBusLatency => "compile[zero-bus]",
    }
}

/// Exact work counts summed from `LoopStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Work {
    ii_attempts: u64,
    bumps: [u64; 4],
    partition_coms: u64,
    final_coms: u64,
    net_added_ops: u64,
    copies: u64,
}

impl Work {
    fn add(&mut self, s: &LoopStats) {
        let c = &s.causes;
        let bumps = [c.bus, c.recurrence, c.registers, c.resources];
        for (acc, b) in self.bumps.iter_mut().zip(bumps) {
            *acc += u64::from(b);
        }
        self.ii_attempts += u64::from(c.total()) + 1;
        self.partition_coms += u64::from(s.partition_coms);
        self.final_coms += u64::from(s.final_coms);
        self.net_added_ops += u64::from(s.net_added());
        self.copies += u64::from(s.copies_per_iter);
    }
}

/// What one pass over every unit produced.
#[derive(Default)]
struct Pass {
    /// Probe-normalised compile time.
    timed_ns: u64,
    /// Wall-clock compile time.
    raw_ns: u64,
    compiles: u64,
    failed: u64,
    /// Σ `LoopProfile::cycles` per mode, indexed by `Mode::index`.
    cycles: [u64; 5],
    /// Σ of each schedule's MII kernel bound (see `mii_bound_cycles`).
    bound_cycles: u64,
    work: Work,
    stage_ns: [u64; 4],
    values_checked: u64,
}

/// Checks one compile result against `Schedule::verify` and, unless the
/// schedule is the relaxed zero-bus one, the lockstep simulator (which
/// compares every operand with `reference_values`). Returns whether it
/// passed.
fn check(
    out: &Result<CompiledLoop, CompileError>,
    lp: &WorkloadLoop,
    machine: &MachineConfig,
    mode: Mode,
    pass: &mut Pass,
    tracer: &mut Tracer,
    (id, parent): (u32, u32),
) -> bool {
    let Ok(c) = out else { return false };
    pass.cycles[mode.index() as usize] += lp.profile.cycles(c.stats.ii, c.stats.stage_count);
    pass.bound_cycles += mii_bound_cycles(lp, &c.stats);
    pass.work.add(&c.stats);
    let span = tracer.open(id, "verify", parent);
    let verified = c.schedule.verify(&lp.ddg, machine).is_ok();
    tracer.close(span);
    if !verified {
        return false;
    }
    let span = tracer.open(id, "simulate", parent);
    let simulated = simulate(&lp.ddg, machine, &c.schedule, SIM_ITERATIONS);
    tracer.close(span);
    match simulated {
        Ok(report) => {
            pass.values_checked += report.values_checked;
            mode != Mode::ZeroBusLatency
        }
        Err(SimError::RelaxedSchedule) => mode == Mode::ZeroBusLatency,
        Err(_) => false,
    }
}

/// Compiles every unit of every suite once, recording per-unit latency
/// into `unit_ns`. Each suite is generated (untimed) just before its
/// units run and dropped after, so one suite is resident at a time.
fn run_pass(
    salts: &[u64],
    machines: &[MachineConfig],
    modes: &[Mode],
    unit_ns: &mut Samples,
    tracer: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let opts: Vec<CompileOptions> = modes
        .iter()
        .map(|&mode| CompileOptions {
            mode,
            ..CompileOptions::default()
        })
        .collect();
    let mut scratch = Some(CompileScratch::default());
    let mut probe = Probe::new();
    let mut chunk_ns: Vec<u64> = Vec::with_capacity(CHUNK_UNITS);
    let mut outs: Vec<Result<CompiledLoop, CompileError>> =
        Vec::with_capacity(CHUNK_UNITS * modes.len());
    let mut next_id = 0u32;

    for &salt in salts {
        let loops = suite_loops(salt);
        let units: Vec<(usize, usize)> = (0..machines.len())
            .flat_map(|m| (0..loops.len()).map(move |l| (m, l)))
            .collect();
        for chunk in units.chunks(CHUNK_UNITS) {
            let base = next_id;
            next_id += chunk.len() as u32;
            outs.clear();
            chunk_ns.clear();
            let started = Instant::now();
            for (k, &(m, l)) in chunk.iter().enumerate() {
                let (lp, machine) = (&loops[l], &machines[m]);
                let id = base + k as u32;
                let unit_started = Instant::now();
                let unit = tracer.open(id, "unit", ROOT);
                let span = tracer.open(id, "context", unit);
                let recycled = scratch.take().expect("each unit returns the scratch");
                let ctx = CompileContext::new_with_scratch(&lp.ddg, machine, recycled);
                tracer.close(span);
                for (&mode, opt) in modes.iter().zip(&opts) {
                    let span = tracer.open(id, compile_span(mode), unit);
                    outs.push(compile_loop_ctx(&lp.ddg, machine, opt, &ctx));
                    tracer.close(span);
                }
                for (acc, ns) in pass.stage_ns.iter_mut().zip(ctx.stage_nanos()) {
                    *acc += ns;
                }
                scratch = Some(ctx.into_scratch());
                tracer.close(unit);
                chunk_ns.push(unit_started.elapsed().as_nanos() as u64);
            }
            let raw = started.elapsed().as_nanos() as u64;
            let factor = probe.factor();
            pass.raw_ns += raw;
            pass.timed_ns += (raw as f64 / factor) as u64;
            for &ns in &chunk_ns {
                unit_ns.push((ns as f64 / factor) as u64);
            }

            let mut results = outs.iter();
            for (k, &(m, l)) in chunk.iter().enumerate() {
                let id = base + k as u32;
                let parent = tracer.open(id, "check", ROOT);
                for &mode in modes {
                    let out = results.next().expect("one result per unit and mode");
                    let (lp, machine) = (&loops[l], &machines[m]);
                    pass.compiles += 1;
                    if !check(out, lp, machine, mode, &mut pass, tracer, (id, parent)) {
                        pass.failed += 1;
                    }
                }
                tracer.close(parent);
            }
        }
    }
    pass
}

/// Runs a compile workload for `args.seconds` of measured compile time.
pub fn run(spec: &GridSpec, args: &Args) -> Outcome {
    let mut tracer = Tracer::new(args.trace);
    let salts: Vec<u64> = salts(args.seed, SUITES).collect();
    let mut generate_ms = Vec::new();
    // Set-up is generating every suite of the run; passes regenerate them
    // one at a time, so only the machines are kept.
    let (machines, setup_s) = time_setup(|rep| {
        let span = tracer.open(rep, "generate", ROOT);
        for &salt in &salts {
            let started = Instant::now();
            black_box(suite_loops(salt));
            generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        tracer.close(span);
        spec.machines
            .iter()
            .map(|s| MachineConfig::from_spec(s).expect("preset machine specs parse"))
            .collect::<Vec<_>>()
    });

    let mut unit_ns = Samples::default();
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut passes: Vec<Pass> = Vec::new();
    let mut layer_rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    run_passes(args.seconds, args.trace, |traced| {
        let mark = tracer.mark();
        tracer.enabled = traced;
        let mut traced_ns = Samples::default();
        let samples = if traced { &mut traced_ns } else { &mut unit_ns };
        let pass = run_pass(&salts, &machines, spec.modes, samples, &mut tracer);
        let rate = pass.compiles as f64 / (pass.timed_ns as f64 / 1e9);
        let wall = pass.raw_ns as f64 / 1e9;
        println!(
            "# pass traced={traced}: {wall:.3} s wall, {:.1} compiles/s wall, {rate:.1} normalised",
            pass.compiles as f64 / wall
        );
        if traced {
            traced_rates.push(rate);
            // Span and stage clocks are wall time; scale them by the
            // pass's mean probe factor like every other timing.
            let norm = pass.timed_ns as f64 / pass.raw_ns as f64;
            let totals = tracer.totals_since(mark);
            let ms = |name: &str| {
                totals
                    .get(name)
                    .map_or(0.0, |t| t.total_ns as f64 * norm / 1e6)
            };
            let mut row = vec![
                ("analysis.ms", ms("context")),
                ("verify.ms", ms("verify")),
                ("simulate.ms", ms("simulate")),
                (
                    "trace.spans",
                    totals.values().map(|t| t.count).sum::<u64>() as f64,
                ),
            ];
            row.extend(Mode::ALL.map(|m| (compile_metric(m), ms(compile_span(m)))));
            row.extend(
                STAGE_METRICS
                    .into_iter()
                    .zip(pass.stage_ns.map(|ns| ns as f64 * norm / 1e6)),
            );
            layer_rows.push(row);
        } else {
            rates.push(rate);
        }
        passes.push(pass);
        wall
    });

    let first = &passes[0];
    let attempted: u64 = passes.iter().map(|p| p.compiles).sum();
    // Compilation is deterministic: every pass must reproduce the first
    // pass's schedules, which the cycle totals and work counts summarise.
    let diverged = passes
        .iter()
        .filter(|p| p.cycles != first.cycles || p.work != first.work)
        .count() as u64;
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + diverged;

    let mut out = Outcome::new(attempted, failed);
    out.end_to_end.push(Metric::new(
        "throughput_per_s",
        median(&rates),
        format!(
            "compiles per second, median of {} untraced passes",
            rates.len()
        ),
    ));
    out.end_to_end.extend(percentiles(
        &mut unit_ns,
        ["p50_ms", "p99_ms"],
        1e6,
        "per (loop, machine) unit",
    ));
    let cycles = first.cycles.iter().sum::<u64>();
    out.end_to_end.push(Metric::new(
        "cycles_vs_mii",
        cycles as f64 / first.bound_cycles as f64,
        format!("exact, over the {} compiles of a pass", first.compiles),
    ));
    out.finish(&setup_s);

    if args.trace {
        let w = &first.work;
        let count = |name, v: u64| Metric::new(name, v as f64, "exact, per pass");
        out.per_layer.extend(medians(&layer_rows));
        out.per_layer.extend([
            count("work.ii_attempts", w.ii_attempts),
            count("work.ii_bumps.bus", w.bumps[0]),
            count("work.ii_bumps.recurrence", w.bumps[1]),
            count("work.ii_bumps.registers", w.bumps[2]),
            count("work.ii_bumps.resources", w.bumps[3]),
            count("work.partition_coms", w.partition_coms),
            count("work.final_coms", w.final_coms),
            count("work.net_added_ops", w.net_added_ops),
            count("work.copies", w.copies),
            count("simulate.values_checked", first.values_checked),
            Metric::new("sched_mcycles", cycles as f64 / 1e6, "exact, per pass"),
            Metric::new(
                "workloads.generate_ms",
                median(&generate_ms),
                format!("median of {} suite draws", generate_ms.len()),
            ),
            Metric::new(
                "quality.replicate_speedup",
                speedup(&first.cycles),
                "baseline cycles / replicate cycles, exact",
            ),
        ]);
        out.set_overhead(&rates, &traced_rates);
        write_trace(&tracer, args);
    }
    out
}

const STAGE_METRICS: [&str; 4] = [
    "stage.analysis_ms",
    "stage.partition_ms",
    "stage.replicate_ms",
    "stage.schedule_ms",
];

fn compile_metric(mode: Mode) -> &'static str {
    match mode {
        Mode::Baseline => "compile.baseline_ms",
        Mode::ValueClone => "compile.value-clone_ms",
        Mode::Replicate => "compile.replicate_ms",
        Mode::ReplicateSchedLen => "compile.sched-len_ms",
        Mode::ZeroBusLatency => "compile.zero-bus_ms",
    }
}

/// Baseline cycles over replicate cycles; 0 when either mode is absent.
pub fn speedup(cycles: &[u64; 5]) -> f64 {
    let base = cycles[Mode::Baseline.index() as usize];
    let rep = cycles[Mode::Replicate.index() as usize];
    if base == 0 || rep == 0 {
        0.0
    } else {
        base as f64 / rep as f64
    }
}
