//! The serve workload: seeded, skewed streams of JSONL compile requests
//! sent one at a time through an in-process `Server` at its default
//! configuration (one worker, a 1,024-entry result cache).
//!
//! A run serves one stream per salted suite, each to a fresh server. A
//! stream's key pool is 40 loops of its suite (four per program) × the
//! six paper machines × all five modes = 1,200 keys, slightly more than
//! the cache holds, so hits and misses (with evictions) share one cache.
//! Keys are drawn with square-law skew: a uniform draw `u` picks rank
//! `⌊u²·K⌋` of a seeded permutation, so hot keys repeat and cold keys
//! still appear.
//!
//! Only the pools' loop text and the key streams (two bytes a request)
//! are stored; each request line is rendered into one reused buffer just
//! before it is sent, so stored request text does not set the memory
//! high-water mark.

use std::time::Instant;

use cvliw_ir::{parse_loop, print_loop};
use cvliw_machine::MachineConfig;
use cvliw_replicate::{compile_loop, fnv1a_64, CompileOptions, Mode};
use cvliw_serve::json::escape_into;
use cvliw_serve::{render_ok_body, Server, ServerConfig};
use cvliw_workloads::{suite_with_salt, WorkloadLoop};

use crate::probe::Probe;
use crate::report::{Metric, Outcome};
use crate::stats::{median, Samples};
use crate::trace::{Tracer, ROOT};
use crate::{
    medians, mii_bound_cycles, percentiles, run_passes, salts, time_setup, write_trace, Args,
};

/// Streams per run, each from its own salted suite. A stream's cost rests
/// on its 40 loops: with four streams throughput moved by 8% and peak
/// memory by 15% from seed to seed, with eight by about 7% and 3–9%.
const STREAMS: u64 = 8;
/// Pool loops drawn from each of the suite's ten programs.
const LOOPS_PER_PROGRAM: usize = 4;
/// Requests per stream.
const REQUESTS: usize = 20_000;
/// Requests between two machine-speed probes.
const SEGMENT: usize = 250;

/// One stream's loops and keys.
struct Pool {
    loops: Vec<WorkloadLoop>,
    /// Each loop as `print_loop` renders it.
    printed: Vec<String>,
    /// The same text, JSON-escaped for the `loop` field.
    escaped: Vec<String>,
    /// Key ids, one per request.
    stream: Vec<u16>,
}

struct Inputs {
    pools: Vec<Pool>,
    specs: Vec<&'static str>,
    machines: Vec<MachineConfig>,
}

impl Inputs {
    fn keys_per_pool(&self) -> usize {
        LOOPS_PER_PROGRAM
            * cvliw_workloads::program_names().len()
            * self.machines.len()
            * Mode::ALL.len()
    }

    /// `(loop, machine, mode)` of a key id.
    fn key(&self, key: usize) -> (usize, usize, Mode) {
        let modes = Mode::ALL.len();
        let machines = self.machines.len();
        (
            key / (modes * machines),
            (key / modes) % machines,
            Mode::ALL[key % modes],
        )
    }

    fn render(&self, pool: &Pool, id: usize, key: u16, line: &mut String) {
        let (l, m, mode) = self.key(usize::from(key));
        line.clear();
        line.push_str("{\"id\":");
        line.push_str(&id.to_string());
        line.push_str(",\"loop\":\"");
        line.push_str(&pool.escaped[l]);
        line.push_str("\",\"machine\":\"");
        line.push_str(self.specs[m]);
        line.push_str("\",\"mode\":\"");
        line.push_str(mode.name());
        line.push_str("\"}");
    }
}

/// SplitMix64: the streams' only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn draw_stream(salt: u64, keys: usize) -> Vec<u16> {
    let mut rng = Rng(salt ^ 0x5e57_e000_0000_0001);
    let mut perm: Vec<u16> = (0..keys as u16).collect();
    for i in (1..keys).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    (0..REQUESTS)
        .map(|_| {
            let u = rng.unit();
            perm[((u * u * keys as f64) as usize).min(keys - 1)]
        })
        .collect()
}

fn setup(seed: u64, generate_ms: &mut Vec<f64>, print_us: &mut Vec<f64>) -> Inputs {
    let specs = cvliw_machine::paper_specs().to_vec();
    let machines: Vec<MachineConfig> = specs
        .iter()
        .map(|s| MachineConfig::from_spec(s).expect("preset machine specs parse"))
        .collect();
    let pools = salts(seed, STREAMS)
        .map(|salt| {
            let started = Instant::now();
            let loops: Vec<WorkloadLoop> = suite_with_salt(salt, LOOPS_PER_PROGRAM)
                .into_iter()
                .flat_map(|p| p.loops)
                .collect();
            generate_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let printed: Vec<String> = loops
                .iter()
                .map(|l| {
                    let started = Instant::now();
                    let text = print_loop(&l.name, &l.ddg);
                    print_us.push(started.elapsed().as_secs_f64() * 1e6);
                    text
                })
                .collect();
            let escaped = printed
                .iter()
                .map(|t| {
                    let mut out = String::with_capacity(t.len() + t.len() / 8);
                    escape_into(t, &mut out);
                    out
                })
                .collect();
            let keys = loops.len() * machines.len() * Mode::ALL.len();
            Pool {
                loops,
                printed,
                escaped,
                stream: draw_stream(salt, keys),
            }
        })
        .collect();
    Inputs {
        pools,
        specs,
        machines,
    }
}

/// What one pass over every stream produced.
#[derive(Default)]
struct Pass {
    /// Probe-normalised time inside `process_batch`.
    timed_ns: u64,
    /// Wall-clock time inside `process_batch`.
    raw_ns: u64,
    requests: u64,
    /// FNV-1a of each response body (the bytes after the id).
    hashes: Vec<u64>,
    /// Per pool, the first response body of each key: what
    /// `render_ok_body` writes for a success.
    first: Vec<Vec<Option<String>>>,
    not_ok: u64,
    /// Repeats of a key whose body differs from the key's first one.
    diverged: u64,
    /// Server counters, summed over the streams' servers.
    hits: u64,
    misses: u64,
    evictions: u64,
    coalesced: u64,
    cache_entries: u64,
    cache_bytes: u64,
}

/// How the server answered a request, as seen from outside: a hit if the
/// server's hit count rose, else a miss on a (loop, machine) pair this
/// stream has or has not requested before. Only traced passes classify.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Answer {
    Untraced,
    Hit,
    MissNewPair,
    MissKnownPair,
}

/// Per-request latencies of traced passes, split by how the server
/// answered.
#[derive(Default)]
struct Split {
    hit: Samples,
    miss: Samples,
    miss_new_pair: Vec<f64>,
    miss_known_pair: Vec<f64>,
}

impl Split {
    fn push(&mut self, ns: u64, answer: Answer) {
        let ms = ns as f64 / 1e6;
        match answer {
            Answer::Untraced => {}
            Answer::Hit => self.hit.push(ns),
            Answer::MissNewPair => {
                self.miss.push(ns);
                self.miss_new_pair.push(ms);
            }
            Answer::MissKnownPair => {
                self.miss.push(ns);
                self.miss_known_pair.push(ms);
            }
        }
    }
}

fn run_pass(
    inputs: &Inputs,
    latency: &mut Samples,
    split: &mut Split,
    tracer: &mut Tracer,
) -> Pass {
    let keys = inputs.keys_per_pool();
    let mut pass = Pass::default();
    let (mut line, mut out) = (String::with_capacity(4096), String::with_capacity(512));
    let mut probe = Probe::new();
    let mut segment: Vec<(u64, Answer)> = Vec::with_capacity(SEGMENT);

    for pool in &inputs.pools {
        let mut server = Server::new(ServerConfig::default());
        let mut first: Vec<Option<String>> = vec![None; keys];
        let mut first_hash = vec![0u64; keys];
        let mut pair_seen = vec![false; keys / Mode::ALL.len()];
        for (i, &key) in pool.stream.iter().enumerate() {
            let id = pass.requests as u32;
            pass.requests += 1;
            let request = tracer.open(id, "request", ROOT);
            let span = tracer.open(id, "generate", request);
            inputs.render(pool, i, key, &mut line);
            tracer.close(span);
            let before = tracer.enabled.then(|| server.stats());
            let span = tracer.open(id, "process_batch", request);
            let started = Instant::now();
            server.process_batch(std::slice::from_ref(&line), &mut out);
            let ns = started.elapsed().as_nanos() as u64;
            tracer.close(span);
            tracer.close(request);

            let k = usize::from(key);
            let pair = k / Mode::ALL.len();
            let answer = match before {
                None => Answer::Untraced,
                Some(b) if server.stats().hits > b.hits => Answer::Hit,
                Some(_) if pair_seen[pair] => Answer::MissKnownPair,
                Some(_) => Answer::MissNewPair,
            };
            pair_seen[pair] = true;
            segment.push((ns, answer));
            if segment.len() == SEGMENT || i + 1 == pool.stream.len() {
                let factor = probe.factor();
                for &(ns, answer) in &segment {
                    pass.raw_ns += ns;
                    let ns = (ns as f64 / factor) as u64;
                    pass.timed_ns += ns;
                    latency.push(ns);
                    split.push(ns, answer);
                }
                segment.clear();
            }

            // `{"id":<i>,` + body + `}\n`
            let body = out
                .split_once(',')
                .and_then(|(_, rest)| rest.strip_suffix("}\n"))
                .unwrap_or("");
            if !body.starts_with("\"ok\":") {
                pass.not_ok += 1;
            }
            let hash = fnv1a_64(body.as_bytes());
            pass.hashes.push(hash);
            match &first[k] {
                None => {
                    first[k] = Some(body.to_string());
                    first_hash[k] = hash;
                }
                Some(_) if first_hash[k] != hash => pass.diverged += 1,
                Some(_) => {}
            }
            out.clear();
        }
        let stats = server.stats();
        pass.hits += stats.hits;
        pass.misses += stats.misses;
        pass.evictions += stats.evictions;
        pass.coalesced += stats.coalesced;
        pass.cache_entries += server.shared().cache_len() as u64;
        pass.cache_bytes += server.shared().cache_bytes() as u64;
        pass.first.push(first);
    }
    pass
}

/// What compiling every requested key directly found.
#[derive(Default)]
struct Direct {
    /// Keys whose direct compile differs from the served body.
    wrong: u64,
    /// Σ `LoopProfile::cycles` and Σ MII bounds of the direct schedules.
    cycles: u64,
    bound_cycles: u64,
    /// `parse_loop` time of each pool loop, in µs.
    parse_us: Vec<f64>,
}

/// Compiles every key that was requested directly with `compile_loop` on
/// the parsed request text and compares its `render_ok_body` rendering
/// with the body the server sent first for that key.
fn check_against_direct_compiles(inputs: &Inputs, first: &[Vec<Option<String>>]) -> Direct {
    let mut direct = Direct::default();
    let per_loop = Mode::ALL.len() * inputs.machines.len();
    let mut expected = String::new();
    for (pool, served_bodies) in inputs.pools.iter().zip(first) {
        let loops = pool.loops.iter().zip(&pool.printed).enumerate();
        for ((l, (lp, printed)), bodies) in loops.zip(served_bodies.chunks(per_loop)) {
            let started = Instant::now();
            let parsed = parse_loop(printed);
            direct.parse_us.push(started.elapsed().as_secs_f64() * 1e6);
            for (j, served) in bodies.iter().enumerate() {
                let Some(served) = served else {
                    continue;
                };
                let (_, m, mode) = inputs.key(l * per_loop + j);
                let opts = CompileOptions {
                    mode,
                    ..CompileOptions::default()
                };
                let Ok(c) = parsed
                    .as_ref()
                    .map_err(|_| ())
                    .and_then(|p| compile_loop(&p.ddg, &inputs.machines[m], &opts).map_err(|_| ()))
                else {
                    direct.wrong += 1;
                    continue;
                };
                direct.cycles += lp.profile.cycles(c.stats.ii, c.stats.stage_count);
                direct.bound_cycles += mii_bound_cycles(lp, &c.stats);
                expected.clear();
                render_ok_body(&c.stats, &mut expected);
                if *served != expected {
                    direct.wrong += 1;
                }
            }
        }
    }
    direct
}

/// Runs the serve mix for `args.seconds` of measured request time.
pub fn run(args: &Args) -> Outcome {
    let mut tracer = Tracer::new(args.trace);
    let (mut generate_ms, mut print_us) = (Vec::new(), Vec::new());
    let (inputs, setup_s) = time_setup(|rep| {
        let span = tracer.open(rep, "generate", ROOT);
        let inputs = setup(args.seed, &mut generate_ms, &mut print_us);
        tracer.close(span);
        inputs
    });

    let mut latency = Samples::default();
    let mut split = Split::default();
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut layer_rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut first_pass: Option<Pass> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    run_passes(args.seconds, args.trace, |traced| {
        let mark = tracer.mark();
        tracer.enabled = traced;
        let mut traced_latency = Samples::default();
        let samples = if traced {
            &mut traced_latency
        } else {
            &mut latency
        };
        let pass = run_pass(&inputs, samples, &mut split, &mut tracer);
        let requests = pass.requests as f64;
        let rate = requests / (pass.timed_ns as f64 / 1e9);
        let wall = pass.raw_ns as f64 / 1e9;
        println!(
            "# pass traced={traced}: {wall:.3} s wall, {:.1} requests/s wall, {rate:.1} normalised",
            requests / wall
        );
        attempted += pass.requests;
        failed += pass.not_ok + pass.diverged;
        if traced {
            traced_rates.push(rate);
            let norm = pass.timed_ns as f64 / pass.raw_ns as f64;
            let totals = tracer.totals_since(mark);
            let ms = |name: &str| {
                totals
                    .get(name)
                    .map_or(0.0, |t| t.total_ns as f64 * norm / 1e6)
            };
            layer_rows.push(vec![
                ("serve.process_batch_ms", ms("process_batch")),
                (
                    "trace.spans",
                    totals.values().map(|t| t.count).sum::<u64>() as f64,
                ),
            ]);
        } else {
            rates.push(rate);
        }
        // Responses are a pure function of the stream, so every pass must
        // answer every request with the first pass's bytes.
        match &first_pass {
            None => first_pass = Some(pass),
            Some(first) => {
                failed += first
                    .hashes
                    .iter()
                    .zip(&pass.hashes)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
            }
        }
        wall
    });
    let first = first_pass.expect("at least one pass ran");
    let direct = check_against_direct_compiles(&inputs, &first.first);
    failed += direct.wrong;

    let mut out = Outcome::new(attempted, failed);
    out.end_to_end.push(Metric::new(
        "throughput_per_s",
        median(&rates),
        format!(
            "requests per second, median of {} untraced passes",
            rates.len()
        ),
    ));
    out.end_to_end.extend(percentiles(
        &mut latency,
        ["p50_ms", "p99_ms"],
        1e6,
        "per request",
    ));
    let distinct = first.first.iter().flatten().flatten().count();
    out.end_to_end.push(Metric::new(
        "cycles_vs_mii",
        direct.cycles as f64 / direct.bound_cycles as f64,
        format!("exact, over the {distinct} distinct keys requested"),
    ));
    out.finish(&setup_s);

    if args.trace {
        let requests = first.hits + first.misses;
        let count = |name, v: u64| Metric::new(name, v as f64, "exact, per pass");
        out.per_layer.extend(medians(&layer_rows));
        out.per_layer.extend(percentiles(
            &mut split.hit,
            ["serve.hit_us.p50", "serve.hit_us.p99"],
            1e3,
            "cache hits",
        ));
        out.per_layer.extend(percentiles(
            &mut split.miss,
            ["serve.miss_ms.p50", "serve.miss_ms.p99"],
            1e6,
            "misses",
        ));
        out.per_layer.extend([
            Metric::new(
                "serve.miss_new_pair_ms",
                median(&split.miss_new_pair),
                format!(
                    "median of {} misses on a first-seen (loop, machine)",
                    split.miss_new_pair.len()
                ),
            ),
            Metric::new(
                "serve.miss_known_pair_ms",
                median(&split.miss_known_pair),
                format!(
                    "median of {} misses on a seen (loop, machine)",
                    split.miss_known_pair.len()
                ),
            ),
            Metric::new(
                "serve.hit_rate",
                first.hits as f64 / requests.max(1) as f64,
                format!("exact, {} of {requests}", first.hits),
            ),
            count("serve.misses", first.misses),
            count("serve.evictions", first.evictions),
            count("serve.coalesced", first.coalesced),
            count("serve.cache_entries", first.cache_entries),
            count("serve.cache_bytes", first.cache_bytes),
            Metric::new(
                "sched_mcycles",
                direct.cycles as f64 / 1e6,
                "exact, distinct keys",
            ),
            Metric::new(
                "ir.parse_us",
                median(&direct.parse_us),
                format!("median of {} pool loops", direct.parse_us.len()),
            ),
            Metric::new(
                "ir.print_us",
                median(&print_us),
                format!("median of {} prints", print_us.len()),
            ),
            Metric::new(
                "workloads.generate_ms",
                median(&generate_ms),
                format!("median of {} suite draws", generate_ms.len()),
            ),
        ]);
        out.set_overhead(&rates, &traced_rates);
        write_trace(&tracer, args);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_skewed() {
        let a = draw_stream(3, 1200);
        assert_eq!(a, draw_stream(3, 1200));
        assert_ne!(a, draw_stream(4, 1200));
        let mut counts = vec![0u32; 1200];
        for &k in &a {
            counts[usize::from(k)] += 1;
        }
        counts.sort_unstable();
        // Square-law skew: the hottest key repeats far more often than
        // the median key.
        assert!(counts[1199] > 10 * counts[600].max(1));
    }
}
