//! Metric names, units and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the benchmark's metric sets; every run
//! prints the whole set its mode asks for, so a per-layer metric a
//! workload does not exercise reads 0. The unit test at the bottom keeps
//! both lists in step with `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::stats::median;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cycles_vs_mii", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("analysis.ms", "ms"),
    ("stage.analysis_ms", "ms"),
    ("stage.partition_ms", "ms"),
    ("stage.replicate_ms", "ms"),
    ("stage.schedule_ms", "ms"),
    ("compile.baseline_ms", "ms"),
    ("compile.value-clone_ms", "ms"),
    ("compile.replicate_ms", "ms"),
    ("compile.sched-len_ms", "ms"),
    ("compile.zero-bus_ms", "ms"),
    ("work.ii_attempts", "count"),
    ("work.ii_bumps.bus", "count"),
    ("work.ii_bumps.recurrence", "count"),
    ("work.ii_bumps.registers", "count"),
    ("work.ii_bumps.resources", "count"),
    ("work.partition_coms", "count"),
    ("work.final_coms", "count"),
    ("work.net_added_ops", "count"),
    ("work.copies", "count"),
    ("verify.ms", "ms"),
    ("simulate.ms", "ms"),
    ("simulate.values_checked", "count"),
    ("sched_mcycles", "Mcycles"),
    ("quality.replicate_speedup", "x"),
    ("serve.hit_us.p50", "us"),
    ("serve.hit_us.p99", "us"),
    ("serve.miss_ms.p50", "ms"),
    ("serve.miss_ms.p99", "ms"),
    ("serve.miss_new_pair_ms", "ms"),
    ("serve.miss_known_pair_ms", "ms"),
    ("serve.hit_rate", "share"),
    ("serve.misses", "count"),
    ("serve.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.cache_entries", "count"),
    ("serve.cache_bytes", "bytes"),
    ("serve.process_batch_ms", "ms"),
    ("ir.parse_us", "us"),
    ("ir.print_us", "us"),
    ("workloads.generate_ms", "ms"),
    ("failed_share", "share"),
    ("trace.overhead", "%"),
    ("trace.spans", "count"),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How the value was obtained: sample counts, tail sizes, exactness.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, note: impl Into<String>) -> Self {
        Metric {
            name,
            value,
            note: note.into(),
        }
    }
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    /// Adds `setup_s` (median of the set-up repetitions) and
    /// `peak_rss_mb`, plus the per-layer `failed_share`.
    pub fn finish(&mut self, setup_s: &[f64]) {
        self.end_to_end.push(Metric::new(
            "setup_s",
            median(setup_s),
            format!("median of {} set-ups", setup_s.len()),
        ));
        self.end_to_end.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb(),
            "VmHWM of the whole process",
        ));
        self.per_layer.push(Metric::new(
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            format!("{} of {}", self.failed, self.attempted),
        ));
    }

    /// Adds `trace.overhead`: how much slower the traced passes ran than
    /// the untraced ones, from the medians of their throughputs.
    pub fn set_overhead(&mut self, untraced: &[f64], traced: &[f64]) {
        let overhead = (median(untraced) / median(traced) - 1.0) * 100.0;
        self.per_layer.push(Metric::new(
            "trace.overhead",
            overhead,
            format!(
                "untraced vs traced throughput, {} and {} passes",
                untraced.len(),
                traced.len()
            ),
        ));
    }

    /// Prints a readable table of the reported set, then the result line.
    pub fn print(&self, trace: bool) {
        let (set, reported): (&[(&str, &str)], &[Metric]) = if trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let mut json = String::new();
        for (i, (name, unit)) in set.iter().enumerate() {
            let found = reported.iter().find(|m| m.name == *name);
            let value = found.map_or(0.0, |m| m.value);
            let value = if value.is_finite() { value } else { 0.0 };
            let note = found.map_or("not exercised by this workload", |m| m.note.as_str());
            println!("# {name:<28} {value:>16.6} {unit:<8} {note}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// The process's peak resident set, in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let compact: String = text.split_whitespace().collect();
        let entries = compact.matches("{\"name\":").count();
        let mut listed = 0;
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(
                compact.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
            listed += 1;
        }
        // Workload entries also start with `{"name":`.
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(
            entries,
            listed + workloads,
            "BENCHMARK.json lists a metric the code does not"
        );
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
