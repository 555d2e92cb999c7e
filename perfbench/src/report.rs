//! What a run reports, and how it is printed.
//!
//! Every workload reports the same end-to-end metrics ([`END_TO_END`])
//! in the final JSON line, so runs of different workloads line up; what
//! each one means per workload is listed in `perfbench/README.md`. The
//! workload-specific figures (`decisions_per_s`, `p99_us_high`,
//! `convert_s`, ...) are printed by name, unit and direction on the lines
//! above it. A traced run reports every per-layer metric
//! ([`PER_LAYER`]); a layer the workload does not exercise reads 0.

use crate::stamp::{peak_rss_mb, Stamp};
use crate::stats::{median, relative_spread};
use crate::trace::Tracer;

/// `(name, unit)` of the end-to-end metrics, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
];

/// `(name, unit)` of the per-layer metrics, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // cosim_abr, per decision.
    ("sim.event_ns", "ns"),
    ("abr.step_ns", "ns"),
    ("fabric.submit_ns", "ns"),
    ("fabric.collect_ns", "ns"),
    ("cosim.record_ns", "ns"),
    ("cosim.unattributed_ns", "ns"),
    ("dt.kernel_ns_per_row", "ns"),
    ("sim.waves", "count"),
    ("sim.wave_rows_mean", "rows"),
    ("serve.batch_rows_mean", "rows"),
    ("trace.overhead_pct", "%"),
    // serve_poisson.
    ("gen.late_us_p50", "us"),
    ("gen.late_us_p99", "us"),
    ("gen.late_us_max", "us"),
    ("serve.engine_us_p50", "us"),
    ("serve.engine_us_p99", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.kernel_us_p50", "us"),
    ("telemetry.record_ns_per_row", "ns"),
    ("obs.tick_us", "us"),
    ("serve.publish_us_max", "us"),
    ("serve.batch_rows_mean.low", "rows"),
    ("serve.batch_rows_mean.high", "rows"),
    ("serve.batch_rows_mean.burst", "rows"),
    ("gen.sent.low", "count"),
    ("gen.sent.high", "count"),
    ("gen.sent.burst", "count"),
    ("serve.answered.low", "count"),
    ("serve.answered.high", "count"),
    ("serve.answered.burst", "count"),
    ("serve.swaps.low", "count"),
    ("serve.swaps.high", "count"),
    ("serve.swaps.burst", "count"),
    ("serve.mismatch_rows.low", "count"),
    ("serve.mismatch_rows.high", "count"),
    ("serve.mismatch_rows.burst", "count"),
    // interpret_offline.
    ("rl.collect_s", "s"),
    ("nn.label_rows_per_s", "1/s"),
    ("dt.fit_s", "s"),
    ("dt.prune_s", "s"),
    ("rl.fidelity_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.stats_collect_s", "s"),
    ("core.stats_fit_s", "s"),
    ("hypergraph.grad_ms", "ms"),
    ("hypergraph.step_ms", "ms"),
    ("rl.states", "count"),
    ("dt.leaves", "count"),
    ("hypergraph.connections", "count"),
];

/// One workload-specific figure printed above the result line.
struct Detail {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

/// What one run measured: workloads fill it, `main` prints it.
pub struct Report {
    setup_times: Vec<f64>,
    /// Operations attempted and failed (including mismatched outputs).
    pub attempted: u64,
    pub failed: u64,
    pub throughput_per_s: f64,
    pub p50_us: f64,
    /// `VmHWM` read at a fixed point of the run's work ([`Report::mark_rss`]).
    rss_mb: Option<f64>,
    details: Vec<Detail>,
    /// `(name, relative spread, samples)` of [`Report::timed`] figures.
    spreads: Vec<(&'static str, f64, usize)>,
    layers: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn new(setup_times: Vec<f64>) -> Report {
        Report {
            setup_times,
            attempted: 0,
            failed: 0,
            throughput_per_s: 0.0,
            p50_us: 0.0,
            rss_mb: None,
            details: Vec::new(),
            spreads: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
            tracer: None,
        }
    }

    pub fn detail(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
    ) {
        self.details.push(Detail {
            name,
            value,
            unit,
            better,
        });
    }

    /// The median of repeated measurements, printed with its spread
    /// (interquartile range over median) across the run; returns the
    /// median.
    pub fn timed(
        &mut self,
        name: &'static str,
        samples: &[f64],
        unit: &'static str,
        better: &'static str,
    ) -> f64 {
        let m = median(samples);
        self.detail(name, m, unit, better);
        if samples.len() >= 2 {
            self.spreads
                .push((name, relative_spread(samples), samples.len()));
        }
        m
    }

    /// Take `peak_rss_mb` now, unless it was taken already. Workloads call
    /// this after each unit of measured work (a loop, a round, a job), so
    /// the figure covers the set-ups and the first unit: it does not
    /// depend on how many more units fit in the run, or on how the
    /// allocator's per-thread arenas drift over them.
    pub fn mark_rss(&mut self) {
        self.rss_mb.get_or_insert_with(peak_rss_mb);
    }

    /// A per-layer metric; the name must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.layers.push((name, value));
    }

    /// A failed correctness gate, explained on standard error.
    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print the stamp, the named figures, and the result line last.
    pub fn print(&self, workload: &str, seed: u64, traced: bool, stamp: &Stamp) {
        let r = self;
        for note in &r.notes {
            eprintln!("gate failed: {note}");
        }
        let stamp_line: Vec<String> = stamp
            .pairs()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("stamp {}", stamp_line.join(" "));
        println!("workload {workload} seed {seed} trace {}", traced as u8);
        let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
        let setup_s = median(&r.setup_times);
        let rss = r.rss_mb.unwrap_or_else(peak_rss_mb);
        let e2e = [setup_s, rss, r.throughput_per_s, r.p50_us];
        println!(
            "metric setup_s = {setup_s} s (lower; median of {} set-ups)",
            r.setup_times.len()
        );
        println!("metric peak_rss_mb = {rss} MB (lower)");
        println!("metric failed_frac = {failed_frac} ratio (lower)");
        for d in &r.details {
            println!("metric {} = {} {} ({})", d.name, d.value, d.unit, d.better);
        }
        for (name, spread, n) in &r.spreads {
            println!("spread {name} = {spread} (interquartile range / median of {n} samples)");
        }
        let mut fields: Vec<String> = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let value = r
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                println!("layer {name} = {value} {unit}");
                fields.push(metric_json(name, value, unit));
            }
        } else {
            for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
                fields.push(metric_json(name, value, unit));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            r.attempted,
            r.failed,
            fields.join(", ")
        );
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity: a value that is not finite is a bug
    // in the run, reported as 0 so the line stays parseable.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` stay in step.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = spec.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn metric_json_is_plain_and_finite() {
        assert_eq!(
            metric_json("p50_us", 12.5, "us"),
            "\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}"
        );
        assert!(metric_json("x", f64::NAN, "s").contains("\"value\": 0,"));
    }
}
