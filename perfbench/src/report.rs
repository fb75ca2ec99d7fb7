//! Metric names and the result line every run ends with.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("insts_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_ratio", "ratio"),
    ("code_size_ratio", "ratio"),
    ("ok_frac", "ratio"),
];

/// The six pipeline passes, in `SchedStats::pass_nanos` order.
pub const PASSES: [&str; 6] = [
    "rename", "unroll", "global1", "rotate", "global2", "final_bb",
];

/// Per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.ms_per_fn", "ms"),
    ("ir.verify_ms_per_fn", "ms"),
    ("ir.canon_hash_ms_per_fn", "ms"),
    ("cfg.analyze_ms_per_fn", "ms"),
    ("pdg.rename_ms_per_fn", "ms"),
    ("pdg.liveness_ms_per_fn", "ms"),
    ("pdg.dep_build_ms_per_fn", "ms"),
    ("pdg.dep_edges", "count"),
    ("core.rename_ms", "ms"),
    ("core.unroll_ms", "ms"),
    ("core.global1_ms", "ms"),
    ("core.rotate_ms", "ms"),
    ("core.global2_ms", "ms"),
    ("core.final_bb_ms", "ms"),
    ("core.rename_scaling", "slope"),
    ("core.unroll_scaling", "slope"),
    ("core.global1_scaling", "slope"),
    ("core.rotate_scaling", "slope"),
    ("core.global2_scaling", "slope"),
    ("core.final_bb_scaling", "slope"),
    ("core.unroll_analyses", "ratio"),
    ("core.rotate_analyses", "ratio"),
    ("core.regions_scheduled", "count"),
    ("core.regions_skipped", "count"),
    ("core.moved_useful", "count"),
    ("core.moved_speculative", "count"),
    ("core.liveness_full", "count"),
    ("core.liveness_incremental", "count"),
    ("core.memo.hit_ratio", "ratio"),
    ("core.memo.splices", "count"),
    ("core.parallel.cpu_over_wall", "ratio"),
    ("sim.exec_ms_per_fn", "ms"),
    ("sim.timing_ms_per_fn", "ms"),
    ("sim.dyn_insts", "count"),
    ("serve.rtt_ms_p50", "ms"),
    ("serve.server_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.protocol_us_per_line", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Counts every checked op (set-up pins included), and reports each
/// failure on stderr the moment it is found: a failure is never silent
/// and never aborts the run.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Ops attempted.
    pub attempted: u64,
    /// Of those, wrong, errored or timed out.
    pub failed: u64,
}

impl Ledger {
    /// Records one op and the verdict of its checks.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.fail(&why);
        }
    }

    /// Marks an already recorded op failed by a check made later.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAIL {why}");
    }

    /// Share of checks that passed.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A finished run: its metrics (by name) and explanatory notes.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value)` pairs; units come from the tables above.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `name`, which must be in `table`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: exactly the metrics of `table`, each with its
    /// unit. Errors name a metric the run did not produce or produced as
    /// a non-finite number.
    pub fn result_line(&self, table: &[(&str, &str)], ledger: &Ledger) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, &(name, unit)) in table.iter().enumerate() {
            let value = self
                .value(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            ledger.failed == 0,
            ledger.attempted,
            ledger.failed
        ))
    }

    /// One aligned line per metric of `table`, for people.
    pub fn table(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in table {
            if let Some(v) = self.value(name) {
                let _ = writeln!(out, "  {name:<32} {v:>14.6} {unit}");
            }
        }
        out
    }
}
