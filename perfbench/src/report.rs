//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is listed here with its unit;
//! `BENCHMARK.json` names the same set (a test holds the two together).

use crate::shim::HOOKS;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("inv_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_ratio_mean", "ratio"),
    ("cpu_util_mean", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer that is not on a workload's path reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace.overhead_ratio".into(), "ratio"),
        ("engine.events_per_inv".into(), "count"),
        ("engine.self_us_per_inv".into(), "us"),
    ];
    for hook in HOOKS {
        out.push((format!("platform.{hook}.calls"), "count"));
        out.push((format!("platform.{hook}.us_total"), "us"));
        out.push((format!("platform.{hook}.us_p99"), "us"));
    }
    for (name, unit) in [
        ("scheduler.parked_share", "share"),
        ("profiler.trains", "count"),
        ("profiler.train_us", "us"),
        ("profiler.refits", "count"),
        ("profiler.refit_us", "us"),
        ("profiler.predicts", "count"),
        ("profiler.predict_us", "us"),
        ("ml.forest_fits", "count"),
        ("controlplane.loans_expired", "count"),
        ("controlplane.loans_reharvested", "count"),
        ("controlplane.safeguard_releases", "count"),
        ("pool.puts", "count"),
        ("pool.gets", "count"),
        ("pool.lend_per_get", "ratio"),
        ("controlplane.safeguard_share", "share"),
        ("gateway.frontend_us_per_req", "us"),
        ("live.sched_ms_p50", "ms"),
        ("live.exec_ms_p50", "ms"),
        ("gateway.outside_cluster_ms_p50", "ms"),
        ("http.parse_us", "us"),
        ("wire.decode_invoke_us", "us"),
        ("wire.encode_record_us", "us"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (invocations simulated, or requests sent).
    pub attempted: u64,
    /// Operations failed or unaccounted for.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The metrics a run prints, with units: every end-to-end metric, or
    /// (traced) every per-layer metric. Unmeasured per-layer values read 0.
    pub fn metrics(&self, traced: bool) -> Vec<(String, &'static str, f64)> {
        let registry: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        registry
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(&name).copied().unwrap_or(0.0);
                (name, unit, v)
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.is_correct(traced),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Correct when no check failed, something was attempted, and every
    /// printed value is a finite number.
    pub fn is_correct(&self, traced: bool) -> bool {
        self.problems.is_empty()
            && self.attempted > 0
            && self.metrics(traced).iter().all(|(_, _, v)| v.is_finite())
    }
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs in between. Where the kernel does
/// not support it the mark keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (VmHWM) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
