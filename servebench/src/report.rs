//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A layer the
/// workload never exercises reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sweep.us_per_scenario", "us"),
    ("sweep.iterations_per_scenario", "count"),
    ("multivec.mul_into_us", "us"),
    ("expv.ns_per_elem", "ns"),
    ("envelope.ms_per_job", "ms"),
    ("envelope.solves_per_fiber", "count"),
    ("sweep.seeded_us_per_scenario", "us"),
    ("cache.results.hit_rate", "frac"),
    ("operator.build_ms", "ms"),
    ("transient.factor_ms", "ms"),
    ("map.build_ms", "ms"),
    ("cache.steady.hit_rate", "frac"),
    ("cache.transient.hit_rate", "frac"),
    ("cache.map.hit_rate", "frac"),
    ("cache.evictions", "count"),
    ("transient.ns_per_lane_step", "ns"),
    ("map.render_us", "us"),
    ("spectral.build_ms", "ms"),
    ("spectral.us_per_scenario", "us"),
    ("spectral.rises_us", "us"),
    ("fft.fft2_us", "us"),
    ("cache.spectral.hit_rate", "frac"),
    ("jobs.parse_us_per_line", "us"),
    ("json.render_us_per_line", "us"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.service_p50_ms", "ms"),
    ("server.queue_depth_max", "count"),
    ("server.refused_backpressure", "count"),
    ("engine.worker_busy_frac", "frac"),
    ("engine.scaling_2v1", "ratio"),
    ("engine.retries", "count"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.paced_samples", "count"),
    ("bench.saturation_jobs", "count"),
    ("bench.workers", "count"),
    ("failed_frac", "frac"),
    ("latency_p99_ms", "ms"),
    ("jobs_per_s.traced", "1/s"),
    ("jobs_per_s.one_worker", "1/s"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Registered name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The unit a registered metric is reported in.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Whether `name` is a well-formed metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            r#"{}"{}": {{"value": {:?}, "unit": "{}"}}"#,
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            unit(m.name).unwrap_or("")
        );
    }
    out.push_str("}}");
    out
}
