//! Metric and workload names, the statistics behind them, and the result
//! line. The names here are the ones `BENCHMARK.json` declares; a unit test
//! holds the two together.

pub const WORKLOADS: [&str; 4] = ["nn_select", "standing_many", "aggregate_cv", "fleet_poll"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The nine end-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 9] = [
    def("setup_s", "s", Lower),
    def("frames_per_s", "frames/s", Higher),
    def("round_ms_p50", "ms", Lower),
    def("round_ms_p90", "ms", Lower),
    def("virtual_ms_per_frame", "ms", Lower),
    def("select_recall_min", "fraction", Higher),
    def("cv_reduction_min", "x", Higher),
    def("cv_reduction_median", "x", Higher),
    def("peak_rss_mb", "MiB", Lower),
];

/// Operators whose `StageMetrics` rows are summed over statements into
/// `query.stage.<op>.frames_in` / `.frames_out`.
pub const STAGE_OPERATORS: [&str; 6] =
    ["cascade-filter", "detect", "predicate-eval", "sink", "window-filter", "aggregate-sink"];

/// The per-layer metrics of a traced run, in layer order. A value of 0 on a
/// workload means the layer (or that part of it) is not on its path.
pub const PER_LAYER: [MetricDef; 70] = [
    def("video.scene_step_us", "us", Lower),
    def("video.raster_us", "us", Lower),
    def("nn.kernels.conv_us", "us", Lower),
    def("nn.kernels.conv_gflops", "GFLOP/s", Higher),
    def("nn.kernels.matmul_us", "us", Lower),
    def("nn.workspace.growth_events", "count", Lower),
    def("filters.od.estimate_batch_us", "us/frame", Lower),
    def("filters.ic.estimate_batch_us", "us/frame", Lower),
    def("filters.od_int8.estimate_batch_us", "us/frame", Lower),
    def("filters.calibrated.estimate_batch_us", "us/frame", Lower),
    def("filters.od.sharded2_speedup", "x", Higher),
    def("filters.train_s", "s", Lower),
    def("filters.pass_rate_min", "fraction", Lower),
    def("filters.pass_rate_max", "fraction", Lower),
    def("query.parser.parse_us", "us", Lower),
    def("query.planner.plan_ms", "ms", Lower),
    def("query.plan.prepare_us_per_frame", "us/frame", Lower),
    def("query.plan.detect_us_per_frame", "us/frame", Lower),
    def("query.plan.complete_us_per_frame", "us/frame", Lower),
    def("query.plan.us_per_stmt_frame_7", "us", Lower),
    def("query.plan.us_per_stmt_frame_50", "us", Lower),
    def("query.plan.us_per_stmt_frame_200", "us", Lower),
    def("query.stage.cascade-filter.frames_in", "count", Lower),
    def("query.stage.cascade-filter.frames_out", "count", Lower),
    def("query.stage.detect.frames_in", "count", Lower),
    def("query.stage.detect.frames_out", "count", Lower),
    def("query.stage.predicate-eval.frames_in", "count", Lower),
    def("query.stage.predicate-eval.frames_out", "count", Higher),
    def("query.stage.sink.frames_in", "count", Higher),
    def("query.stage.sink.frames_out", "count", Higher),
    def("query.stage.window-filter.frames_in", "count", Lower),
    def("query.stage.window-filter.frames_out", "count", Lower),
    def("query.stage.aggregate-sink.frames_in", "count", Lower),
    def("query.stage.aggregate-sink.frames_out", "count", Lower),
    def("detect.cache.hit_share", "fraction", Higher),
    def("detect.cache.evictions", "count", Lower),
    def("detect.cache.fetch_ns", "ns", Lower),
    def("detect.cache.resident_mb", "MiB", Lower),
    def("detect.oracle.detect_us", "us", Lower),
    def("detect.ledger.charge_ns", "ns", Lower),
    def("detect.detector_frames", "count", Lower),
    def("detect.virtual.filter_ms", "ms/frame", Lower),
    def("detect.virtual.detector_ms", "ms/frame", Lower),
    def("detect.virtual.calibration_ms", "ms/frame", Lower),
    def("detect.virtual.audit_ms", "ms/frame", Lower),
    def("aggregate.window_ms", "ms", Lower),
    def("aggregate.trials_per_s", "1/s", Higher),
    def("aggregate.correlation_median", "fraction", Higher),
    def("aggregate.windows", "count", Lower),
    def("aggregate.detector_samples", "count", Lower),
    def("aggregate.cv_reduction_window_min", "x", Higher),
    def("exec.scope_us", "us", Lower),
    def("exec.spawns_steady", "count", Lower),
    def("core.runtime.run_ms", "ms", Lower),
    def("core.fleet.setup_ms", "ms", Lower),
    def("core.fleet.ingest_us_per_frame", "us/frame", Lower),
    def("core.fleet.poll_ms", "ms", Lower),
    def("core.fleet.poll_ms_workers1", "ms", Lower),
    def("core.fleet.coalesced_batch_mean", "frames", Higher),
    def("core.fleet.burst.dropped_share", "fraction", Lower),
    def("core.fleet.burst.max_shed_level", "count", Lower),
    def("core.fleet.burst.select_recall_min", "fraction", Higher),
    def("trace.rounds", "count", Higher),
    def("trace.spans", "count", Lower),
    def("trace.round_ms_p50", "ms", Lower),
    def("trace.frames_per_s", "frames/s", Higher),
    def("trace.untraced_frames_per_s", "frames/s", Higher),
    def("trace.overhead_pct", "%", Lower),
    def("trace.dominant_share", "fraction", Higher),
    def("trace.unexplained_share", "fraction", Lower),
];

/// The declared (static) spelling of a per-layer metric name built at run
/// time. Panics on a name that is not declared.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("metric `{name}` is not declared")).name
}

/// The value at quantile `q` in `[0, 1]` by linear interpolation between
/// the two nearest order statistics. Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("the kernel reports VmHWM");
    let kib: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM is a number of kibibytes");
    kib / 1024.0
}

/// One measured value, ready for the result line.
pub struct Value {
    pub def: &'static MetricDef,
    pub value: f64,
}

/// Pairs measured values with their definitions, in definition order.
/// Panics if a name is missing, unknown or given twice: the binary must
/// emit exactly the declared set.
pub fn bind(defs: &'static [MetricDef], measured: &[(&str, f64)]) -> Vec<Value> {
    for (name, _) in measured {
        assert!(defs.iter().any(|d| d.name == *name), "metric `{name}` is not declared");
    }
    defs.iter()
        .map(|def| {
            let mut found = measured.iter().filter(|(name, _)| *name == def.name);
            let value = found.next().unwrap_or_else(|| panic!("metric `{}` was not measured", def.name)).1;
            assert!(found.next().is_none(), "metric `{}` was measured twice", def.name);
            assert!(value.is_finite(), "metric `{}` is not finite: {value}", def.name);
            Value { def, value: value + 0.0 } // `-0.0 + 0.0` is `0.0`
        })
        .collect()
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. Values print with all their digits.
pub fn result_json(attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", v.def.name, v.value, v.def.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.9) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn names_use_the_allowed_alphabet_and_are_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name));
        for name in &names {
            assert!(ok(name), "bad name `{name}`");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16 && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for op in STAGE_OPERATORS {
            assert!(PER_LAYER.iter().any(|d| d.name == format!("query.stage.{op}.frames_in")));
            assert!(PER_LAYER.iter().any(|d| d.name == format!("query.stage.{op}.frames_out")));
        }
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_precision() {
        let values = bind(&END_TO_END[..2], &[("frames_per_s", 1234.56789012345), ("setup_s", 0.5)]);
        let line = result_json(12, 0, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"frames_per_s\": {\"value\": 1234.56789012345, \"unit\": \"frames/s\"}"));
        assert!(result_json(12, 1, &values).contains("\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 1.0);
    }
}
