//! The metric schema (every name the benchmark reports, with its unit)
//! and the result line.
//!
//! Every workload reports the same names: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. End-to-end
//! metrics are measured on every workload and are never 0. A per-layer
//! metric of a layer or part the workload does not run reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::valid_metric_name;

/// The three paper models, as they appear in metric names.
pub const MODELS: [&str; 3] = ["rf", "kmeans", "cnn"];

/// The serving tenants of E13, as they appear in metric names.
pub const TENANTS: [&str; 2] = ["tserver", "dev0"];

/// The seven event-loop dispatch phases exported by `netsim`.
pub const PHASES: [&str; 7] = [
    "link_tx_complete",
    "deliver",
    "tcp_timer",
    "app_timer",
    "app_start",
    "set_node_up",
    "fault",
];

/// Per-tenant serving counters reported per layer.
pub const TENANT_COUNTERS: [&str; 9] = [
    "records_offered",
    "records_admitted",
    "records_popped",
    "records_shed",
    "records_sampled_out",
    "windows_ingested",
    "windows_classified",
    "windows_degraded",
    "windows_shed",
];

/// A metric's name and unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
    }
}

/// End-to-end metrics, reported untraced on every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s"),
        def("sim_rate", "vs/s"),
        def("peak_rss_mb", "MB"),
    ]
}

/// Per-layer metrics, reported by the traced run of every workload.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    // live_detection: the traced Table I loop, per model.
    for m in MODELS {
        out.push(def(format!("ids.live.sim_rate.{m}"), "vs/s"));
        out.push(def(format!("netsim.run_for_s.{m}"), "s"));
        out.push(def(format!("netsim.ns_per_event.{m}"), "ns"));
        out.push(def(format!("capture.drain_s.{m}"), "s"));
        out.push(def(format!("features.push_s.{m}"), "s"));
        out.push(def(format!("features.append_s.{m}"), "s"));
        out.push(def(format!("features.scale_s.{m}"), "s"));
        out.push(def(format!("ml.predict_s.{m}"), "s"));
        out.push(def(format!("ml.predict_ns_per_row.{m}"), "ns"));
        out.push(def(format!("ml.predict_work.{m}"), "count"));
        out.push(def(format!("ids.detect_s.{m}"), "s"));
        out.push(def(format!("ids.window_ms.p50.{m}"), "ms"));
        out.push(def(format!("ids.window_ms.p90.{m}"), "ms"));
        out.push(def(format!("ids.window_ms.n.{m}"), "count"));
        out.push(def(format!("ids.remainder_s.{m}"), "s"));
        out.push(def(format!("trace.overhead_s.{m}"), "s"));
        out.push(def(format!("ml.train_s.{m}"), "s"));
    }
    out.push(def("netsim.events", "count"));
    for phase in PHASES {
        out.push(def(format!("netsim.phase.{phase}.events"), "count"));
    }
    for (name, unit) in [
        ("capture.records", "count"),
        ("capture.dropped", "count"),
        ("features.windows", "count"),
        ("features.flows_touched", "count"),
        ("traffic.client_failed_frac", "fraction"),
        ("ids.windows_degraded_frac", "fraction"),
        ("ids.train_s", "s"),
        ("features.extract_matrix_s", "s"),
        ("features.scaler_fit_s", "s"),
        ("ml.holdout_eval_s", "s"),
        // Set-up, live_detection and serving_chaos.
        ("core.training_capture_s", "s"),
        ("core.deploy_s", "s"),
        ("core.infection_lead_s", "s"),
        ("core.epoch_offset_s", "s"),
        // serving_chaos.
        ("ids.serving.train_s", "s"),
        ("ids.serving.sim_rate", "vs/s"),
        ("ids.serving.records_shed_frac", "fraction"),
        ("ids.serving.windows_degraded_frac", "fraction"),
        ("netsim.run_for_s.serving", "s"),
        ("ids.serving.self_s", "s"),
        ("ids.serving.swaps", "count"),
        ("ids.serving.retrains", "count"),
        ("ids.serving.batch_rows", "count"),
    ] {
        out.push(def(name, unit));
    }
    for tenant in TENANTS {
        for counter in TENANT_COUNTERS {
            out.push(def(format!("ids.serving.{tenant}.{counter}"), "count"));
        }
    }
    // sharded_100k.
    for (name, unit) in [
        ("netsim.shard.build_s", "s"),
        ("netsim.shard.wall_s.w1", "s"),
        ("netsim.shard.wall_s.wn", "s"),
        ("netsim.shard.workers", "count"),
        ("netsim.shard.rounds", "count"),
        ("netsim.shard.cross_sent", "count"),
        ("netsim.shard.events", "count"),
        ("netsim.shard.ns_per_event.w1", "ns"),
        ("netsim.shard.ns_per_event.wn", "ns"),
        ("netsim.shard.speedup", "ratio"),
    ] {
        out.push(def(name, unit));
    }
    out
}

/// Metric values of one run, by name.
pub type Values = BTreeMap<String, f64>;

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of `schema` in
/// schema order. Names missing from `values` read 0; a name in
/// `values` that the schema lacks is an error, as is a value that is
/// not finite.
pub fn result_line(
    schema: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(stray) = values
        .keys()
        .find(|k| !schema.iter().any(|d| &d.name == *k))
    {
        return Err(format!("metric {stray} is not in the schema"));
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in schema.iter().enumerate() {
        if !valid_metric_name(&d.name) {
            return Err(format!("illegal metric name {:?}", d.name));
        }
        let value = values.get(&d.name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_names_are_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in end_to_end().iter().chain(per_layer().iter()) {
            assert!(valid_metric_name(&d.name), "{}", d.name);
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
        assert!(per_layer().len() <= 128);
    }

    /// BENCHMARK.json must list exactly the schema's names and units, in
    /// schema order.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').expect("name end")].to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
                    (name, unit[..unit.find('"').expect("unit end")].to_string())
                })
                .collect()
        };
        let expect = |schema: Vec<MetricDef>| -> Vec<(String, String)> {
            schema
                .into_iter()
                .map(|d| (d.name, d.unit.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), expect(end_to_end()));
        assert_eq!(section("per_layer"), expect(per_layer()));

        let start = text.find("\"workloads\"").expect("workloads");
        let body = &text[start..start + text[start..].find(']').expect("section end")];
        let workloads: Vec<&str> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|entry| &entry[..entry.find('"').expect("name end")])
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_fills_missing_metrics_and_rejects_strays() {
        let schema = vec![def("a_s", "s"), def("b", "count")];
        let mut values = Values::new();
        values.insert("a_s".into(), 1.25);
        let line = result_line(&schema, &values, true, 3, 0).expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        values.insert("stray".into(), 1.0);
        assert!(result_line(&schema, &values, true, 1, 0).is_err());
        values.remove("stray");
        values.insert("b".into(), f64::NAN);
        assert!(result_line(&schema, &values, true, 1, 0).is_err());
    }
}
