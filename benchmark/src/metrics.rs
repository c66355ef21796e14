//! The metric names the benchmark defines, with unit and direction.
//! `BENCHMARK.json` at the repo root lists exactly these (the crate's
//! smoke test compares the two), and every later change that claims or
//! denies a gain uses these names.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the system sees; measured with tracing off. Each has
/// a bound in `BENCHMARK.json`, so each must stay steady from seed to
/// seed on every workload — which decision latency does not on
/// `train_fedl_m100` (README.md), so it is listed with the layers.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("epochs_per_s", "1/s"),
    lower("epoch_ms_p50", "ms"),
    lower("epoch_ms_p90", "ms"),
    lower("cpu_ms_per_epoch", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Unbounded metrics, reported by the traced run: decision latency and
/// wire volume of the run's untraced unit, then single layers from the
/// spans (`*_ms`: mean self time per epoch) and the probes. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 42] = [
    lower("decision_ms_p50", "ms"),
    lower("decision_ms_p90", "ms"),
    lower("core.build_problem_ms", "ms"),
    lower("core.solve_ms", "ms"),
    lower("core.round_ms", "ms"),
    lower("core.regret_record_ms", "ms"),
    lower("core.observe_ms", "ms"),
    lower("core.baseline_select_ms", "ms"),
    lower("core.assemble_context_ms", "ms"),
    lower("solver.descend_cold_ms", "ms"),
    lower("solver.project_us", "us"),
    lower("sim.realize_ms", "ms"),
    lower("sim.run_epoch_ms", "ms"),
    lower("sim.evaluate_ms", "ms"),
    lower("sim.columns_build_s", "s"),
    lower("ml.local_solve_ms", "ms"),
    higher("linalg.gemm_gflops", "GFLOP/s"),
    lower("data.build_s", "s"),
    lower("net.latency_model_us", "us"),
    lower("serve.handle_select_ms", "ms"),
    lower("serve.handle_feedback_ms", "ms"),
    lower("serve.handle_join_us", "us"),
    lower("serve.decode_ms", "ms"),
    lower("serve.encode_ms", "ms"),
    lower("serve.wire_ms", "ms"),
    lower("serve.loadgen_synth_ms", "ms"),
    lower("store.checkpoint_ms", "ms"),
    lower("dist.worker_context_ms", "ms"),
    lower("dist.worker_train_ms", "ms"),
    lower("dist.worker_codec_ms", "ms"),
    lower("dist.worker_imbalance", "ratio"),
    lower("dist.encode_ms", "ms"),
    lower("dist.wire_wait_ms", "ms"),
    lower("dist.decode_ms", "ms"),
    lower("dist.coordinator_self_ms", "ms"),
    higher("json.parse_mbps", "MB/s"),
    higher("json.render_mbps", "MB/s"),
    higher("store.checksum_mbps", "MB/s"),
    lower("wire_kb_per_epoch", "KB"),
    lower("telemetry.enabled_overhead_pct", "%"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.unattributed_pct", "%"),
];

/// A named measurement, in the order of the tables above.
pub type Measured = Vec<(MetricDef, f64)>;

#[cfg(test)]
mod tests {
    use super::*;
    use fedl_json::Value;

    /// `BENCHMARK.json` must list exactly the tables above, in order,
    /// with the same unit and direction.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        let file = Value::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String, String)> = file
                .get(key)
                .and_then(Value::as_arr)
                .expect("the metric lists are arrays")
                .iter()
                .map(|row| {
                    let field =
                        |k: &str| row.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let defined: Vec<(String, String, String)> = table
                .iter()
                .map(|def| {
                    let better = match def.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (def.name.to_string(), def.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, defined, "{key} of BENCHMARK.json");
        }
    }
}
