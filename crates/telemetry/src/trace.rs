//! Cross-process distributed-trace merging and reporting.
//!
//! A distributed run leaves one run log per process: the coordinator's
//! (`--telemetry trace.jsonl`) plus one per spawned worker
//! (`trace.worker-N.jsonl`). Each log alone is a flat event stream;
//! what links them is the trace context every span event carries
//! (`trace_id`/`span_id`/`parent_id`, see [`crate::SpanContext`]) and
//! the protocol's v3 trace fields, which parent every worker-side
//! `dist.worker_context` / `dist.worker_train` span under the
//! coordinator's `dist.epoch` span for the same epoch.
//!
//! [`merge_traces`] resolves those links into one causally-ordered
//! per-epoch timeline; [`render_trace_report`] prints it as ASCII
//! (waterfall + critical-path attribution) and [`render_trace_html`]
//! as a self-contained HTML document with two inline-SVG panels
//! (`trace-waterfall`, `trace-critical-path`) in the `experiments
//! dashboard` idiom. This is what `experiments trace-report` runs.
//!
//! The critical-path split answers "which worker gated this epoch, and
//! where did the wait go": per epoch the coordinator's per-worker wait
//! spans (`dist.context` / `dist.train`) are charged to the worker's
//! own shard **realize** time, its reply **encode** and request
//! **decode** codec time (from `dist.worker_frame` events), the
//! residual **wire** time (framing, kernel buffers, scheduling), and
//! the coordinator's **merge** time (`dist.merge` spans).

use std::collections::BTreeMap;

use fedl_json::Value;

use crate::dashboard::{escape, html_page, svg_open};
use crate::report::{fmt_secs, RunLog};
use crate::SpanContext;

/// Chart plot-area geometry (pixels) — the dashboard's layout, carried
/// privately so the two modules can evolve independently.
const PLOT_W: f64 = 560.0;
const PLOT_H: f64 = 200.0;
const M_LEFT: f64 = 70.0;
const M_TOP: f64 = 10.0;
const M_RIGHT: f64 = 10.0;
const M_BOTTOM: f64 = 30.0;
/// Epoch rows drawn per SVG panel; later epochs are dropped with a
/// visible note so the file stays bounded for long campaigns.
const MAX_EPOCH_ROWS: usize = 24;
/// Segment colors: realize, encode, wire, decode, merge.
const SEGMENT_COLORS: [&str; 5] = ["#2563eb", "#059669", "#9ca3af", "#d97706", "#7c3aed"];
const SEGMENT_NAMES: [&str; 5] = ["realize", "encode", "wire", "decode", "merge"];

/// One input's parse summary, reported for every input unconditionally
/// so multi-log output stays line-for-line comparable across runs.
#[derive(Debug, Clone)]
pub struct InputSummary {
    /// Display label (the file stem).
    pub label: String,
    /// Parsed events.
    pub events: usize,
    /// Malformed lines skipped by the lenient JSONL parser.
    pub skipped: usize,
}

/// A worker's merged view of one epoch.
#[derive(Debug, Clone, Default)]
pub struct WorkerEpoch {
    /// Coordinator-side wait for this worker's context reply (secs).
    pub context_wait: f64,
    /// Coordinator-side wait for this worker's train reply (secs).
    pub train_wait: f64,
    /// Worker-side shard realize time (resolved `dist.worker_*` spans).
    pub realize_secs: f64,
    /// Worker-side reply encode time (from `dist.worker_frame`).
    pub encode_secs: f64,
    /// Worker-side request decode time (from `dist.worker_frame`).
    pub decode_secs: f64,
}

impl WorkerEpoch {
    /// Total coordinator-side wait charged to this worker.
    pub fn wait(&self) -> f64 {
        self.context_wait + self.train_wait
    }

    /// Residual wait not explained by realize or codec time: framing,
    /// kernel buffers, scheduling — the wire share.
    pub fn wire_secs(&self) -> f64 {
        (self.wait() - self.realize_secs - self.encode_secs - self.decode_secs).max(0.0)
    }
}

/// One epoch of the merged cross-process timeline.
#[derive(Debug, Clone)]
pub struct EpochTrace {
    /// Epoch index.
    pub epoch: usize,
    /// The coordinator's `dist.epoch` span duration.
    pub total_secs: f64,
    /// Per-worker breakdown, indexed like the worker log inputs.
    pub workers: Vec<WorkerEpoch>,
    /// Coordinator-side merge time (`dist.merge` spans).
    pub merge_secs: f64,
}

impl EpochTrace {
    /// The worker the epoch waited on longest, if any wait was seen.
    pub fn gate(&self) -> Option<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.wait() > 0.0)
            .max_by(|a, b| a.1.wait().total_cmp(&b.1.wait()))
            .map(|(i, _)| i)
    }
}

/// The merged model [`merge_traces`] produces.
#[derive(Debug, Clone)]
pub struct TraceModel {
    /// Per-input parse summaries: coordinator first, then workers.
    pub inputs: Vec<InputSummary>,
    /// Epochs in order.
    pub epochs: Vec<EpochTrace>,
    /// Worker shard spans whose `(trace_id, parent_id)` resolved to a
    /// coordinator `dist.epoch` span.
    pub resolved_spans: usize,
    /// All worker shard spans (`dist.worker_context` / `_train`).
    pub worker_spans: usize,
}

impl TraceModel {
    /// The linkage line `scripts/ci.sh` asserts on, e.g.
    /// `worker span linkage: 24/24 resolved (100%)`.
    pub fn linkage_line(&self) -> String {
        let pct = if self.worker_spans == 0 {
            100.0
        } else {
            100.0 * self.resolved_spans as f64 / self.worker_spans as f64
        };
        format!(
            "worker span linkage: {}/{} resolved ({:.0}%)",
            self.resolved_spans, self.worker_spans, pct
        )
    }
}

/// A span event lifted out of a run log.
struct SpanRow {
    name: String,
    trace_id: Option<u64>,
    parent_id: Option<u64>,
    span_id: Option<u64>,
    secs: f64,
    epoch: Option<usize>,
    worker: Option<usize>,
}

fn hex_id(event: &Value, key: &str) -> Option<u64> {
    event.get(key).and_then(Value::as_str).and_then(SpanContext::parse_id)
}

fn span_rows(log: &RunLog) -> Vec<SpanRow> {
    log.events()
        .iter()
        .filter(|e| e.get("kind").and_then(Value::as_str) == Some("span"))
        .filter_map(|e| {
            Some(SpanRow {
                name: e.get("name")?.as_str()?.to_string(),
                trace_id: hex_id(e, "trace_id"),
                parent_id: hex_id(e, "parent_id"),
                span_id: hex_id(e, "span_id"),
                secs: e.get("secs").and_then(Value::as_f64).unwrap_or(0.0),
                epoch: e.get("epoch").and_then(Value::as_usize),
                worker: e.get("worker").and_then(Value::as_usize),
            })
        })
        .collect()
}

/// Merges one coordinator log plus any number of worker logs into the
/// per-epoch cross-process timeline. The first input is the
/// coordinator; worker inputs follow in shard order (worker `N` of a
/// spawned run writes `<base>.worker-N.jsonl`).
pub fn merge_traces(runs: &[(String, RunLog)]) -> Result<TraceModel, String> {
    let Some(((_, coord), worker_runs)) = runs.split_first() else {
        return Err("trace-report needs at least a coordinator log".to_string());
    };
    let inputs = runs
        .iter()
        .map(|(label, log)| InputSummary {
            label: label.clone(),
            events: log.events().len(),
            skipped: log.skipped_lines(),
        })
        .collect();

    let coord_spans = span_rows(coord);
    // (trace_id, span_id) of every coordinator epoch span → its epoch.
    let mut epoch_of: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut epochs: BTreeMap<usize, EpochTrace> = BTreeMap::new();
    let blank = |epoch: usize| EpochTrace {
        epoch,
        total_secs: 0.0,
        workers: vec![WorkerEpoch::default(); worker_runs.len()],
        merge_secs: 0.0,
    };
    for row in &coord_spans {
        let Some(epoch) = row.epoch else { continue };
        match row.name.as_str() {
            "dist.epoch" => {
                if let (Some(t), Some(s)) = (row.trace_id, row.span_id) {
                    epoch_of.insert((t, s), epoch);
                }
                epochs.entry(epoch).or_insert_with(|| blank(epoch)).total_secs += row.secs;
            }
            "dist.context" | "dist.train" => {
                let entry = epochs.entry(epoch).or_insert_with(|| blank(epoch));
                if let Some(w) = row.worker.filter(|&w| w < worker_runs.len()) {
                    if row.name == "dist.context" {
                        entry.workers[w].context_wait += row.secs;
                    } else {
                        entry.workers[w].train_wait += row.secs;
                    }
                }
            }
            _ => {}
        }
    }
    // Merge spans are children of the epoch span; resolve by parent id
    // (their own `epoch` field is absent — they carry no custom
    // fields), falling back to nothing if unlinked.
    for row in &coord_spans {
        if row.name != "dist.merge" {
            continue;
        }
        let Some((t, p)) = row.trace_id.zip(row.parent_id) else { continue };
        if let Some(&epoch) = epoch_of.get(&(t, p)) {
            if let Some(entry) = epochs.get_mut(&epoch) {
                entry.merge_secs += row.secs;
            }
        }
    }

    let mut resolved_spans = 0usize;
    let mut worker_spans = 0usize;
    for (w, (_, log)) in worker_runs.iter().enumerate() {
        for row in span_rows(log) {
            if !row.name.starts_with("dist.worker_") {
                continue;
            }
            worker_spans += 1;
            let resolved = row
                .trace_id
                .zip(row.parent_id)
                .and_then(|key| epoch_of.get(&key))
                .copied()
                .or(row.epoch.filter(|_| false)); // ids only — never guess from fields
            let Some(epoch) = resolved else { continue };
            resolved_spans += 1;
            if let Some(entry) = epochs.get_mut(&epoch) {
                entry.workers[w].realize_secs += row.secs;
            }
        }
        // Codec time from the per-frame wire events, charged to the
        // epoch the frame was about.
        for event in log.events() {
            if event.get("kind").and_then(Value::as_str) != Some("dist.worker_frame") {
                continue;
            }
            let Some(epoch) = event.get("epoch").and_then(Value::as_usize) else { continue };
            let ns =
                |key: &str| event.get(key).and_then(Value::as_f64).unwrap_or(0.0).max(0.0) / 1e9;
            if let Some(entry) = epochs.get_mut(&epoch) {
                entry.workers[w].decode_secs += ns("decode_ns");
                entry.workers[w].encode_secs += ns("encode_ns");
            }
        }
    }
    Ok(TraceModel { inputs, epochs: epochs.into_values().collect(), resolved_spans, worker_spans })
}

/// A 24-cell ASCII bar: `share` of it filled with `#`.
fn ascii_bar(share: f64) -> String {
    let cells = 24usize;
    let filled = ((share.clamp(0.0, 1.0)) * cells as f64).round() as usize;
    format!("[{}{}]", "#".repeat(filled), " ".repeat(cells - filled))
}

/// Renders the ASCII trace report: per-input parse summaries (always,
/// including zero-skip inputs), the linkage line, the per-epoch
/// waterfall, and the critical-path attribution table.
pub fn render_trace_report(runs: &[(String, RunLog)]) -> Result<String, String> {
    let model = merge_traces(runs)?;
    let mut out = format!(
        "cross-process trace: 1 coordinator + {} worker log(s)\n",
        model.inputs.len().saturating_sub(1)
    );
    for input in &model.inputs {
        out.push_str(&format!(
            "  {}: {} events, skipped {} malformed line(s)\n",
            input.label, input.events, input.skipped
        ));
    }
    out.push_str(&model.linkage_line());
    out.push('\n');
    if model.epochs.is_empty() {
        out.push_str("no dist.epoch spans in the coordinator log — nothing to trace\n");
        return Ok(out);
    }
    out.push_str("\nper-epoch waterfall (bar = share of the epoch's wall time):\n");
    for e in &model.epochs {
        let total = e.total_secs.max(1e-12);
        out.push_str(&format!("epoch {:>3}  total {}\n", e.epoch, fmt_secs(e.total_secs)));
        for (w, we) in e.workers.iter().enumerate() {
            out.push_str(&format!(
                "  worker {w} {} wait {} (realize {}, codec {}, wire {})\n",
                ascii_bar(we.wait() / total),
                fmt_secs(we.wait()),
                fmt_secs(we.realize_secs),
                fmt_secs(we.encode_secs + we.decode_secs),
                fmt_secs(we.wire_secs()),
            ));
        }
        out.push_str(&format!(
            "  merge    {} {}\n",
            ascii_bar(e.merge_secs / total),
            fmt_secs(e.merge_secs)
        ));
    }
    out.push_str(&format!(
        "\ncritical-path attribution (gating worker per epoch):\n\
         {:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "epoch", "gate", "wait", "realize", "encode", "wire", "decode", "merge"
    ));
    for e in &model.epochs {
        let (gate, w) = match e.gate() {
            Some(i) => (format!("worker-{i}"), e.workers[i].clone()),
            None => ("—".to_string(), WorkerEpoch::default()),
        };
        out.push_str(&format!(
            "{:>6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            e.epoch,
            gate,
            fmt_secs(w.wait()),
            fmt_secs(w.realize_secs),
            fmt_secs(w.encode_secs),
            fmt_secs(w.wire_secs()),
            fmt_secs(w.decode_secs),
            fmt_secs(e.merge_secs),
        ));
    }
    Ok(out)
}

fn empty_panel(id: &str, note: &str) -> String {
    format!(
        "{}<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" class=\"empty\">{note}</text></svg>",
        svg_open(id, M_LEFT + PLOT_W + M_RIGHT, M_TOP + PLOT_H + M_BOTTOM),
        M_LEFT + PLOT_W / 2.0,
        M_TOP + PLOT_H / 2.0
    )
}

/// The five-way split of one epoch's critical path, in
/// [`SEGMENT_NAMES`] order.
fn gate_segments(e: &EpochTrace) -> [f64; 5] {
    let w = match e.gate() {
        Some(i) => e.workers[i].clone(),
        None => WorkerEpoch::default(),
    };
    [w.realize_secs, w.encode_secs, w.wire_secs(), w.decode_secs, e.merge_secs]
}

/// Stacked horizontal bars, one row per epoch: the `trace-waterfall`
/// panel stacks every worker's wait (worker share in blue, residual
/// grey); the `trace-critical-path` panel stacks the gate's five-way
/// split. Both share this renderer, differing only in the segments.
fn stacked_bars(id: &str, rows: &[(String, Vec<(f64, &str)>)]) -> String {
    if rows.is_empty() || !rows.iter().any(|(_, segs)| segs.iter().any(|(v, _)| *v > 0.0)) {
        return empty_panel(id, "no trace data");
    }
    let shown = &rows[..rows.len().min(MAX_EPOCH_ROWS)];
    let max_total: f64 = shown
        .iter()
        .map(|(_, segs)| segs.iter().map(|(v, _)| v).sum::<f64>())
        .fold(0.0, f64::max)
        .max(1e-12);
    let bar_h = (PLOT_H / shown.len() as f64).min(22.0);
    let mut out = svg_open(id, M_LEFT + PLOT_W + M_RIGHT, M_TOP + PLOT_H + M_BOTTOM);
    for (i, (label, segs)) in shown.iter().enumerate() {
        let y = M_TOP + i as f64 * bar_h;
        let mut x = M_LEFT;
        for (value, color) in segs {
            if *value <= 0.0 {
                continue;
            }
            let w = value / max_total * PLOT_W;
            out.push_str(&format!(
                r#"<rect x="{x:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{color}"/>"#,
                y + 2.0,
                w.max(0.5),
                bar_h - 4.0,
            ));
            x += w.max(0.5);
        }
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
            M_LEFT - 4.0,
            y + bar_h / 2.0 + 4.0,
            escape(label)
        ));
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" class="tick">{}</text>"#,
            x + 6.0,
            y + bar_h / 2.0 + 4.0,
            fmt_secs(segs.iter().map(|(v, _)| v).sum()),
        ));
    }
    if rows.len() > shown.len() {
        out.push_str(&format!(
            r#"<text x="{M_LEFT}" y="{:.1}" class="tick">… {} more epoch(s) not drawn</text>"#,
            M_TOP + PLOT_H + 16.0,
            rows.len() - shown.len()
        ));
    }
    out.push_str("</svg>");
    out
}

/// Renders the self-contained HTML trace report: the same parse
/// summaries and linkage line as the ASCII report, the
/// `trace-waterfall` panel (per-epoch per-worker wait, realize share
/// in blue), the `trace-critical-path` panel (the gate's five-way
/// split with a legend), and the attribution table. No external
/// assets, same contract as the dashboard.
pub fn render_trace_html(runs: &[(String, RunLog)]) -> Result<String, String> {
    let model = merge_traces(runs)?;
    let mut body = String::new();
    body.push_str("<ul>");
    for input in &model.inputs {
        body.push_str(&format!(
            "<li>{}: {} events, skipped {} malformed line(s)</li>",
            escape(&input.label),
            input.events,
            input.skipped
        ));
    }
    body.push_str("</ul>");
    body.push_str(&format!("<p>{}</p>", model.linkage_line()));

    let waterfall_rows: Vec<(String, Vec<(f64, &str)>)> = model
        .epochs
        .iter()
        .map(|e| {
            let mut segs: Vec<(f64, &str)> = Vec::new();
            for we in &e.workers {
                segs.push((we.realize_secs, SEGMENT_COLORS[0]));
                segs.push((we.wire_secs() + we.encode_secs + we.decode_secs, SEGMENT_COLORS[2]));
            }
            segs.push((e.merge_secs, SEGMENT_COLORS[4]));
            (format!("epoch {}", e.epoch), segs)
        })
        .collect();
    let critical_rows: Vec<(String, Vec<(f64, &str)>)> = model
        .epochs
        .iter()
        .map(|e| {
            let segs =
                gate_segments(e).into_iter().zip(SEGMENT_COLORS).collect::<Vec<(f64, &str)>>();
            let gate = e.gate().map_or("—".to_string(), |i| format!("w{i}"));
            (format!("epoch {} ({gate})", e.epoch), segs)
        })
        .collect();
    let legend: String = SEGMENT_NAMES
        .iter()
        .zip(SEGMENT_COLORS)
        .map(|(name, color)| {
            format!("<span class=\"swatch\" style=\"background:{color}\"></span>{name}&nbsp;&nbsp;")
        })
        .collect();
    body.push_str(&format!(
        "<section><h2>Per-epoch waterfall</h2>{}</section>",
        stacked_bars("trace-waterfall", &waterfall_rows)
    ));
    body.push_str(&format!(
        "<section><h2>Critical path (gating worker per epoch)</h2><p>{legend}</p>{}</section>",
        stacked_bars("trace-critical-path", &critical_rows)
    ));
    body.push_str(
        "<section><h2>Critical-path attribution</h2><table><thead><tr><th>epoch</th>\
         <th>gate</th><th>wait</th><th>realize</th><th>encode</th><th>wire</th>\
         <th>decode</th><th>merge</th></tr></thead><tbody>",
    );
    for e in &model.epochs {
        let (gate, w) = match e.gate() {
            Some(i) => (format!("worker-{i}"), e.workers[i].clone()),
            None => ("—".to_string(), WorkerEpoch::default()),
        };
        body.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td></tr>",
            e.epoch,
            gate,
            fmt_secs(w.wait()),
            fmt_secs(w.realize_secs),
            fmt_secs(w.encode_secs),
            fmt_secs(w.wire_secs()),
            fmt_secs(w.decode_secs),
            fmt_secs(e.merge_secs),
        ));
    }
    body.push_str("</tbody></table></section>");
    let heading = format!("FedL distributed trace — {} log(s)", model.inputs.len());
    Ok(html_page("FedL distributed trace", &heading, &body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    /// Simulates a 2-worker distributed epoch with the real span API:
    /// the coordinator opens `dist.epoch` + per-worker wait spans and
    /// ships its context; each worker adopts it via `span_in`.
    fn simulated_logs(epochs: usize) -> Vec<(String, RunLog)> {
        let (coord, coord_sink) = Telemetry::in_memory();
        let worker_tels: Vec<_> = (0..2).map(|_| Telemetry::in_memory()).collect();
        for epoch in 0..epochs {
            let mut epoch_span = coord.span("dist.epoch");
            epoch_span.field("epoch", Value::from(epoch));
            let ctx = epoch_span.ctx();
            for (w, (wtel, _)) in worker_tels.iter().enumerate() {
                for (phase, wname) in
                    [("dist.context", "dist.worker_context"), ("dist.train", "dist.worker_train")]
                {
                    let mut wait = coord.span_in(phase, ctx);
                    wait.field("worker", Value::from(w));
                    wait.field("epoch", Value::from(epoch));
                    let mut shard = wtel.span_in(wname, ctx);
                    shard.field("epoch", Value::from(epoch));
                    drop(shard);
                    drop(wait);
                }
                wtel.emit(
                    "dist.worker_frame",
                    vec![
                        ("type", Value::from("shard_context")),
                        ("epoch", Value::from(epoch)),
                        ("decode_ns", Value::Int(10_000)),
                        ("encode_ns", Value::Int(20_000)),
                    ],
                );
            }
            let _merge = epoch_span.child("dist.merge");
        }
        let mut runs = vec![("coord".to_string(), RunLog::parse(&coord_sink.lines().join("\n")))];
        for (i, (_, sink)) in worker_tels.iter().enumerate() {
            runs.push((format!("coord.worker-{i}"), RunLog::parse(&sink.lines().join("\n"))));
        }
        runs
    }

    #[test]
    fn merged_model_resolves_every_worker_span() {
        let runs = simulated_logs(3);
        let model = merge_traces(&runs).unwrap();
        assert_eq!(model.epochs.len(), 3);
        // 2 workers × 2 shard spans × 3 epochs, all linked by id.
        assert_eq!(model.worker_spans, 12);
        assert_eq!(model.resolved_spans, 12);
        assert_eq!(model.linkage_line(), "worker span linkage: 12/12 resolved (100%)");
        for e in &model.epochs {
            assert_eq!(e.workers.len(), 2);
            for w in &e.workers {
                assert!(w.realize_secs > 0.0, "worker spans must contribute realize time");
                assert!(w.wait() >= 0.0);
                assert!((w.decode_secs - 1e-5).abs() < 1e-12, "one frame event per worker-epoch");
                assert!((w.encode_secs - 2e-5).abs() < 1e-12);
            }
            assert!(e.merge_secs > 0.0, "merge spans must resolve through the epoch parent");
            assert!(e.gate().is_some());
        }
    }

    #[test]
    fn unlinked_worker_spans_lower_the_resolution_rate() {
        let mut runs = simulated_logs(2);
        // A v2 peer's log: spans exist but carry a foreign trace — the
        // ids never resolve against this coordinator.
        let (orphan, sink) = Telemetry::in_memory();
        {
            let mut s = orphan.span("dist.worker_context");
            s.field("epoch", Value::from(0usize));
        }
        runs.push(("v2-worker".to_string(), RunLog::parse(&sink.lines().join("\n"))));
        let model = merge_traces(&runs).unwrap();
        assert_eq!(model.worker_spans, 9);
        assert_eq!(model.resolved_spans, 8);
        assert!(model.linkage_line().contains("8/9"), "{}", model.linkage_line());
        assert!(!model.linkage_line().contains("(100%)"));
    }

    #[test]
    fn ascii_report_prints_every_input_and_the_tables() {
        let runs = simulated_logs(2);
        let text = render_trace_report(&runs).unwrap();
        for label in ["coord:", "coord.worker-0:", "coord.worker-1:"] {
            assert!(text.contains(label), "missing input summary {label}: {text}");
        }
        // Skip counts appear even when zero — inputs stay comparable.
        assert_eq!(text.matches("skipped 0 malformed line(s)").count(), 3, "{text}");
        assert!(text.contains("worker span linkage: 8/8 resolved (100%)"), "{text}");
        assert!(text.contains("per-epoch waterfall"), "{text}");
        assert!(text.contains("critical-path attribution"), "{text}");
        assert!(text.contains("epoch   0"), "{text}");
        assert!(text.contains("worker-"), "gate column names a worker: {text}");
    }

    #[test]
    fn html_report_is_self_contained_with_both_panels() {
        let runs = simulated_logs(2);
        let html = render_trace_html(&runs).unwrap();
        for id in ["trace-waterfall", "trace-critical-path"] {
            assert!(html.contains(&format!("<svg id=\"{id}\"")), "missing panel {id}");
        }
        assert!(html.contains("Critical-path attribution"));
        for needle in ["<script", "<link", "src="] {
            assert!(!html.contains(needle), "external reference via {needle}");
        }
        assert_eq!(
            html.matches("http://").count(),
            2,
            "only the two SVG xmlns declarations: {html}"
        );
    }

    #[test]
    fn degenerate_inputs_are_reported_not_panics() {
        assert!(merge_traces(&[]).is_err());
        // A coordinator log with no spans at all.
        let runs = vec![("empty".to_string(), RunLog::parse(""))];
        let text = render_trace_report(&runs).unwrap();
        assert!(text.contains("nothing to trace"), "{text}");
        assert!(text.contains("worker span linkage: 0/0 resolved (100%)"), "{text}");
        // Malformed lines are counted per input, never fatal.
        let runs = vec![
            ("coord".to_string(), RunLog::parse("{\"kind\":\"span\"}\nnot json\n")),
            ("w".to_string(), RunLog::parse("also not json\n")),
        ];
        let text = render_trace_report(&runs).unwrap();
        assert!(text.contains("coord: 1 events, skipped 1 malformed line(s)"), "{text}");
        assert!(text.contains("w: 0 events, skipped 1 malformed line(s)"), "{text}");
    }
}
