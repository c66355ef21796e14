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
//! per-epoch timeline; [`report`] fills the [`Report`] `experiments
//! trace-report` prints as text (ASCII waterfall + critical-path
//! attribution) and writes as a self-contained page with two panels
//! (`trace-waterfall`, `trace-critical-path`).
//!
//! The critical-path split answers "which worker gated this epoch, and
//! where did the wait go": per epoch the coordinator's per-worker wait
//! spans (`dist.context` / `dist.train`) are charged to the worker's
//! own shard **realize** time, its **prefetch** of the next epoch
//! (`dist.worker_prefetch` spans, which a `dist.train` request waits
//! behind), its reply **encode** and request **decode** codec time (from
//! `dist.worker_frame` events), the residual **wire** time (framing,
//! kernel buffers, scheduling), and beside them the coordinator's own
//! **merge** (`dist.merge` spans) and **select** (`dist.select`: the
//! policy's decision and its hygiene) time, so neither is mistaken for
//! time on the wire.

use std::collections::BTreeMap;

use crate::render::{self, Bar, Col, Report};
use crate::report::fmt_secs;
use crate::RunLog;

/// Segment colors: realize, prefetch, encode, wire, decode, merge, select.
const SEGMENT_COLORS: [&str; 7] =
    ["#2563eb", "#0891b2", "#059669", "#9ca3af", "#d97706", "#7c3aed", "#dc2626"];
const SEGMENT_NAMES: [&str; 7] =
    ["realize", "prefetch", "encode", "wire", "decode", "merge", "select"];

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
    /// Worker-side prefetch of the next epoch that this epoch's train
    /// wait sat behind: the `dist.worker_prefetch` spans of epoch `t + 1`
    /// (prepared after answering epoch `t`'s context request), capped at
    /// the train wait.
    pub prefetch_secs: f64,
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

    /// Residual wait not explained by realize, prefetch or codec time:
    /// framing, kernel buffers, scheduling — the wire share.
    pub fn wire_secs(&self) -> f64 {
        let explained =
            self.realize_secs + self.prefetch_secs + self.encode_secs + self.decode_secs;
        (self.wait() - explained).max(0.0)
    }
}

/// One epoch of the merged cross-process timeline.
#[derive(Debug, Clone, Default)]
pub struct EpochTrace {
    /// Epoch index.
    pub epoch: usize,
    /// The coordinator's `dist.epoch` span duration.
    pub total_secs: f64,
    /// Per-worker breakdown, indexed like the worker log inputs.
    pub workers: Vec<WorkerEpoch>,
    /// Coordinator-side merge time (`dist.merge` spans).
    pub merge_secs: f64,
    /// Coordinator-side decision time (`dist.select` spans).
    pub select_secs: f64,
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
            events: log.event_count(),
            skipped: log.skipped_lines(),
        })
        .collect();

    // (trace_id, span_id) of every coordinator epoch span → its epoch.
    let mut epoch_of: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    let mut epochs: BTreeMap<usize, EpochTrace> = BTreeMap::new();
    let blank = |epoch| EpochTrace {
        epoch,
        workers: vec![WorkerEpoch::default(); worker_runs.len()],
        ..EpochTrace::default()
    };
    for row in &coord.spans {
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
    // Merge and select spans are children of the epoch span; resolve by
    // parent id (their own `epoch` field is absent — they carry no
    // custom fields), falling back to nothing if unlinked.
    for row in &coord.spans {
        let Some((t, p)) = row.trace_id.zip(row.parent_id) else { continue };
        let Some(entry) = epoch_of.get(&(t, p)).and_then(|epoch| epochs.get_mut(epoch)) else {
            continue;
        };
        match row.name.as_str() {
            "dist.merge" => entry.merge_secs += row.secs,
            "dist.select" => entry.select_secs += row.secs,
            _ => {}
        }
    }

    let mut resolved_spans = 0usize;
    let mut worker_spans = 0usize;
    for (w, (_, log)) in worker_runs.iter().enumerate() {
        // A prefetch of epoch t + 1 runs between requests, under no
        // coordinator span, right after the worker answered epoch t's
        // context request: the train request of epoch t waits behind it.
        let mut prefetch: BTreeMap<usize, f64> = BTreeMap::new();
        for row in &log.spans {
            if row.name == "dist.worker_prefetch" {
                if let Some(t) = row.epoch.and_then(|e| e.checked_sub(1)) {
                    *prefetch.entry(t).or_default() += row.secs;
                }
                continue;
            }
            // Otherwise the shard-request spans only.
            if !matches!(row.name.as_str(), "dist.worker_context" | "dist.worker_train") {
                continue;
            }
            worker_spans += 1;
            // Ids only — never guess the epoch from the span's fields.
            let key = row.trace_id.zip(row.parent_id);
            if let Some(entry) = key.and_then(|key| epochs.get_mut(epoch_of.get(&key)?)) {
                resolved_spans += 1;
                entry.workers[w].realize_secs += row.secs;
            }
        }
        for (t, secs) in prefetch {
            if let Some(entry) = epochs.get_mut(&t) {
                let we = &mut entry.workers[w];
                we.prefetch_secs = secs.min(we.train_wait);
            }
        }
        // Codec time from the per-frame wire events, charged to the
        // epoch the frame was about.
        for frame in &log.frames {
            if let Some(entry) = epochs.get_mut(&frame.epoch) {
                entry.workers[w].decode_secs += frame.decode_secs;
                entry.workers[w].encode_secs += frame.encode_secs;
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

/// The `experiments trace-report` report: per-input parse summaries
/// (always, including zero-skip inputs), the linkage line, the
/// per-epoch waterfall — ASCII in text, the `trace-waterfall` panel
/// (per-worker realize share in blue, the rest of its wait grey) on the
/// page — the `trace-critical-path` panel (the gate's four-way split
/// beside the coordinator's merge and select) and the critical-path
/// attribution table.
pub fn report(runs: &[(String, RunLog)]) -> Result<Report, String> {
    let model = merge_traces(runs)?;
    let mut report = Report::new(format!("FedL distributed trace — {} log(s)", model.inputs.len()));
    report.note(format!(
        "cross-process trace: 1 coordinator + {} worker log(s)",
        model.inputs.len().saturating_sub(1)
    ));
    for input in &model.inputs {
        report.note(format!(
            "  {}: {} events, skipped {} malformed line(s)",
            input.label, input.events, input.skipped
        ));
    }
    report.note(model.linkage_line());
    if model.epochs.is_empty() {
        report.note("no dist.epoch spans in the coordinator log — nothing to trace");
        // A single-process run: its own phase tree is the whole trace
        // (select / run-epoch / evaluate and what ran under them).
        for split in runs[0].1.phase_splits() {
            report.note(format!("  {}", split.line()));
        }
        return Ok(report);
    }

    let mut waterfall =
        "\nper-epoch waterfall (bar = share of the epoch's wall time):\n".to_string();
    let mut waterfall_bars = Vec::new();
    for e in &model.epochs {
        let total = e.total_secs.max(1e-12);
        waterfall.push_str(&format!("epoch {:>3}  total {}\n", e.epoch, fmt_secs(e.total_secs)));
        let mut segments = Vec::new();
        for (w, we) in e.workers.iter().enumerate() {
            waterfall.push_str(&format!(
                "  worker {w} {} wait {} (realize {}, prefetch {}, codec {}, wire {})\n",
                ascii_bar(we.wait() / total),
                fmt_secs(we.wait()),
                fmt_secs(we.realize_secs),
                fmt_secs(we.prefetch_secs),
                fmt_secs(we.encode_secs + we.decode_secs),
                fmt_secs(we.wire_secs()),
            ));
            segments.push((we.realize_secs, SEGMENT_COLORS[0]));
            segments.push((we.prefetch_secs, SEGMENT_COLORS[1]));
            segments.push((we.wire_secs() + we.encode_secs + we.decode_secs, SEGMENT_COLORS[3]));
        }
        waterfall.push_str(&format!(
            "  merge    {} {}\n",
            ascii_bar(e.merge_secs / total),
            fmt_secs(e.merge_secs)
        ));
        segments.push((e.merge_secs, SEGMENT_COLORS[5]));
        waterfall.push_str(&format!(
            "  select   {} {}\n",
            ascii_bar(e.select_secs / total),
            fmt_secs(e.select_secs)
        ));
        segments.push((e.select_secs, SEGMENT_COLORS[6]));
        waterfall_bars.push(bar(format!("epoch {}", e.epoch), segments));
    }
    report.ascii(waterfall);
    report.panel("Per-epoch waterfall", render::bars("trace-waterfall", &waterfall_bars, &[]));

    let mut critical_bars = Vec::new();
    let mut rows = Vec::new();
    for e in &model.epochs {
        let (gate, short, w) = match e.gate() {
            Some(i) => (format!("worker-{i}"), format!("w{i}"), e.workers[i].clone()),
            None => ("—".to_string(), "—".to_string(), WorkerEpoch::default()),
        };
        let split = [
            w.realize_secs,
            w.prefetch_secs,
            w.encode_secs,
            w.wire_secs(),
            w.decode_secs,
            e.merge_secs,
            e.select_secs,
        ];
        critical_bars.push(bar(
            format!("epoch {} ({short})", e.epoch),
            split.into_iter().zip(SEGMENT_COLORS).collect(),
        ));
        let mut row = vec![e.epoch.to_string(), gate, fmt_secs(w.wait())];
        row.extend(split.map(fmt_secs));
        rows.push(row);
    }
    report.ascii("\ncritical-path attribution (gating worker per epoch):\n");
    let legend: Vec<(&str, &str)> = SEGMENT_NAMES.into_iter().zip(SEGMENT_COLORS).collect();
    report.panel(
        "Critical path (gating worker per epoch)",
        render::bars("trace-critical-path", &critical_bars, &legend),
    );
    let mut cols = vec![Col::right("epoch", 6), Col::right("gate", 9), Col::right("wait", 10)];
    cols.extend(SEGMENT_NAMES.map(|name| Col::right(name, 10)));
    report.table("Critical-path attribution", cols, rows);
    Ok(report)
}

/// One bar row annotated with its total.
fn bar(label: String, segments: Vec<(f64, &'static str)>) -> Bar {
    let value = fmt_secs(segments.iter().map(|(v, _)| v).sum());
    Bar { label, segments, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use fedl_json::Value;

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
            drop(epoch_span.child("dist.merge"));
            drop(epoch_span.child("dist.select"));
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
            assert!(e.select_secs > 0.0, "select spans must resolve through the epoch parent");
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
    fn a_prefetch_span_is_not_a_shard_request_span() {
        let mut runs = simulated_logs(2);
        let before = merge_traces(&runs).unwrap();
        let wire_before =
            before.epochs.iter().map(|e| e.workers[0].wire_secs()).collect::<Vec<_>>();
        let wire_before_1 = before.epochs[1].workers[1].wire_secs();
        // Worker 0 prefetches epoch 1 (after answering epoch 0's context
        // request) and epoch 2 (after epoch 1's), the second for longer
        // than epoch 1's train wait.
        let (worker, sink) = Telemetry::in_memory();
        for epoch in [1usize, 2] {
            worker.span("dist.worker_prefetch").field("epoch", Value::from(epoch));
        }
        let mut prefetch = RunLog::parse(&sink.lines().join("\n")).spans;
        prefetch[0].secs = 1e-9;
        prefetch[1].secs = 1e3;
        runs[1].1.spans.extend(prefetch);
        let model = merge_traces(&runs).unwrap();
        assert_eq!(model.linkage_line(), "worker span linkage: 8/8 resolved (100%)");
        let [e0, e1] = &model.epochs[..] else { panic!("{:?}", model.epochs) };
        let (w0, w1) = (&e0.workers[0], &e1.workers[0]);
        assert_eq!(w0.prefetch_secs, 1e-9);
        assert_eq!(w1.prefetch_secs, w1.train_wait, "capped at the train wait it overlapped");
        assert_eq!(e0.workers[1].prefetch_secs + e1.workers[1].prefetch_secs, 0.0);
        // The prefetch leaves the wire share.
        assert!((w0.wire_secs() - (wire_before[0] - 1e-9).max(0.0)).abs() < 1e-15);
        assert_eq!(w1.wire_secs(), 0.0);
        assert_eq!(e1.workers[1].wire_secs(), wire_before_1);
        let text = report(&runs).unwrap().text();
        assert!(text.contains(" prefetch "), "{text}");
    }

    #[test]
    fn ascii_report_prints_every_input_and_the_tables() {
        let runs = simulated_logs(2);
        let text = report(&runs).unwrap().text();
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
        let html = report(&runs).unwrap().html();
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
        let text = report(&runs).unwrap().text();
        assert!(text.contains("nothing to trace"), "{text}");
        assert!(text.contains("worker span linkage: 0/0 resolved (100%)"), "{text}");
        // Malformed lines are counted per input, never fatal.
        let runs = vec![
            ("coord".to_string(), RunLog::parse("{\"kind\":\"span\"}\nnot json\n")),
            ("w".to_string(), RunLog::parse("also not json\n")),
        ];
        let text = report(&runs).unwrap().text();
        assert!(text.contains("coord: 1 events, skipped 1 malformed line(s)"), "{text}");
        assert!(text.contains("w: 0 events, skipped 1 malformed line(s)"), "{text}");
    }
}
