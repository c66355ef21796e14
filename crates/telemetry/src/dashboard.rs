//! The run dashboard: one run's attribution, or several runs overlaid.
//!
//! [`single`] turns a parsed [`RunLog`] into a [`Report`] whose text is
//! the per-client attribution table `experiments dashboard` prints
//! ([`RunLog::client_usage`]) and whose HTML page adds four panels
//! (each with a stable `id` that `scripts/ci.sh` asserts on):
//!
//! * `regret-curve` — cumulative regret vs epoch (`epoch.regret`);
//! * `budget-burndown` — remaining budget vs epoch
//!   (`epoch.budget_remaining`);
//! * `selection-heatmap` — client × epoch selection frequency
//!   (`select.cohort`);
//! * `phase-breakdown` — total seconds per phase (`span` events).
//!
//! [`overlay`] is the **multi-run** mode: given two or more run logs
//! (one per policy, identical seeds — the paper's §6 comparison
//! protocol), it aligns the runs by epoch and overlays their regret
//! curves (`regret-overlay`) and budget burn-down (`budget-overlay`)
//! in one panel each, with a legend, above a per-policy summary table.
//! Logs with mismatched `run_start.schema_version` stamps are refused.
//!
//! Both only walk the log and fill the model; [`crate::render`] lays
//! the text and the page out.

use crate::render::{self, fmt_tick, Bar, Col, Report, Series, SERIES_COLORS};
use crate::report::{fmt_secs, ClientUsage};
use crate::runlog::{EpochRow, RunLog};

/// Heatmap caps: more rows/columns than this are bucketed so the SVG
/// stays small no matter how long the campaign ran.
const HEAT_MAX_ROWS: usize = 64;
const HEAT_MAX_COLS: usize = 120;

/// The two per-epoch curves: (title, single-run panel id and color,
/// overlay panel id, the plotted column).
#[allow(clippy::type_complexity)]
const CURVES: [(&str, &str, &str, &str, fn(&EpochRow) -> f64); 2] = [
    ("Cumulative regret", "regret-curve", "#dc2626", "regret-overlay", |e| e.regret),
    ("Budget burn-down", "budget-burndown", "#7c3aed", "budget-overlay", |e| e.budget_remaining),
];

/// One run's `(epoch, y)` curve from its `epoch` rows.
fn epoch_series(log: &RunLog, y: fn(&EpochRow) -> f64, label: &str, color: &'static str) -> Series {
    let points = log.epochs.iter().map(|e| (e.epoch as f64, y(e), 0.0)).collect();
    Series { label: label.to_string(), color, points, markers: false }
}

/// Rent paid across `usage`; `0.0`, not `f64`'s empty-sum `-0.0`, for a
/// run that rented nobody.
fn total_paid(usage: &[ClientUsage]) -> f64 {
    usage.iter().fold(0.0, |paid, u| paid + u.payment)
}

/// Refuses to overlay logs whose `run_start.schema_version` stamps
/// differ (a log without the stamp counts as legacy version 0 — two
/// legacy logs still overlay).
fn check_overlay_schemas(runs: &[(String, RunLog)]) -> Result<(), String> {
    let versions: Vec<u64> =
        runs.iter().map(|(_, log)| log.schema_version().unwrap_or(0)).collect();
    if versions.windows(2).all(|w| w[0] == w[1]) {
        return Ok(());
    }
    let detail: Vec<String> = runs
        .iter()
        .zip(&versions)
        .map(|((name, _), v)| match v {
            0 => format!("{name}: legacy (no stamp)"),
            v => format!("{name}: v{v}"),
        })
        .collect();
    Err(format!(
        "refusing to overlay run logs with mismatched schema versions — {}",
        detail.join(", ")
    ))
}

/// Display label per run: the recorded policy name when available
/// (the run's identity in the paper's comparisons), else the given
/// fallback (the file stem); duplicates are numbered.
fn overlay_labels(runs: &[(String, RunLog)]) -> Vec<String> {
    let mut labels: Vec<String> = runs
        .iter()
        .map(|(fallback, log)| log.policy_name().map_or_else(|| fallback.clone(), str::to_string))
        .collect();
    for i in 0..labels.len() {
        let dupes = labels[..i].iter().filter(|l| **l == labels[i]).count();
        if dupes > 0 {
            labels[i] = format!("{} #{}", labels[i], dupes + 1);
        }
    }
    labels
}

/// The multi-run overlay: a warning per damaged log, the runs' regret
/// curves in one panel (`regret-overlay`) and their budget burn-down in
/// another (`budget-overlay`), each with a per-policy legend, and the
/// per-policy summary table. Errs when the logs' schema versions differ.
pub fn overlay(runs: &[(String, RunLog)]) -> Result<Report, String> {
    check_overlay_schemas(runs)?;
    let labels = overlay_labels(runs);
    let logs = || runs.iter().map(|(_, log)| log).zip(&labels);
    let mut report = Report::new(format!("FedL run overlay — {} runs", runs.len()));
    for (log, label) in logs().filter(|(log, _)| log.skipped_lines() > 0) {
        report.warn(format!("{label}: skipped {} malformed line(s)", log.skipped_lines()));
    }
    for (title, _, _, id, y) in CURVES {
        let series: Vec<Series> = logs()
            .zip(SERIES_COLORS.into_iter().cycle())
            .map(|((log, label), color)| epoch_series(log, y, label, color))
            .collect();
        report.panel(format!("{title} (overlay)"), render::lines(id, &series, fmt_tick, fmt_tick));
    }
    let dash = || "—".to_string();
    let rows = logs()
        .map(|(log, label)| {
            let final_loss = log.epochs.iter().filter_map(|e| e.global_loss).next_back();
            let usage = log.client_usage();
            let selections: usize = usage.iter().map(|u| u.selections).sum();
            let failures: usize = usage.iter().map(|u| u.failures).sum();
            vec![
                label.clone(),
                log.epochs.len().to_string(),
                final_loss.map_or_else(dash, |l| format!("{l:.4}")),
                format!("{:.2}", total_paid(&usage)),
                selections.to_string(),
                failures.to_string(),
                if selections > 0 {
                    format!("{:.1}%", 100.0 * failures as f64 / selections as f64)
                } else {
                    dash()
                },
            ]
        })
        .collect();
    report.table(
        "Per-policy summary",
        vec![
            Col::left("policy", 14),
            Col::right("epochs", 7),
            Col::right("final loss", 12),
            Col::right("total paid", 12),
            Col::right("selected", 10),
            Col::right("dropouts", 9),
            Col::right("drop rate", 10),
        ],
        rows,
    );
    Ok(report)
}

/// The client × epoch selection-frequency heatmap. Rows are clients in
/// attribution (payment-descending) order, columns are epoch buckets;
/// cell intensity is the fraction of the bucket's epochs in which the
/// client was selected.
fn selection_heatmap(log: &RunLog, usage: &[ClientUsage]) -> String {
    let max_epoch = log.selects.iter().map(|s| s.epoch).max().unwrap_or(0);
    let n_cols = (max_epoch + 1).min(HEAT_MAX_COLS);
    let epochs_per_col = (max_epoch + 1).div_ceil(n_cols);
    let rows: Vec<usize> = usage.iter().map(|u| u.client).take(HEAT_MAX_ROWS).collect();
    // cells[row][col] = selections in the bucket / the bucket's epochs.
    let mut cells = vec![vec![0.0; n_cols]; rows.len()];
    for select in &log.selects {
        let col = (select.epoch / epochs_per_col).min(n_cols - 1);
        for row in select.cohort.iter().filter_map(|k| rows.iter().position(|r| r == k)) {
            cells[row][col] += 1.0 / epochs_per_col as f64;
        }
    }
    // Row labels: first and last client id shown (rows follow the
    // attribution table order).
    let first = rows.first().map_or(String::new(), |k| format!("k={k}"));
    let truncated = if usage.len() > rows.len() { "…" } else { "" };
    let last = rows.last().map_or(String::new(), |k| format!("k={k}{truncated}"));
    render::heatmap(
        "selection-heatmap",
        &cells,
        [&first, &last],
        ["epoch 0", &max_epoch.to_string()],
    )
}

/// One run's dashboard: the four panels above the per-client
/// attribution table (clients by rent paid, descending).
pub fn single(log: &RunLog) -> Report {
    let mut report = Report::new("FedL run dashboard");
    // Always present, even at zero, so multi-log output lines up with
    // `experiments trace-report`'s per-input summaries.
    let skipped = format!("skipped {} malformed line(s)", log.skipped_lines());
    if log.skipped_lines() > 0 {
        report.warn(skipped);
    } else {
        report.note(skipped);
    }
    for (title, id, color, _, y) in CURVES {
        let series = [epoch_series(log, y, "", color)];
        report.panel(title, render::lines(id, &series, fmt_tick, fmt_tick));
    }
    let usage = log.client_usage();
    report.panel("Client-selection frequency", selection_heatmap(log, &usage));
    // Total seconds per phase, descending as in `telemetry-report`.
    let phases: Vec<Bar> = log
        .phase_stats()
        .iter()
        .map(|s| Bar {
            label: s.name.clone(),
            segments: vec![(s.total_secs, "#059669")],
            value: format!("{:.3}s ×{}", s.total_secs, s.count),
        })
        .collect();
    report.panel("Phase-time breakdown", render::bars("phase-breakdown", &phases, &[]));

    if usage.is_empty() {
        report.note("no select/train events in log — nothing to attribute");
        return report;
    }
    report.note(format!(
        "per-client attribution: {} clients, {:.2} paid",
        usage.len(),
        total_paid(&usage)
    ));
    let rows = usage
        .iter()
        .map(|u| {
            vec![
                u.client.to_string(),
                u.selections.to_string(),
                u.failures.to_string(),
                format!("{:.2}", u.payment),
                fmt_secs(u.total_secs),
                fmt_secs(u.compute_secs),
                fmt_secs(u.upload_secs),
                u.last_estimate.map_or("—".to_string(), |e| format!("{e:.4}")),
            ]
        })
        .collect();
    report.table(
        "Per-client attribution",
        vec![
            Col::right("client", 7),
            Col::right("selected", 9),
            Col::right("failed", 7),
            Col::right("paid", 10),
            Col::right("busy", 12),
            Col::right("compute", 12),
            Col::right("upload", 12),
            Col::right("est", 10),
        ],
        rows,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_log() -> RunLog {
        let mut text = String::new();
        for epoch in 0..6 {
            text.push_str(&format!(
                r#"{{"kind":"select","epoch":{epoch},"cohort":[0,2],"estimates":[0.3,0.5]}}"#
            ));
            text.push('\n');
            text.push_str(&format!(
                concat!(
                    r#"{{"kind":"train","epoch":{},"cohort":[0,2],"failed":[],"iterations":2,"#,
                    r#""per_client_iter_latency":[0.4,0.6],"cost":3.0,"charged":[0,2],"#,
                    r#""per_client_cost":[1.0,2.0],"per_client_compute_secs":[0.3,0.5],"#,
                    r#""per_client_upload_secs":[0.1,0.1]}}"#
                ),
                epoch
            ));
            text.push('\n');
            text.push_str(&format!(
                concat!(
                    r#"{{"kind":"epoch","epoch":{},"cohort":[0,2],"cost":3.0,"#,
                    r#""budget_remaining":{},"regret":{}}}"#
                ),
                epoch,
                100.0 - 3.0 * (epoch + 1) as f64,
                0.5 * (epoch + 1) as f64,
            ));
            text.push('\n');
            text.push_str(&format!(
                r#"{{"kind":"span","name":"train","parent":"epoch","depth":1,"secs":0.0{epoch}1}}"#
            ));
            text.push('\n');
        }
        RunLog::parse(&text)
    }

    #[test]
    fn dashboard_contains_all_four_charts_and_the_table() {
        let html = single(&demo_log()).html();
        for id in ["regret-curve", "budget-burndown", "selection-heatmap", "phase-breakdown"] {
            assert!(html.contains(&format!("<svg id=\"{id}\"")), "missing chart {id}");
        }
        assert!(html.contains("<table>"));
        assert!(html.contains("Per-client attribution"));
        // Self-contained: no external references of any kind.
        for needle in ["http://", "https://", "<script", "<link", "src="] {
            let allowed = needle == "http://" && html.contains("http://www.w3.org/2000/svg");
            if allowed {
                assert_eq!(html.matches("http://").count(), 4, "only the SVG xmlns");
                continue;
            }
            assert!(!html.contains(needle), "external reference via {needle}");
        }
        // The polylines carry real data points.
        assert!(html.contains("polyline"));
    }

    #[test]
    fn empty_log_renders_placeholders_not_panics() {
        let html = single(&RunLog::parse("")).html();
        for id in ["regret-curve", "budget-burndown", "selection-heatmap", "phase-breakdown"] {
            assert!(html.contains(&format!("<svg id=\"{id}\"")), "missing chart {id}");
        }
        assert!(html.contains("no data") || html.contains("no select events"));
        assert!(html.contains("nothing to attribute"));
    }

    /// A minimal run log for one policy: a `run_start` stamp plus a
    /// few select/train/epoch events, with per-policy regret slopes so the
    /// overlaid polylines differ.
    fn policy_log(policy: &str, schema: Option<u32>, slope: f64) -> RunLog {
        let mut text = String::new();
        let version = schema.map_or(String::new(), |v| format!(r#""schema_version":{v},"#));
        text.push_str(&format!(
            r#"{{"kind":"run_start",{version}"policy":"{policy}","budget":100.0,"seed":7}}"#
        ));
        text.push('\n');
        for epoch in 0..5 {
            text.push_str(&format!(
                r#"{{"kind":"select","epoch":{epoch},"cohort":[0],"estimates":[null]}}"#
            ));
            text.push('\n');
            text.push_str(&format!(
                concat!(
                    r#"{{"kind":"train","epoch":{},"cohort":[0],"failed":[],"iterations":1,"#,
                    r#""per_client_iter_latency":[0.5],"cost":2.0,"charged":[0],"#,
                    r#""per_client_cost":[2.0],"per_client_compute_secs":[0.4],"#,
                    r#""per_client_upload_secs":[0.1]}}"#
                ),
                epoch
            ));
            text.push('\n');
            text.push_str(&format!(
                concat!(
                    r#"{{"kind":"epoch","epoch":{},"cohort":[0],"cost":2.0,"#,
                    r#""budget_remaining":{},"regret":{},"global_loss":{}}}"#
                ),
                epoch,
                100.0 - 2.0 * (epoch + 1) as f64,
                slope * (epoch + 1) as f64,
                1.0 / (epoch + 1) as f64,
            ));
            text.push('\n');
        }
        RunLog::parse(&text)
    }

    #[test]
    fn overlay_charts_both_policies_with_legends_and_summary() {
        let runs = vec![
            ("a_run".to_string(), policy_log("FedL", Some(1), 0.5)),
            ("b_run".to_string(), policy_log("FedAvg", Some(1), 1.5)),
        ];
        let html = overlay(&runs).unwrap().html();
        for id in ["regret-overlay", "budget-overlay"] {
            assert!(html.contains(&format!("<svg id=\"{id}\"")), "missing chart {id}");
        }
        // Legend entries carry the policy names from run_start, not
        // the file stems, and each chart draws one polyline per run.
        for policy in ["FedL", "FedAvg"] {
            assert!(html.contains(&format!("class=\"legend\">{policy}<")), "legend {policy}");
            assert!(!html.contains("a_run"), "file stem leaked into output");
        }
        assert_eq!(html.matches("<polyline").count(), 4, "2 charts × 2 runs");
        // Summary table: final loss (1/5), total paid (5 × 2), rows
        // per policy.
        assert!(html.contains("Per-policy summary"));
        assert!(html.contains("0.2000"));
        assert!(html.contains("10.00"));
        // Still self-contained: no scripts or external assets.
        for needle in ["<script", "<link", "src="] {
            assert!(!html.contains(needle), "external reference via {needle}");
        }
    }

    #[test]
    fn overlay_refuses_mismatched_schema_versions() {
        let runs = vec![
            ("a".to_string(), policy_log("FedL", Some(1), 0.5)),
            ("b".to_string(), policy_log("FedAvg", Some(2), 1.5)),
        ];
        let err = overlay(&runs).unwrap_err();
        assert!(err.contains("mismatched schema versions"), "{err}");
        assert!(err.contains("a: v1") && err.contains("b: v2"), "{err}");
        // A stamped log never overlays a legacy (unstamped) one either.
        let runs = vec![
            ("a".to_string(), policy_log("FedL", Some(1), 0.5)),
            ("b".to_string(), policy_log("FedAvg", None, 1.5)),
        ];
        let err = overlay(&runs).unwrap_err();
        assert!(err.contains("b: legacy (no stamp)"), "{err}");
        // Two legacy logs still overlay.
        let runs = vec![
            ("a".to_string(), policy_log("FedL", None, 0.5)),
            ("b".to_string(), policy_log("FedAvg", None, 1.5)),
        ];
        assert!(overlay(&runs).is_ok());
    }

    #[test]
    fn overlay_table_summarises_each_run_and_dedupes_labels() {
        let runs = vec![
            ("x".to_string(), policy_log("FedL", Some(1), 0.5)),
            ("y".to_string(), policy_log("FedL", Some(1), 1.5)),
        ];
        let table = overlay(&runs).unwrap().text();
        assert!(table.contains("policy"), "{table}");
        assert!(table.contains("FedL") && table.contains("FedL #2"), "{table}");
        // 5 epochs, 5 selections, 0 dropouts, 10.00 paid.
        assert!(table.contains("10.00"), "{table}");
        assert!(table.contains("0.0%"), "{table}");
    }

    #[test]
    fn long_campaigns_are_bucketed_to_bounded_svg_size() {
        // 1000 epochs × 80 clients must not emit 80 000 cells.
        let mut text = String::new();
        for epoch in 0..1000usize {
            let k = epoch % 80;
            text.push_str(&format!(
                r#"{{"kind":"select","epoch":{epoch},"cohort":[{k}],"estimates":[0.1]}}"#
            ));
            text.push('\n');
            text.push_str(&format!(
                concat!(
                    r#"{{"kind":"train","epoch":{},"cohort":[{}],"failed":[],"iterations":1,"#,
                    r#""per_client_iter_latency":[0.1],"cost":1.0,"charged":[{}],"#,
                    r#""per_client_cost":[1.0],"per_client_compute_secs":[0.05],"#,
                    r#""per_client_upload_secs":[0.05]}}"#
                ),
                epoch, k, k
            ));
            text.push('\n');
        }
        let html = single(&RunLog::parse(&text)).html();
        let cells = html.matches("fill=\"#2563eb\"").count();
        assert!(cells <= HEAT_MAX_ROWS * HEAT_MAX_COLS, "{cells} cells");
        assert!(html.contains("…"), "row truncation must be visible");
    }
}
