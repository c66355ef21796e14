//! Self-contained HTML dashboard for a telemetry run log.
//!
//! [`render_html`] turns a parsed [`RunLog`] into a single HTML file
//! with **no external assets** — styles are inline and every chart is
//! an inline SVG — so the file can be attached to a CI run or mailed
//! around and still render. Four panels (each with a stable `id` that
//! `scripts/ci.sh` asserts on):
//!
//! * `regret-curve` — cumulative regret vs epoch (`epoch.regret`);
//! * `budget-burndown` — remaining budget vs epoch
//!   (`epoch.budget_remaining`);
//! * `selection-heatmap` — client × epoch selection frequency
//!   (`select.cohort`);
//! * `phase-breakdown` — total seconds per phase (`span` events).
//!
//! Below the charts sits the same per-client attribution table the
//! `experiments dashboard` subcommand prints as ASCII
//! ([`RunLog::client_usage`]).
//!
//! [`render_overlay_html`] is the **multi-run** mode: given two or
//! more run logs (one per policy, identical seeds — the paper's §6
//! comparison protocol), it aligns the runs by epoch and overlays
//! their regret curves (`regret-overlay`) and budget burn-down
//! (`budget-overlay`) in one SVG each, with a legend, plus a
//! per-policy summary table. Logs with mismatched
//! `run_start.schema_version` stamps are refused.

use fedl_json::Value;

use crate::report::RunLog;

/// Chart plot-area geometry (pixels).
const PLOT_W: f64 = 560.0;
const PLOT_H: f64 = 200.0;
/// Margins: left for y tick labels, bottom for x tick labels.
const M_LEFT: f64 = 70.0;
const M_TOP: f64 = 10.0;
const M_RIGHT: f64 = 10.0;
const M_BOTTOM: f64 = 30.0;
/// Heatmap caps: more rows/columns than this are bucketed so the SVG
/// stays small no matter how long the campaign ran.
const HEAT_MAX_ROWS: usize = 64;
const HEAT_MAX_COLS: usize = 120;
/// Series colors for the multi-run overlay charts, cycled when more
/// runs than colors are overlaid.
const SERIES_COLORS: [&str; 6] = ["#dc2626", "#2563eb", "#059669", "#7c3aed", "#d97706", "#0891b2"];

/// Full panel size: plot area plus margins.
const PANEL_W: f64 = M_LEFT + PLOT_W + M_RIGHT;
const PANEL_H: f64 = M_TOP + PLOT_H + M_BOTTOM;

/// The opening tag of a self-contained inline-SVG panel `w`×`h` pixels
/// — shared by every HTML report in the workspace (this dashboard, the
/// trace report, the bench-history trend report).
pub fn svg_open(id: &str, w: f64, h: f64) -> String {
    format!(
        r#"<svg id="{id}" viewBox="0 0 {w} {h}" width="{w}" height="{h}" xmlns="http://www.w3.org/2000/svg">"#
    )
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// A line chart over `(x, y)` points (non-finite points dropped).
/// Returns a placeholder panel when fewer than two finite points exist.
fn line_chart(id: &str, color: &str, points: &[(f64, f64)]) -> String {
    let pts: Vec<(f64, f64)> =
        points.iter().copied().filter(|(x, y)| x.is_finite() && y.is_finite()).collect();
    if pts.len() < 2 {
        return format!(
            "{}<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" class=\"empty\">no data</text></svg>",
            svg_open(id, PANEL_W, PANEL_H),
            M_LEFT + PLOT_W / 2.0,
            M_TOP + PLOT_H / 2.0
        );
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if x_max == x_min {
        x_max = x_min + 1.0;
    }
    if y_max == y_min {
        y_max = y_min + 1.0;
    }
    let sx = |x: f64| M_LEFT + (x - x_min) / (x_max - x_min) * PLOT_W;
    let sy = |y: f64| M_TOP + (1.0 - (y - y_min) / (y_max - y_min)) * PLOT_H;
    let path: Vec<String> =
        pts.iter().map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y))).collect();
    let mut out = svg_open(id, PANEL_W, PANEL_H);
    // Frame + the polyline + min/max tick labels on both axes.
    out.push_str(&format!(
        r#"<rect x="{M_LEFT}" y="{M_TOP}" width="{PLOT_W}" height="{PLOT_H}" class="frame"/>"#
    ));
    out.push_str(&format!(
        r#"<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{}"/>"#,
        path.join(" ")
    ));
    out.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
        M_LEFT - 4.0,
        M_TOP + 10.0,
        fmt_tick(y_max)
    ));
    out.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
        M_LEFT - 4.0,
        M_TOP + PLOT_H,
        fmt_tick(y_min)
    ));
    out.push_str(&format!(
        r#"<text x="{M_LEFT}" y="{:.1}" class="tick">{}</text>"#,
        M_TOP + PLOT_H + 16.0,
        fmt_tick(x_min)
    ));
    out.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
        M_LEFT + PLOT_W,
        M_TOP + PLOT_H + 16.0,
        fmt_tick(x_max)
    ));
    out.push_str("</svg>");
    out
}

/// Pulls `(epoch, field)` series from the `epoch` events.
fn epoch_series(log: &RunLog, field: &str) -> Vec<(f64, f64)> {
    log.events()
        .iter()
        .filter(|e| e.get("kind").and_then(Value::as_str) == Some("epoch"))
        .filter_map(|e| {
            let x = e.get("epoch")?.as_f64()?;
            let y = e.get(field).and_then(Value::as_f64).unwrap_or(f64::NAN);
            Some((x, y))
        })
        .collect()
}

/// One overlay series: display label, stroke color, `(x, y)` points.
type Series<'a> = (String, &'a str, Vec<(f64, f64)>);

/// A multi-series line chart with a legend — the overlay-mode panel.
/// Series with fewer than two finite points contribute only their
/// legend entry; a chart with no drawable series renders a
/// placeholder.
fn multi_line_chart(id: &str, series: &[Series<'_>]) -> String {
    let cleaned: Vec<Series<'_>> = series
        .iter()
        .map(|(label, color, pts)| {
            let finite: Vec<(f64, f64)> =
                pts.iter().copied().filter(|(x, y)| x.is_finite() && y.is_finite()).collect();
            (label.clone(), *color, finite)
        })
        .collect();
    let mut out = svg_open(id, PANEL_W, PANEL_H);
    if !cleaned.iter().any(|(_, _, pts)| pts.len() >= 2) {
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" class=\"empty\">no data</text></svg>",
            M_LEFT + PLOT_W / 2.0,
            M_TOP + PLOT_H / 2.0
        ));
        return out;
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, _, pts) in &cleaned {
        for &(x, y) in pts {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
    }
    if x_max == x_min {
        x_max = x_min + 1.0;
    }
    if y_max == y_min {
        y_max = y_min + 1.0;
    }
    let sx = |x: f64| M_LEFT + (x - x_min) / (x_max - x_min) * PLOT_W;
    let sy = |y: f64| M_TOP + (1.0 - (y - y_min) / (y_max - y_min)) * PLOT_H;
    out.push_str(&format!(
        r#"<rect x="{M_LEFT}" y="{M_TOP}" width="{PLOT_W}" height="{PLOT_H}" class="frame"/>"#
    ));
    for (_, color, pts) in &cleaned {
        if pts.len() < 2 {
            continue;
        }
        let path: Vec<String> =
            pts.iter().map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y))).collect();
        out.push_str(&format!(
            r#"<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{}"/>"#,
            path.join(" ")
        ));
    }
    // Legend: swatch + label per series, top-right inside the frame.
    for (i, (label, color, _)) in cleaned.iter().enumerate() {
        let y = M_TOP + 8.0 + 14.0 * i as f64;
        out.push_str(&format!(
            r#"<rect x="{:.1}" y="{:.1}" width="10" height="3" fill="{color}"/>"#,
            M_LEFT + PLOT_W - 120.0,
            y,
        ));
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" class="legend">{}</text>"#,
            M_LEFT + PLOT_W - 106.0,
            y + 4.0,
            escape(label)
        ));
    }
    // Axis extent ticks, as in the single-run charts.
    out.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
        M_LEFT - 4.0,
        M_TOP + 10.0,
        fmt_tick(y_max)
    ));
    out.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
        M_LEFT - 4.0,
        M_TOP + PLOT_H,
        fmt_tick(y_min)
    ));
    out.push_str(&format!(
        r#"<text x="{M_LEFT}" y="{:.1}" class="tick">{}</text>"#,
        M_TOP + PLOT_H + 16.0,
        fmt_tick(x_min)
    ));
    out.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
        M_LEFT + PLOT_W,
        M_TOP + PLOT_H + 16.0,
        fmt_tick(x_max)
    ));
    out.push_str("</svg>");
    out
}

/// Refuses to overlay logs whose `run_start.schema_version` stamps
/// differ (a log without the stamp counts as legacy version 0 — two
/// legacy logs still overlay).
fn check_overlay_schemas(runs: &[(String, RunLog)]) -> Result<(), String> {
    let versions: Vec<u64> =
        runs.iter().map(|(_, log)| log.schema_version().unwrap_or(0)).collect();
    if versions.windows(2).any(|w| w[0] != w[1]) {
        let detail: Vec<String> = runs
            .iter()
            .zip(&versions)
            .map(|((name, _), v)| {
                if *v == 0 {
                    format!("{name}: legacy (no stamp)")
                } else {
                    format!("{name}: v{v}")
                }
            })
            .collect();
        return Err(format!(
            "refusing to overlay run logs with mismatched schema versions — {}",
            detail.join(", ")
        ));
    }
    Ok(())
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

/// Per-run summary metrics for the overlay table.
struct OverlaySummary {
    epochs: usize,
    final_loss: Option<f64>,
    total_paid: f64,
    selections: usize,
    failures: usize,
}

fn overlay_summary(log: &RunLog) -> OverlaySummary {
    let epochs = log
        .events()
        .iter()
        .filter(|e| e.get("kind").and_then(Value::as_str) == Some("epoch"))
        .count();
    let final_loss = log
        .events()
        .iter()
        .filter(|e| e.get("kind").and_then(Value::as_str) == Some("epoch"))
        .filter_map(|e| {
            e.get("global_loss")
                .and_then(Value::as_f64)
                .or_else(|| e.get("test_loss").and_then(Value::as_f64))
        })
        .next_back();
    let usage = log.client_usage();
    OverlaySummary {
        epochs,
        final_loss,
        total_paid: usage.iter().map(|u| u.payment).sum(),
        selections: usage.iter().map(|u| u.selections).sum(),
        failures: usage.iter().map(|u| u.failures).sum(),
    }
}

/// The overlay-mode ASCII summary: one row per run (policy), with the
/// same columns as the HTML summary table.
pub fn render_overlay_table(runs: &[(String, RunLog)]) -> Result<String, String> {
    check_overlay_schemas(runs)?;
    let labels = overlay_labels(runs);
    let mut out = String::new();
    for ((_, log), label) in runs.iter().zip(&labels) {
        if log.skipped_lines() > 0 {
            out.push_str(&format!("{label}: skipped {} malformed line(s)\n", log.skipped_lines()));
        }
    }
    out.push_str(&format!(
        "{:<14} {:>7} {:>12} {:>12} {:>10} {:>9} {:>10}\n",
        "policy", "epochs", "final loss", "total paid", "selected", "dropouts", "drop rate"
    ));
    for ((_, log), label) in runs.iter().zip(&labels) {
        let s = overlay_summary(log);
        out.push_str(&format!(
            "{:<14} {:>7} {:>12} {:>12.2} {:>10} {:>9} {:>10}\n",
            label,
            s.epochs,
            s.final_loss.map_or("—".to_string(), |l| format!("{l:.4}")),
            s.total_paid,
            s.selections,
            s.failures,
            if s.selections > 0 {
                format!("{:.1}%", 100.0 * s.failures as f64 / s.selections as f64)
            } else {
                "—".to_string()
            },
        ));
    }
    Ok(out)
}

/// Renders the multi-run overlay dashboard: runs aligned by epoch,
/// regret curves overlaid in one SVG (`regret-overlay`), budget
/// burn-down in another (`budget-overlay`), each with a per-policy
/// legend, above a per-policy summary table. Same self-containment
/// contract as [`render_html`]. Errs when the logs' schema versions
/// differ.
pub fn render_overlay_html(runs: &[(String, RunLog)]) -> Result<String, String> {
    check_overlay_schemas(runs)?;
    let labels = overlay_labels(runs);
    let series_for = |field: &str| -> Vec<Series<'static>> {
        runs.iter()
            .zip(&labels)
            .enumerate()
            .map(|(i, ((_, log), label))| {
                (label.clone(), SERIES_COLORS[i % SERIES_COLORS.len()], epoch_series(log, field))
            })
            .collect()
    };
    let mut body = String::new();
    for ((_, log), label) in runs.iter().zip(&labels) {
        if log.skipped_lines() > 0 {
            body.push_str(&format!(
                "<p class=\"warn\">{}: skipped {} malformed line(s)</p>",
                escape(label),
                log.skipped_lines()
            ));
        }
    }
    for (title, chart) in [
        ("Cumulative regret (overlay)", multi_line_chart("regret-overlay", &series_for("regret"))),
        (
            "Budget burn-down (overlay)",
            multi_line_chart("budget-overlay", &series_for("budget_remaining")),
        ),
    ] {
        body.push_str(&format!("<section><h2>{title}</h2>{chart}</section>"));
    }
    // Per-policy summary table.
    body.push_str(
        "<section><h2>Per-policy summary</h2><table><thead><tr><th>policy</th>\
         <th>epochs</th><th>final loss</th><th>total paid</th><th>selected</th>\
         <th>dropouts</th><th>drop rate</th></tr></thead><tbody>",
    );
    for ((_, log), label) in runs.iter().zip(&labels) {
        let s = overlay_summary(log);
        body.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.2}</td><td>{}</td>\
             <td>{}</td><td>{}</td></tr>",
            escape(label),
            s.epochs,
            s.final_loss.map_or("—".to_string(), |l| format!("{l:.4}")),
            s.total_paid,
            s.selections,
            s.failures,
            if s.selections > 0 {
                format!("{:.1}%", 100.0 * s.failures as f64 / s.selections as f64)
            } else {
                "—".to_string()
            },
        ));
    }
    body.push_str("</tbody></table></section>");
    Ok(html_page("FedL run overlay", &format!("FedL run overlay — {} runs", runs.len()), &body))
}

/// The client × epoch selection-frequency heatmap. Rows are clients in
/// attribution (payment-descending) order, columns are epoch buckets;
/// cell intensity is the fraction of the bucket's epochs in which the
/// client was selected.
fn selection_heatmap(log: &RunLog) -> String {
    // (epoch, cohort) pairs from the select events.
    let selections: Vec<(usize, Vec<usize>)> = log
        .events()
        .iter()
        .filter(|e| e.get("kind").and_then(Value::as_str) == Some("select"))
        .filter_map(|e| {
            let epoch = e.get("epoch")?.as_usize()?;
            let cohort = e.get("cohort")?.as_arr()?.iter().filter_map(Value::as_usize).collect();
            Some((epoch, cohort))
        })
        .collect();
    if selections.is_empty() {
        return format!(
            "{}<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" class=\"empty\">no select events</text></svg>",
            svg_open("selection-heatmap", PANEL_W, PANEL_H),
            M_LEFT + PLOT_W / 2.0,
            M_TOP + PLOT_H / 2.0
        );
    }
    let max_epoch = selections.iter().map(|(e, _)| *e).max().unwrap_or(0);
    let n_cols = (max_epoch + 1).min(HEAT_MAX_COLS);
    let epochs_per_col = (max_epoch + 1).div_ceil(n_cols);
    let rows: Vec<usize> =
        log.client_usage().iter().map(|u| u.client).take(HEAT_MAX_ROWS).collect();
    let truncated = log.client_usage().len() > rows.len();
    let row_of = |k: usize| rows.iter().position(|&r| r == k);

    // counts[row][col] = number of selections; denominator is the
    // bucket width in epochs.
    let mut counts = vec![vec![0usize; n_cols]; rows.len()];
    for (epoch, cohort) in &selections {
        let col = (epoch / epochs_per_col).min(n_cols - 1);
        for &k in cohort {
            if let Some(row) = row_of(k) {
                counts[row][col] += 1;
            }
        }
    }
    let cell_w = PLOT_W / n_cols as f64;
    let cell_h = PLOT_H / rows.len() as f64;
    let mut out = svg_open("selection-heatmap", PANEL_W, PANEL_H);
    out.push_str(&format!(
        r#"<rect x="{M_LEFT}" y="{M_TOP}" width="{PLOT_W}" height="{PLOT_H}" class="frame"/>"#
    ));
    for (row, row_counts) in counts.iter().enumerate() {
        for (col, &count) in row_counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let opacity = (count as f64 / epochs_per_col as f64).min(1.0);
            out.push_str(&format!(
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#2563eb" fill-opacity="{opacity:.2}"/>"##,
                M_LEFT + col as f64 * cell_w,
                M_TOP + row as f64 * cell_h,
                cell_w.max(1.0),
                cell_h.max(1.0),
            ));
        }
    }
    // Row labels: first and last client id shown (rows follow the
    // attribution table order).
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">k={first}</text>"#,
            M_LEFT - 4.0,
            M_TOP + 10.0
        ));
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">k={last}{}</text>"#,
            M_LEFT - 4.0,
            M_TOP + PLOT_H,
            if truncated { "…" } else { "" }
        ));
    }
    out.push_str(&format!(
        r#"<text x="{M_LEFT}" y="{:.1}" class="tick">epoch 0</text>"#,
        M_TOP + PLOT_H + 16.0
    ));
    out.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{max_epoch}</text>"#,
        M_LEFT + PLOT_W,
        M_TOP + PLOT_H + 16.0
    ));
    out.push_str("</svg>");
    out
}

/// Horizontal bars of total seconds per phase (descending, as in the
/// `telemetry-report` table).
fn phase_breakdown(log: &RunLog) -> String {
    let stats = log.phase_stats();
    if stats.is_empty() {
        return format!(
            "{}<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" class=\"empty\">no span events</text></svg>",
            svg_open("phase-breakdown", PANEL_W, PANEL_H),
            M_LEFT + PLOT_W / 2.0,
            M_TOP + PLOT_H / 2.0
        );
    }
    let max_total = stats.iter().map(|s| s.total_secs).fold(0.0f64, f64::max).max(1e-12);
    let bar_h = (PLOT_H / stats.len() as f64).min(28.0);
    let mut out = svg_open("phase-breakdown", PANEL_W, PANEL_H);
    for (i, s) in stats.iter().enumerate() {
        let y = M_TOP + i as f64 * bar_h;
        let w = s.total_secs / max_total * PLOT_W;
        out.push_str(&format!(
            r##"<rect x="{M_LEFT}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#059669"/>"##,
            y + 2.0,
            w.max(1.0),
            bar_h - 4.0,
        ));
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end" class="tick">{}</text>"#,
            M_LEFT - 4.0,
            y + bar_h / 2.0 + 4.0,
            escape(&s.name)
        ));
        out.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" class="tick">{:.3}s ×{}</text>"#,
            M_LEFT + w.max(1.0) + 6.0,
            y + bar_h / 2.0 + 4.0,
            s.total_secs,
            s.count
        ));
    }
    out.push_str("</svg>");
    out
}

/// The per-client attribution table as HTML rows.
fn client_table(log: &RunLog) -> String {
    let usage = log.client_usage();
    if usage.is_empty() {
        return "<p>no select/train events in log — nothing to attribute</p>".to_string();
    }
    let mut out = String::from(
        "<table><thead><tr><th>client</th><th>selected</th><th>failed</th>\
         <th>paid</th><th>busy&nbsp;s</th><th>compute&nbsp;s</th>\
         <th>upload&nbsp;s</th><th>est</th></tr></thead><tbody>",
    );
    for u in &usage {
        let est = u.last_estimate.map_or("—".to_string(), |e| format!("{e:.4}"));
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.2}</td>\
             <td>{:.3}</td><td>{:.3}</td><td>{:.3}</td><td>{est}</td></tr>",
            u.client,
            u.selections,
            u.failures,
            u.payment,
            u.total_secs,
            u.compute_secs,
            u.upload_secs,
        ));
    }
    out.push_str("</tbody></table>");
    out
}

/// Wraps `body` into a self-contained HTML document (inline stylesheet,
/// no scripts, no external assets) — the one page scaffold of every
/// report in the workspace.
pub fn html_page(title: &str, heading: &str, body: &str) -> String {
    format!(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>{title}</title><style>\
         body{{font-family:system-ui,sans-serif;max-width:720px;margin:2rem auto;color:#111}}\
         h2{{font-size:1rem;margin:1.2rem 0 0.3rem}}\
         .frame{{fill:none;stroke:#9ca3af;stroke-width:1}}\
         .tick{{font-size:10px;fill:#6b7280}}\
         .legend{{font-size:10px;fill:#374151}}\
         .title{{font-size:11px;fill:#374151}}\
         .empty{{font-size:12px;fill:#6b7280}}\
         .warn{{color:#b45309}}\
         .swatch{{display:inline-block;width:10px;height:10px;margin-right:4px}}\
         table{{border-collapse:collapse;font-size:0.85rem}}\
         th,td{{border:1px solid #d1d5db;padding:2px 8px;text-align:right}}\
         </style></head><body><h1>{heading}</h1>{body}</body></html>"
    )
}

/// Escapes text for an HTML/SVG text node.
pub fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Renders the complete self-contained dashboard document.
pub fn render_html(log: &RunLog) -> String {
    let mut body = String::new();
    if log.skipped_lines() > 0 {
        body.push_str(&format!(
            "<p class=\"warn\">skipped {} malformed line(s) while parsing the log</p>",
            log.skipped_lines()
        ));
    }
    body.push_str(&format!("<p>{} events</p>", log.events().len()));
    for (title, chart) in [
        ("Cumulative regret", line_chart("regret-curve", "#dc2626", &epoch_series(log, "regret"))),
        (
            "Budget burn-down",
            line_chart("budget-burndown", "#7c3aed", &epoch_series(log, "budget_remaining")),
        ),
        ("Client-selection frequency", selection_heatmap(log)),
        ("Phase-time breakdown", phase_breakdown(log)),
    ] {
        body.push_str(&format!("<section><h2>{title}</h2>{chart}</section>"));
    }
    body.push_str(&format!(
        "<section><h2>Per-client attribution</h2>{}</section>",
        client_table(log)
    ));
    html_page("FedL run dashboard", "FedL run dashboard", &body)
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
        let html = render_html(&demo_log());
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
        let html = render_html(&RunLog::parse(""));
        for id in ["regret-curve", "budget-burndown", "selection-heatmap", "phase-breakdown"] {
            assert!(html.contains(&format!("<svg id=\"{id}\"")), "missing chart {id}");
        }
        assert!(html.contains("no data") || html.contains("no select events"));
        assert!(html.contains("nothing to attribute"));
    }

    /// A minimal run log for one policy: a `run_start` stamp plus a
    /// few epoch/train events, with per-policy regret slopes so the
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
        let html = render_overlay_html(&runs).unwrap();
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
        let err = render_overlay_html(&runs).unwrap_err();
        assert!(err.contains("mismatched schema versions"), "{err}");
        assert!(err.contains("a: v1") && err.contains("b: v2"), "{err}");
        assert!(render_overlay_table(&runs).is_err());
        // A stamped log never overlays a legacy (unstamped) one either.
        let runs = vec![
            ("a".to_string(), policy_log("FedL", Some(1), 0.5)),
            ("b".to_string(), policy_log("FedAvg", None, 1.5)),
        ];
        let err = render_overlay_html(&runs).unwrap_err();
        assert!(err.contains("b: legacy (no stamp)"), "{err}");
        // Two legacy logs still overlay.
        let runs = vec![
            ("a".to_string(), policy_log("FedL", None, 0.5)),
            ("b".to_string(), policy_log("FedAvg", None, 1.5)),
        ];
        assert!(render_overlay_html(&runs).is_ok());
    }

    #[test]
    fn overlay_table_summarises_each_run_and_dedupes_labels() {
        let runs = vec![
            ("x".to_string(), policy_log("FedL", Some(1), 0.5)),
            ("y".to_string(), policy_log("FedL", Some(1), 1.5)),
        ];
        let table = render_overlay_table(&runs).unwrap();
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
        let html = render_html(&RunLog::parse(&text));
        let cells = html.matches("fill=\"#2563eb\"").count();
        assert!(cells <= HEAT_MAX_ROWS * HEAT_MAX_COLS, "{cells} cells");
        assert!(html.contains("…"), "row truncation must be visible");
    }
}
