//! The one report model of the observatory.
//!
//! Every offline report — `telemetry-report`, the dashboard (single run
//! and overlay), `trace-report`, the bench-history trend report and
//! gate, `stats`, and every paper figure, headline table and study that
//! `experiments` prints — is built **once** as a [`Report`]: prose
//! notes, [`Table`]s and chart panels, in reading order. Exactly two
//! functions turn it into output: [`Report::text`] for the terminal and
//! [`Report::html`] for a self-contained page (inline stylesheet,
//! inline SVG, no script, no external asset). A table therefore shows
//! the same cells in both, and a column added to one appears in both.
//!
//! This module also owns what every panel shares: the page scaffold,
//! the plot geometry, the empty-panel placeholder and the three chart
//! primitives [`lines`], [`bars`] and [`heatmap`]. The modules that
//! build reports (`report`, `dashboard`, `trace`, and `fedl-bench`'s
//! `history`, `report` and `experiments`) only walk their input and
//! fill the model.

/// Plot-area geometry (pixels) of every panel.
const PLOT_W: f64 = 560.0;
const PLOT_H: f64 = 200.0;
/// Margins: left for y tick labels, bottom for x tick labels.
const M_LEFT: f64 = 70.0;
const M_TOP: f64 = 10.0;
const M_RIGHT: f64 = 10.0;
const M_BOTTOM: f64 = 30.0;
/// Bar rows drawn per panel; later rows are dropped with a visible note
/// so the file stays bounded for long campaigns.
const MAX_BAR_ROWS: usize = 24;

/// Series colors for multi-series charts, cycled when more series than
/// colors are drawn.
pub const SERIES_COLORS: [&str; 6] =
    ["#dc2626", "#2563eb", "#059669", "#7c3aed", "#d97706", "#0891b2"];

/// One column of a [`Table`]: its header and how the text rendering
/// lays its cells out.
#[derive(Debug, Clone)]
pub struct Col {
    /// Header cell; a table whose headers are all empty prints none.
    pub head: String,
    /// Minimum cell width in characters (longer cells overflow).
    pub width: usize,
    /// Pad on the right (left-aligned) instead of on the left.
    pub left: bool,
    /// Extra spaces before the column, on top of the single separator
    /// between columns (on the first column: the table's indent).
    pub pad: usize,
}

impl Col {
    /// A left-aligned column.
    pub fn left(head: impl Into<String>, width: usize) -> Self {
        Self { head: head.into(), width, left: true, pad: 0 }
    }

    /// A right-aligned column.
    pub fn right(head: impl Into<String>, width: usize) -> Self {
        Self { head: head.into(), width, left: false, pad: 0 }
    }

    /// The same column behind `pad` extra spaces.
    pub fn pad(self, pad: usize) -> Self {
        Self { pad, ..self }
    }
}

/// A table: defined once, rendered as fixed-width text or as HTML.
#[derive(Debug, Clone)]
pub struct Table {
    /// Section heading of the HTML rendering (text reports carry their
    /// own caption lines).
    pub title: String,
    /// The columns, left to right.
    pub cols: Vec<Col>,
    /// The rows, one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn text_row<S: AsRef<str>>(&self, cells: impl Iterator<Item = S>, out: &mut String) {
        for (i, (col, cell)) in self.cols.iter().zip(cells).enumerate() {
            let (gap, cell, w) = (col.pad + usize::from(i > 0), cell.as_ref(), col.width);
            out.push_str(&" ".repeat(gap));
            out.push_str(&if col.left { format!("{cell:<w$}") } else { format!("{cell:>w$}") });
        }
        out.push('\n');
    }

    /// The fixed-width rendering: header line (when any), then the rows.
    pub fn text(&self) -> String {
        let mut out = String::new();
        if self.cols.iter().any(|c| !c.head.is_empty()) {
            self.text_row(self.cols.iter().map(|c| &c.head), &mut out);
        }
        for row in &self.rows {
            self.text_row(row.iter(), &mut out);
        }
        out
    }

    /// The `<table>` rendering of the same cells.
    pub fn html(&self) -> String {
        fn cells<'a>(tag: &str, cells: impl Iterator<Item = &'a str>) -> String {
            cells.map(|c| format!("<{tag}>{}</{tag}>", escape(c))).collect()
        }
        let head = cells("th", self.cols.iter().map(|c| c.head.as_str()));
        let body: String = self
            .rows
            .iter()
            .map(|row| format!("<tr>{}</tr>", cells("td", row.iter().map(String::as_str))))
            .collect();
        format!("<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>")
    }
}

/// One element of a [`Report`], in reading order.
#[derive(Debug, Clone)]
pub enum Block {
    /// Prose: one line of text, one paragraph of HTML.
    Note(String),
    /// A [`Block::Note`] about damaged input, flagged in HTML.
    Warn(String),
    /// Preformatted lines only the text rendering has (captions, ASCII
    /// bars, blank lines); the page shows the heading or panel instead.
    Ascii(String),
    /// A titled inline-SVG chart, which only the HTML rendering has.
    Panel {
        /// Section heading.
        title: String,
        /// The chart: the output of [`lines`], [`bars`] or [`heatmap`].
        svg: String,
    },
    /// A table, which both renderings have.
    Table(Table),
}

/// A report: a page title and its blocks.
#[derive(Debug, Clone)]
pub struct Report {
    /// `<title>` and top heading of the HTML page.
    pub title: String,
    /// The content, in reading order.
    pub blocks: Vec<Block>,
}

impl Report {
    /// An empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Self { title: title.into(), blocks: Vec::new() }
    }

    /// Appends a note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.blocks.push(Block::Note(line.into()));
    }

    /// Appends a note about damaged input.
    pub fn warn(&mut self, line: impl Into<String>) {
        self.blocks.push(Block::Warn(line.into()));
    }

    /// Appends preformatted lines only the text rendering shows.
    pub fn ascii(&mut self, text: impl Into<String>) {
        self.blocks.push(Block::Ascii(text.into()));
    }

    /// Appends a table.
    pub fn table(&mut self, title: &str, cols: Vec<Col>, rows: Vec<Vec<String>>) {
        self.blocks.push(Block::Table(Table { title: title.to_string(), cols, rows }));
    }

    /// Appends a chart panel.
    pub fn panel(&mut self, title: impl Into<String>, svg: String) {
        self.blocks.push(Block::Panel { title: title.into(), svg });
    }

    /// The tables of the report, in order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Table(t) => Some(t),
            _ => None,
        })
    }

    /// The terminal rendering: notes, preformatted text and tables.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Note(line) | Block::Warn(line) => {
                    out.push_str(line);
                    out.push('\n');
                }
                Block::Ascii(text) => out.push_str(text),
                Block::Panel { .. } => {}
                Block::Table(table) => out.push_str(&table.text()),
            }
        }
        out
    }

    /// The self-contained HTML page: notes, chart panels and tables
    /// (inline stylesheet, no scripts, no external assets).
    pub fn html(&self) -> String {
        let section = |title: &str, content: &str| {
            format!("<section><h2>{}</h2>{content}</section>", escape(title))
        };
        let body: String = self
            .blocks
            .iter()
            .map(|block| match block {
                Block::Note(line) => format!("<p>{}</p>", escape(line)),
                Block::Warn(line) => format!("<p class=\"warn\">{}</p>", escape(line)),
                Block::Ascii(_) => String::new(),
                Block::Panel { title, svg } => section(title, svg),
                Block::Table(table) => section(&table.title, &table.html()),
            })
            .collect();
        format!(
            "<!doctype html><html><head><meta charset=\"utf-8\">\
             <title>{title}</title><style>\
             body{{font-family:system-ui,sans-serif;max-width:720px;margin:2rem auto;color:#111}}\
             h2{{font-size:1rem;margin:1.2rem 0 0.3rem}}\
             .frame{{fill:none;stroke:#9ca3af;stroke-width:1}}\
             .tick{{font-size:10px;fill:#6b7280}}\
             .legend{{font-size:10px;fill:#374151}}\
             .empty{{font-size:12px;fill:#6b7280}}\
             .warn{{color:#b45309}}\
             table{{border-collapse:collapse;font-size:0.85rem}}\
             th,td{{border:1px solid #d1d5db;padding:2px 8px;text-align:right}}\
             </style></head><body><h1>{title}</h1>{body}</body></html>",
            title = escape(&self.title)
        )
    }
}

/// Escapes text for an HTML/SVG text node.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// The default axis label of a plain number.
pub fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// The opening tag of a panel.
fn svg_open(id: &str) -> String {
    let (w, h) = (M_LEFT + PLOT_W + M_RIGHT, M_TOP + PLOT_H + M_BOTTOM);
    format!(
        r#"<svg id="{id}" viewBox="0 0 {w} {h}" width="{w}" height="{h}" xmlns="http://www.w3.org/2000/svg">"#
    )
}

/// The panel a chart with nothing to draw degrades to.
fn empty_panel(id: &str) -> String {
    let (x, y) = (M_LEFT + PLOT_W / 2.0, M_TOP + PLOT_H / 2.0);
    format!(
        r#"{}<text x="{x}" y="{y}" text-anchor="middle" class="empty">no data</text></svg>"#,
        svg_open(id)
    )
}

/// The plot-area outline.
fn frame() -> String {
    format!(r#"<rect x="{M_LEFT}" y="{M_TOP}" width="{PLOT_W}" height="{PLOT_H}" class="frame"/>"#)
}

/// A text node; `end` anchors it by its right edge.
fn label(x: f64, y: f64, end: bool, class: &str, text: &str) -> String {
    let anchor = if end { r#" text-anchor="end""# } else { "" };
    format!(r#"<text x="{x:.1}" y="{y:.1}"{anchor} class="{class}">{}</text>"#, escape(text))
}

/// The extent labels of both axes: y top and bottom, x left and right.
fn axis_ticks(y: [&str; 2], x: [&str; 2]) -> String {
    [
        label(M_LEFT - 4.0, M_TOP + 10.0, true, "tick", y[0]),
        label(M_LEFT - 4.0, M_TOP + PLOT_H, true, "tick", y[1]),
        label(M_LEFT, M_TOP + PLOT_H + 16.0, false, "tick", x[0]),
        label(M_LEFT + PLOT_W, M_TOP + PLOT_H + 16.0, true, "tick", x[1]),
    ]
    .concat()
}

/// A legend entry: a color swatch and its label.
fn legend_entry(x: f64, y: f64, color: &str, text: &str) -> String {
    format!(
        r#"<rect x="{x:.1}" y="{y:.1}" width="10" height="3" fill="{color}"/>{}"#,
        label(x + 14.0, y + 4.0, false, "legend", text)
    )
}

/// One curve of a [`lines`] chart.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label; an empty label draws no legend entry.
    pub label: String,
    /// Stroke color.
    pub color: &'static str,
    /// `(x, y, band)` points: the curve runs through `(x, y)`, shaded
    /// `y ± band` where `band > 0`. Non-finite points are dropped.
    pub points: Vec<(f64, f64, f64)>,
    /// Mark every point with a dot.
    pub markers: bool,
}

/// A line chart of any number of series over shared axes, whose extent
/// labels are formatted by `x_tick` / `y_tick`. A series of fewer than
/// two points draws only its markers and legend entry.
pub fn lines(
    id: &str,
    series: &[Series],
    x_tick: fn(f64) -> String,
    y_tick: fn(f64) -> String,
) -> String {
    let finite: Vec<Vec<(f64, f64, f64)>> = series
        .iter()
        .map(|s| {
            s.points
                .iter()
                .copied()
                .filter(|(x, y, b)| x.is_finite() && y.is_finite() && b.is_finite())
                .collect()
        })
        .collect();
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y, band) in finite.iter().flatten() {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y - band);
        y_max = y_max.max(y + band);
    }
    if x_min > x_max {
        return empty_panel(id);
    }
    if x_max == x_min {
        x_max = x_min + 1.0;
    }
    if y_max == y_min {
        y_max = y_min + 1.0;
    }
    let sx = |x: f64| M_LEFT + (x - x_min) / (x_max - x_min) * PLOT_W;
    let sy = |y: f64| M_TOP + (1.0 - (y - y_min) / (y_max - y_min)) * PLOT_H;
    let path = |pts: &mut dyn Iterator<Item = (f64, f64)>| -> String {
        pts.map(|(x, y)| format!("{:.1},{:.1}", sx(x), sy(y))).collect::<Vec<_>>().join(" ")
    };
    let mut out = svg_open(id) + &frame();
    let mut legend_rows = 0.0;
    for (s, pts) in series.iter().zip(&finite) {
        let color = s.color;
        if pts.len() >= 2 {
            if pts.iter().any(|p| p.2 > 0.0) {
                // The band: upper edge left→right, lower edge right→left.
                out.push_str(&format!(
                    r#"<polygon fill="{color}" fill-opacity="0.15" stroke="none" points="{} {}"/>"#,
                    path(&mut pts.iter().map(|&(x, y, b)| (x, y + b))),
                    path(&mut pts.iter().rev().map(|&(x, y, b)| (x, y - b))),
                ));
            }
            out.push_str(&format!(
                r#"<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{}"/>"#,
                path(&mut pts.iter().map(|&(x, y, _)| (x, y)))
            ));
        }
        if s.markers {
            for &(x, y, _) in pts {
                out.push_str(&format!(
                    r#"<circle cx="{:.1}" cy="{:.1}" r="2.5" fill="{color}"/>"#,
                    sx(x),
                    sy(y)
                ));
            }
        }
        if !s.label.is_empty() {
            // Top-right inside the frame, one row per labelled series.
            let (x, y) = (M_LEFT + PLOT_W - 120.0, M_TOP + 8.0 + 14.0 * legend_rows);
            out.push_str(&legend_entry(x, y, color, &s.label));
            legend_rows += 1.0;
        }
    }
    out.push_str(&axis_ticks([&y_tick(y_max), &y_tick(y_min)], [&x_tick(x_min), &x_tick(x_max)]));
    out + "</svg>"
}

/// One row of a [`bars`] chart.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Row label, left of the bar.
    pub label: String,
    /// Stacked `(value, color)` segments, left to right; non-positive
    /// segments are skipped.
    pub segments: Vec<(f64, &'static str)>,
    /// Annotation right of the bar.
    pub value: String,
}

/// Horizontal bars of stacked colored segments on one shared scale, one
/// row per [`Bar`], with a `(name, color)` legend under the plot.
pub fn bars(id: &str, rows: &[Bar], legend: &[(&str, &str)]) -> String {
    let total = |bar: &Bar| bar.segments.iter().map(|(v, _)| v.max(0.0)).sum::<f64>();
    let shown = &rows[..rows.len().min(MAX_BAR_ROWS)];
    let max_total = shown.iter().map(total).fold(0.0, f64::max);
    if max_total <= 0.0 {
        return empty_panel(id);
    }
    let bar_h = (PLOT_H / shown.len() as f64).min(24.0);
    let mut out = svg_open(id);
    for (i, bar) in shown.iter().enumerate() {
        let (y, mut x) = (M_TOP + i as f64 * bar_h, M_LEFT);
        for &(value, color) in bar.segments.iter().filter(|(v, _)| *v > 0.0) {
            let w = (value / max_total * PLOT_W).max(0.5);
            out.push_str(&format!(
                r#"<rect x="{x:.1}" y="{:.1}" width="{w:.1}" height="{:.1}" fill="{color}"/>"#,
                y + 2.0,
                bar_h - 4.0,
            ));
            x += w;
        }
        let baseline = y + bar_h / 2.0 + 4.0;
        out.push_str(&label(M_LEFT - 4.0, baseline, true, "tick", &bar.label));
        out.push_str(&label(x + 6.0, baseline, false, "tick", &bar.value));
    }
    let foot = M_TOP + PLOT_H + 16.0;
    if rows.len() > shown.len() {
        let more = format!("… {} more row(s) not drawn", rows.len() - shown.len());
        out.push_str(&label(M_LEFT, foot, false, "tick", &more));
    }
    for (i, (name, color)) in legend.iter().enumerate() {
        out.push_str(&legend_entry(M_LEFT + 200.0 + 70.0 * i as f64, foot - 4.0, color, name));
    }
    out + "</svg>"
}

/// A heatmap: `cells[row][col]` in `0..=1` is the cell's intensity
/// (zero cells are not drawn). `y_ticks` label the first and last row,
/// `x_ticks` the first and last column.
pub fn heatmap(id: &str, cells: &[Vec<f64>], y_ticks: [&str; 2], x_ticks: [&str; 2]) -> String {
    if !cells.iter().flatten().any(|v| *v > 0.0) {
        return empty_panel(id);
    }
    let n_cols = cells[0].len();
    let (cell_w, cell_h) = (PLOT_W / n_cols as f64, PLOT_H / cells.len() as f64);
    let mut out = svg_open(id) + &frame();
    for (row, intensities) in cells.iter().enumerate() {
        for (col, &opacity) in intensities.iter().enumerate().filter(|(_, v)| **v > 0.0) {
            out.push_str(&format!(
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#2563eb" fill-opacity="{:.2}"/>"##,
                M_LEFT + col as f64 * cell_w,
                M_TOP + row as f64 * cell_h,
                cell_w.max(1.0),
                cell_h.max(1.0),
                opacity.min(1.0),
            ));
        }
    }
    out.push_str(&axis_ticks(y_ticks, x_ticks));
    out + "</svg>"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Report {
        let mut report = Report::new("a <demo>");
        report.note("two rows follow");
        report.warn("skipped 1 malformed line(s)");
        report.ascii("\ncaption:\n");
        report.panel("Chart", bars("demo-bars", &[], &[]));
        report.table(
            "Demo table",
            vec![Col::left("name", 6).pad(2), Col::right("n", 4), Col::left("note", 0).pad(1)],
            vec![
                vec!["a".into(), "1".into(), "x < y".into()],
                vec!["overflowing".into(), "12345".into(), "—".into()],
            ],
        );
        report
    }

    #[test]
    fn text_lays_cells_out_by_column_and_skips_panels() {
        assert_eq!(
            demo().text(),
            "two rows follow\nskipped 1 malformed line(s)\n\ncaption:\n  name      n  note\n  \
             a         1  x < y\n  overflowing 12345  —\n"
        );
    }

    #[test]
    fn html_is_one_escaped_self_contained_page_without_the_ascii() {
        let html = demo().html();
        assert!(html.contains("<title>a &lt;demo&gt;</title>"), "{html}");
        assert!(html.contains("<p class=\"warn\">skipped 1 malformed line(s)</p>"), "{html}");
        assert!(html.contains("<section><h2>Chart</h2><svg id=\"demo-bars\""), "{html}");
        assert!(html.contains("<h2>Demo table</h2><table><thead><tr><th>name</th>"), "{html}");
        assert!(html.contains("<td>x &lt; y</td>"), "{html}");
        assert!(!html.contains("caption:"), "{html}");
        for needle in ["<script", "<link", "src=", "https://"] {
            assert!(!html.contains(needle), "external reference via {needle}");
        }
    }

    #[test]
    fn charts_without_data_share_one_placeholder() {
        let flat = Series { label: "l".into(), color: "#000", points: vec![], markers: true };
        for svg in [
            lines("a", &[flat], fmt_tick, fmt_tick),
            bars(
                "a",
                &[Bar { label: "r".into(), segments: vec![(0.0, "#000")], value: "0".into() }],
                &[],
            ),
            heatmap("a", &[], ["", ""], ["", ""]),
        ] {
            assert_eq!(svg, empty_panel("a"));
        }
    }

    #[test]
    fn lines_draws_band_markers_and_legend_only_when_asked() {
        let plain = Series {
            label: String::new(),
            color: "#111",
            points: vec![(0.0, 1.0, 0.0), (1.0, 3.0, 0.0), (2.0, f64::NAN, 0.0)],
            markers: false,
        };
        let svg = lines("p", std::slice::from_ref(&plain), fmt_tick, fmt_tick);
        assert_eq!(svg.matches("<polyline").count(), 1);
        for absent in ["<polygon", "<circle", "class=\"legend\""] {
            assert!(!svg.contains(absent), "{absent} in {svg}");
        }
        let rich = Series {
            label: "mean".into(),
            points: vec![(0.0, 1.0, 0.5), (1.0, 3.0, 0.5)],
            markers: true,
            ..plain
        };
        let svg = lines("r", &[rich], |x| format!("run {x:.0}"), fmt_tick);
        assert!(svg.contains("<polygon") && svg.contains("class=\"legend\">mean<"), "{svg}");
        assert_eq!(svg.matches("<circle").count(), 2);
        // The y extent covers the band; the x labels use the caller's format.
        assert!(svg.contains(">3.50<") && svg.contains(">0.5000<"), "{svg}");
        assert!(svg.contains(">run 0<") && svg.contains(">run 1<"), "{svg}");
    }

    #[test]
    fn bars_are_capped_with_a_visible_note() {
        let rows: Vec<Bar> = (0..30)
            .map(|i| Bar {
                label: format!("row {i}"),
                segments: vec![(1.0, "#111"), (-1.0, "#222"), (2.0, "#333")],
                value: "3".into(),
            })
            .collect();
        let svg = bars("b", &rows, &[("one", "#111"), ("two", "#333")]);
        assert_eq!(svg.matches("<rect").count(), 2 * MAX_BAR_ROWS + 2, "segments + swatches");
        assert!(svg.contains("… 6 more row(s) not drawn"), "{svg}");
        assert!(svg.contains("class=\"legend\">two<"), "{svg}");
    }
}
