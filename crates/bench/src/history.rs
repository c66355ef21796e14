//! Benchmark history: longitudinal storage of `BENCH.json` snapshots
//! plus the rolling-baseline regression gate and trend reports
//! (`experiments bench-history`, DESIGN.md row **S13**, schema in
//! docs/OBSERVATORY.md).
//!
//! Where [`crate::perf::compare`] gates one snapshot against one other
//! snapshot, this module maintains `BENCH_HISTORY.jsonl` — one
//! [`HistoryEntry`] per line, each carrying a machine/config
//! fingerprint and the commit it was measured at — and gates a new
//! snapshot against the **median of the last K compatible entries**,
//! so CI fails on drift, not on single-pair luck. Parsing is lenient
//! like `RunLog`: malformed lines are skipped and counted, and an
//! empty or fully corrupt history degrades to "no baseline, gate
//! passes with a warning".

use std::io;
use std::path::Path;

use fedl_json::{parse_lines, FromJson, ToJson};
use fedl_telemetry::render::{self, Block, Col, Report, Series};

use crate::perf::{self, BenchSnapshot, CompareReport, KernelStats};
use crate::timing;

/// Version of the `BENCH_HISTORY.jsonl` entry envelope. Entries of
/// other versions still parse (the file stays readable) but are never
/// folded into a rolling baseline.
pub const HISTORY_SCHEMA_VERSION: u32 = 1;

/// Default `K` for the rolling baseline: the median of the last 5
/// compatible entries.
pub const DEFAULT_BASELINE_WINDOW: usize = 5;

/// The gate's relative slowdown tolerance: 25 % — generous because the
/// CI gate compares quick runs taken seconds apart on a shared machine.
pub const DEFAULT_COMPARE_THRESHOLD: f64 = 0.25;

/// Default `--history` file for the `bench-history` actions. Lives
/// under `results/` so the standard `.gitignore` globs cover it.
pub const DEFAULT_HISTORY_PATH: &str = "results/BENCH_HISTORY.jsonl";

/// One line of `BENCH_HISTORY.jsonl`: a perf snapshot plus the context
/// needed to decide which other entries it may be compared against.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// [`HISTORY_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Machine/config fingerprint ([`fingerprint_of`]); only entries
    /// with identical fingerprints are comparable.
    pub fingerprint: String,
    /// Commit the snapshot was measured at (`FEDL_COMMIT`, else
    /// `git rev-parse`, else `"unknown"`) — provenance, never gated on.
    pub commit: String,
    /// The snapshot itself.
    pub snapshot: BenchSnapshot,
}

impl HistoryEntry {
    /// Wraps a freshly measured snapshot with this machine's
    /// fingerprint and the current commit.
    pub fn capture(snapshot: BenchSnapshot) -> Self {
        Self {
            schema_version: HISTORY_SCHEMA_VERSION,
            fingerprint: fingerprint_of(&snapshot),
            commit: current_commit(),
            snapshot,
        }
    }
}

fedl_json::record!(HistoryEntry { schema_version, fingerprint, commit, snapshot });

/// The comparability fingerprint of a snapshot: OS, architecture,
/// hardware parallelism, suite profile, and the `BENCH.json` schema
/// version. Two snapshots with different fingerprints were measured
/// under different conditions and must never be folded into one
/// baseline.
pub fn fingerprint_of(snap: &BenchSnapshot) -> String {
    format!(
        "{}-{}/t{}/{}/bench-v{}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        snap.threads,
        snap.profile,
        snap.schema_version
    )
}

/// Best-effort commit id: `FEDL_COMMIT` when set (CI), else a short
/// `git rev-parse HEAD`, else `"unknown"`. Provenance only — nothing
/// gates on it.
fn current_commit() -> String {
    if let Ok(c) = std::env::var("FEDL_COMMIT") {
        let c = c.trim().to_string();
        if !c.is_empty() {
            return c;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A parsed `BENCH_HISTORY.jsonl` file.
#[derive(Debug, Clone)]
pub struct BenchHistory {
    entries: Vec<HistoryEntry>,
    skipped: usize,
}

/// The rolling baseline [`BenchHistory::rolling_baseline`] derives:
/// a synthetic snapshot whose per-kernel statistics are the medians
/// over the window entries.
#[derive(Debug, Clone)]
pub struct RollingBaseline {
    /// The synthetic median snapshot.
    pub snapshot: BenchSnapshot,
    /// How many history entries the medians were taken over (≤ K).
    pub entries: usize,
}

impl BenchHistory {
    /// An empty history (no file yet — first `append` creates it).
    pub fn empty() -> Self {
        Self { entries: Vec::new(), skipped: 0 }
    }

    /// Parses JSONL text: one [`HistoryEntry`] per non-blank line.
    /// Malformed lines — a truncated tail, a hand-edited typo — are
    /// skipped and counted by the same reader as `RunLog`'s.
    pub fn parse(text: &str) -> Self {
        let mut entries = Vec::new();
        let skipped = parse_lines(text, |v| {
            entries.push(HistoryEntry::from_json_value(v)?);
            Ok(())
        });
        Self { entries, skipped }
    }

    /// Reads a history file; a file that does not exist yet is an
    /// empty history, not an error.
    pub fn load(path: &Path) -> io::Result<Self> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Self::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::empty()),
            Err(e) => Err(e),
        }
    }

    /// Appends one entry as a single JSONL line (creating parent
    /// directories and the file itself as needed).
    pub fn append(path: &Path, entry: &HistoryEntry) -> io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{}", entry.to_json_value().to_json())
    }

    /// The parsed entries, oldest first (file order).
    pub fn entries(&self) -> &[HistoryEntry] {
        &self.entries
    }

    /// Number of malformed lines [`BenchHistory::parse`] skipped.
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// The entries comparable to `fingerprint` (same fingerprint, same
    /// envelope version), oldest first.
    pub fn compatible(&self, fingerprint: &str) -> Vec<&HistoryEntry> {
        self.entries
            .iter()
            .filter(|e| e.schema_version == HISTORY_SCHEMA_VERSION && e.fingerprint == fingerprint)
            .collect()
    }

    /// The rolling baseline for `fingerprint`: per-kernel medians over
    /// the last `window` compatible entries. `None` when no compatible
    /// entry exists (a fresh machine, a bumped schema, an empty file).
    pub fn rolling_baseline(&self, fingerprint: &str, window: usize) -> Option<RollingBaseline> {
        let compatible = self.compatible(fingerprint);
        if compatible.is_empty() || window == 0 {
            return None;
        }
        let tail: Vec<&HistoryEntry> =
            compatible.iter().rev().take(window).rev().copied().collect();
        let newest = tail.last().expect("tail is non-empty");
        // Kernel order: the newest entry's order, then any name only
        // older window entries know about.
        let mut names: Vec<String> =
            newest.snapshot.kernels.iter().map(|k| k.name.clone()).collect();
        for e in &tail {
            for k in &e.snapshot.kernels {
                if !names.contains(&k.name) {
                    names.push(k.name.clone());
                }
            }
        }
        let kernels = names
            .iter()
            .map(|name| {
                let series: Vec<&KernelStats> =
                    tail.iter().filter_map(|e| e.snapshot.kernel(name)).collect();
                KernelStats {
                    name: name.clone(),
                    mean_ns: median(series.iter().map(|k| k.mean_ns)),
                    std_ns: median(series.iter().map(|k| k.std_ns)),
                    min_ns: median(series.iter().map(|k| k.min_ns)),
                    iters: median(series.iter().map(|k| k.iters as f64)).round() as u64,
                    samples: median(series.iter().map(|k| k.samples as f64)).round() as usize,
                }
            })
            .collect();
        Some(RollingBaseline {
            snapshot: BenchSnapshot {
                schema_version: newest.snapshot.schema_version,
                profile: newest.snapshot.profile.clone(),
                threads: newest.snapshot.threads,
                kernels,
            },
            entries: tail.len(),
        })
    }
}

/// Median of a (possibly empty) series; even counts average the two
/// middle values.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The result of gating one snapshot against the rolling baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Fingerprint of the gated snapshot.
    pub fingerprint: String,
    /// How many history entries formed the baseline (0 = no baseline).
    pub baseline_entries: usize,
    /// The per-kernel comparison, absent when no baseline existed.
    pub compare: Option<CompareReport>,
    /// Degradations that did not fail the gate (empty history,
    /// skipped lines, fingerprint mismatches).
    pub warnings: Vec<String>,
}

impl GateReport {
    /// `true` when CI should pass: no baseline at all, or a comparison
    /// with no regressed kernel.
    pub fn passes(&self) -> bool {
        self.compare.as_ref().is_none_or(|c| !c.has_regression())
    }

    /// The `bench-history gate` report: warnings, then the per-kernel
    /// comparison table.
    pub fn report(&self) -> Report {
        let mut report = Report::new("FedL bench gate");
        for w in &self.warnings {
            report.note(format!("warning: {w}"));
        }
        match &self.compare {
            None => report.note(format!(
                "no baseline for fingerprint {} — gate passes with warning",
                self.fingerprint
            )),
            Some(c) => {
                report.note(format!(
                    "rolling baseline: median of {} for {}",
                    entries(self.baseline_entries),
                    self.fingerprint
                ));
                report.blocks.push(Block::Table(c.table()));
            }
        }
        report
    }
}

/// `1 entry` / `N entries`.
fn entries(n: usize) -> String {
    format!("{n} entr{}", if n == 1 { "y" } else { "ies" })
}

/// Gates `new` against the rolling baseline of its fingerprint:
/// median of the last `window` compatible entries, compared with the
/// noise-aware rule of [`perf::compare`] (regression ⇔ mean slowdown
/// beyond `threshold` *and* disjoint mean±2σ bands). No compatible
/// history — empty file,
/// corrupt file, new machine, bumped schema — passes with a warning:
/// a gate that fails on its own cold start would just be deleted.
pub fn gate(
    history: &BenchHistory,
    new: &BenchSnapshot,
    window: usize,
    threshold: f64,
) -> GateReport {
    let fingerprint = fingerprint_of(new);
    let mut warnings = Vec::new();
    if history.skipped_lines() > 0 {
        warnings.push(format!("skipped {} malformed history line(s)", history.skipped_lines()));
    }
    if history.entries.is_empty() {
        warnings.push("history holds no entries".to_string());
    } else if history.compatible(&fingerprint).is_empty() {
        warnings.push(format!(
            "history holds {} but none matches fingerprint {fingerprint}",
            entries(history.entries.len()),
        ));
    }
    let Some(baseline) = history.rolling_baseline(&fingerprint, window) else {
        return GateReport { fingerprint, baseline_entries: 0, compare: None, warnings };
    };
    match perf::compare(&baseline.snapshot, new, threshold) {
        Ok(compare) => GateReport {
            fingerprint,
            baseline_entries: baseline.entries,
            compare: Some(compare),
            warnings,
        },
        Err(e) => {
            // Unreachable in practice (the fingerprint pins the schema
            // version), but a broken comparison must degrade, not gate.
            warnings.push(format!("baseline comparison failed: {e}"));
            GateReport { fingerprint, baseline_entries: 0, compare: None, warnings }
        }
    }
}

// ── trend report ────────────────────────────────────────────────────

fn sanitize_id(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect()
}

/// Groups history entries by fingerprint, preserving first-appearance
/// order; within a group entries stay oldest-first.
fn fingerprint_groups(history: &BenchHistory) -> Vec<(String, Vec<&HistoryEntry>)> {
    let mut groups: Vec<(String, Vec<&HistoryEntry>)> = Vec::new();
    for e in history.entries() {
        match groups.iter_mut().find(|(fp, _)| *fp == e.fingerprint) {
            Some((_, v)) => v.push(e),
            None => groups.push((e.fingerprint.clone(), vec![e])),
        }
    }
    groups
}

/// The `bench-history report` report. Per fingerprint group: the trend
/// table — one row per kernel with first/last/median means and the
/// drift ratio of the newest entry against the `window` median — and
/// one panel per kernel of the newest entry (`id="trend-<kernel>"`, or
/// `trend-g<i>-<kernel>` when several fingerprints share the file)
/// charting the mean over runs with its ±2σ noise band.
pub fn trend(history: &BenchHistory, window: usize) -> Report {
    let mut report = Report::new("FedL bench history");
    if history.skipped_lines() > 0 {
        report.warn(format!("skipped {} malformed history line(s)", history.skipped_lines()));
    }
    let groups = fingerprint_groups(history);
    if groups.is_empty() {
        report.note("history holds no entries — nothing to report");
    }
    for (gi, (fp, group)) in groups.iter().enumerate() {
        let commits: Vec<&str> = group.iter().map(|e| e.commit.as_str()).collect();
        let title = format!("{fp} — {} ({})", entries(group.len()), commits.join(" → "));
        report.ascii(format!("── {title} ──\n"));
        let newest = group.last().expect("group is non-empty");
        let mut names: Vec<&str> =
            newest.snapshot.kernels.iter().map(|k| k.name.as_str()).collect();
        for k in group.iter().flat_map(|e| &e.snapshot.kernels) {
            if !names.contains(&k.name.as_str()) {
                names.push(&k.name);
            }
        }
        let rows = names
            .iter()
            .map(|name| {
                let series: Vec<&KernelStats> =
                    group.iter().filter_map(|e| e.snapshot.kernel(name)).collect();
                let tail_median =
                    median(series.iter().rev().take(window.max(1)).map(|k| k.mean_ns));
                let first = series.first().expect("kernel appears at least once");
                let last = series.last().expect("kernel appears at least once");
                vec![
                    name.to_string(),
                    series.len().to_string(),
                    timing::fmt_ns(first.mean_ns),
                    timing::fmt_ns(last.mean_ns),
                    timing::fmt_ns(tail_median),
                    if tail_median > 0.0 {
                        format!("{:.2}×", last.mean_ns / tail_median)
                    } else {
                        "—".to_string()
                    },
                ]
            })
            .collect();
        let mut cols = vec![Col::left("kernel", 34), Col::right("runs", 5)];
        cols.extend(["first", "last", "median(K)", "last/median"].map(|h| Col::right(h, 12)));
        report.table(&title, cols, rows);
        for kernel in &newest.snapshot.kernels {
            let points = group
                .iter()
                .enumerate()
                .map(|(run, e)| match e.snapshot.kernel(&kernel.name) {
                    Some(k) => (run as f64, k.mean_ns, 2.0 * k.std_ns),
                    None => (run as f64, f64::NAN, f64::NAN),
                })
                .collect();
            let series = [Series { label: String::new(), color: "#2563eb", points, markers: true }];
            let group_tag = if groups.len() > 1 { format!("g{gi}-") } else { String::new() };
            let id = format!("trend-{group_tag}{}", sanitize_id(&kernel.name));
            let svg = render::lines(&id, &series, |run| format!("run {run:.0}"), timing::fmt_ns);
            report.panel(&*kernel.name, svg);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::BENCH_SCHEMA_VERSION;
    use fedl_json::Value;

    fn stats(name: &str, mean: f64, std: f64) -> KernelStats {
        KernelStats {
            name: name.to_string(),
            mean_ns: mean,
            std_ns: std,
            min_ns: mean - std,
            iters: 100,
            samples: 5,
        }
    }

    fn snapshot(kernels: Vec<KernelStats>) -> BenchSnapshot {
        BenchSnapshot {
            schema_version: BENCH_SCHEMA_VERSION,
            profile: "quick".to_string(),
            threads: 4,
            kernels,
        }
    }

    fn entry(mean: f64, std: f64) -> HistoryEntry {
        HistoryEntry {
            schema_version: HISTORY_SCHEMA_VERSION,
            fingerprint: fingerprint_of(&snapshot(vec![])),
            commit: "abc123".to_string(),
            snapshot: snapshot(vec![stats("a", mean, std)]),
        }
    }

    fn history_of(entries: Vec<HistoryEntry>) -> BenchHistory {
        let text: String = entries.iter().map(|e| e.to_json_value().to_json() + "\n").collect();
        BenchHistory::parse(&text)
    }

    #[test]
    fn entry_json_round_trips() {
        let e = HistoryEntry::capture(snapshot(vec![stats("a", 1000.0, 10.0)]));
        assert_eq!(e.schema_version, HISTORY_SCHEMA_VERSION);
        assert!(e.fingerprint.contains("quick"));
        let back = HistoryEntry::from_json_value(&e.to_json_value()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn a_schema_version_past_u32_is_skipped_not_wrapped_into_the_baseline() {
        // 2^32 + v once read as v: a line from no writer of this schema
        // joined the gate's baseline. Outer and inner versions alike.
        let good = entry(1000.0, 10.0);
        let wrapped = |mut line: Value, path: &[&str]| {
            let mut at = &mut line;
            for key in path {
                let Value::Obj(pairs) = at else { panic!("{key}'s parent is an object") };
                at = &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1;
            }
            let version = at.as_i64().unwrap();
            *at = Value::Int((1 << 32) + version);
            line.to_json() + "\n"
        };
        let bad = entry(9_000_000.0, 10.0).to_json_value();
        let text = wrapped(bad.clone(), &["schema_version"])
            + &wrapped(bad, &["snapshot", "schema_version"])
            + &good.to_json_value().to_json();
        let history = BenchHistory::parse(&text);
        assert_eq!((history.entries(), history.skipped_lines()), (&[good.clone()][..], 2));
        let baseline = history.rolling_baseline(&good.fingerprint, 5).unwrap();
        assert_eq!((baseline.entries, baseline.snapshot.kernels[0].mean_ns), (1, 1000.0));
    }

    #[test]
    fn append_and_load_round_trip_with_lenient_parsing() {
        let dir = crate::scratch_dir("history_round_trip");
        let path = dir.join("BENCH_HISTORY.jsonl");
        // Missing file loads as empty.
        let empty = BenchHistory::load(&path).unwrap();
        assert!(empty.entries().is_empty());
        assert_eq!(empty.skipped_lines(), 0);
        BenchHistory::append(&path, &entry(1000.0, 10.0)).unwrap();
        BenchHistory::append(&path, &entry(1010.0, 10.0)).unwrap();
        // A corrupt tail (killed writer) must not poison the file.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"schema_version\":1,\"trunc").unwrap();
        drop(f);
        let loaded = BenchHistory::load(&path).unwrap();
        assert_eq!(loaded.entries().len(), 2);
        assert_eq!(loaded.skipped_lines(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rolling_baseline_is_the_windowed_median() {
        // Five entries, kernel means 1000, 1100, 1200, 1300, 9000.
        // Window 3 → median of (1200, 1300, 9000) = 1300.
        let h = history_of(vec![
            entry(1000.0, 10.0),
            entry(1100.0, 10.0),
            entry(1200.0, 10.0),
            entry(1300.0, 10.0),
            entry(9000.0, 10.0),
        ]);
        let fp = fingerprint_of(&snapshot(vec![]));
        let b = h.rolling_baseline(&fp, 3).unwrap();
        assert_eq!(b.entries, 3);
        assert_eq!(b.snapshot.kernel("a").unwrap().mean_ns, 1300.0);
        // Window larger than the history uses everything (median 1200).
        let b = h.rolling_baseline(&fp, 50).unwrap();
        assert_eq!(b.entries, 5);
        assert_eq!(b.snapshot.kernel("a").unwrap().mean_ns, 1200.0);
        // Even window: the two middle values average.
        let b = h.rolling_baseline(&fp, 4).unwrap();
        assert_eq!(b.snapshot.kernel("a").unwrap().mean_ns, 1250.0);
    }

    #[test]
    fn gate_fails_on_a_regressed_snapshot_and_passes_on_a_clean_one() {
        let h = history_of(vec![entry(1000.0, 10.0), entry(1010.0, 10.0), entry(990.0, 10.0)]);
        // Clean: within noise of the 1000 median.
        let clean = snapshot(vec![stats("a", 1005.0, 10.0)]);
        let report = gate(&h, &clean, DEFAULT_BASELINE_WINDOW, 0.25);
        assert!(report.passes(), "{}", report.report().text());
        assert_eq!(report.baseline_entries, 3);
        // Regressed: mean inflated 2× with tight bands — both the
        // threshold and the band-separation condition trip.
        let regressed = snapshot(vec![stats("a", 2000.0, 10.0)]);
        let report = gate(&h, &regressed, DEFAULT_BASELINE_WINDOW, 0.25);
        assert!(!report.passes());
        assert!(report.report().text().contains("REGRESSED"));
    }

    #[test]
    fn gate_outlier_robustness_vs_single_pair() {
        // One noisy outlier run in the history must not poison the
        // baseline: the median shrugs it off where a previous-run
        // pairwise gate would have compared against 5000.
        let h = history_of(vec![entry(1000.0, 10.0), entry(1005.0, 10.0), entry(5000.0, 10.0)]);
        let new = snapshot(vec![stats("a", 1002.0, 10.0)]);
        let report = gate(&h, &new, DEFAULT_BASELINE_WINDOW, 0.25);
        assert!(report.passes());
        let b = h.rolling_baseline(&fingerprint_of(&new), DEFAULT_BASELINE_WINDOW).unwrap();
        assert_eq!(b.snapshot.kernel("a").unwrap().mean_ns, 1005.0);
    }

    #[test]
    fn empty_or_corrupt_history_passes_with_warning() {
        let new = snapshot(vec![stats("a", 1000.0, 10.0)]);
        // Empty.
        let report = gate(&BenchHistory::empty(), &new, 5, 0.25);
        assert!(report.passes());
        assert!(report.compare.is_none());
        assert!(report.report().text().contains("gate passes with warning"));
        // Fully corrupt: every line skipped.
        let corrupt = BenchHistory::parse("not json\n{\"half\":\n");
        assert_eq!(corrupt.skipped_lines(), 2);
        let report = gate(&corrupt, &new, 5, 0.25);
        assert!(report.passes());
        assert!(report.report().text().contains("malformed history line"));
    }

    #[test]
    fn mismatched_fingerprints_never_form_a_baseline() {
        let mut alien = entry(10.0, 1.0);
        alien.fingerprint = "otheros-arm/t96/quick/bench-v1".to_string();
        let h = history_of(vec![alien]);
        // New snapshot is 100× the alien entry — but they are not
        // comparable, so the gate passes with a warning instead.
        let new = snapshot(vec![stats("a", 1000.0, 10.0)]);
        let report = gate(&h, &new, 5, 0.25);
        assert!(report.passes());
        assert!(report.report().text().contains("none matches fingerprint"));
    }

    #[test]
    fn entries_of_other_envelope_versions_are_kept_but_not_gated() {
        let mut future = entry(1000.0, 10.0);
        future.schema_version = HISTORY_SCHEMA_VERSION + 1;
        let h = history_of(vec![future]);
        assert_eq!(h.entries().len(), 1, "still readable");
        let new = snapshot(vec![stats("a", 9000.0, 10.0)]);
        assert!(gate(&h, &new, 5, 0.25).passes(), "never folded into a baseline");
    }

    #[test]
    fn trend_table_reports_per_kernel_drift() {
        let h = history_of(vec![entry(1000.0, 10.0), entry(2000.0, 10.0)]);
        let table = trend(&h, DEFAULT_BASELINE_WINDOW).text();
        assert!(table.contains("kernel"));
        assert!(table.contains('a'));
        assert!(table.contains("abc123 → abc123"), "commit provenance: {table}");
        assert!(table.contains("1.33×"), "2000/median(1500): {table}");
        // Empty history renders an explanation, not a panic.
        assert!(trend(&BenchHistory::empty(), 5).text().contains("nothing to report"));
    }

    #[test]
    fn trend_html_charts_every_kernel_with_stable_ids() {
        let mk = |m: f64| HistoryEntry {
            schema_version: HISTORY_SCHEMA_VERSION,
            fingerprint: fingerprint_of(&snapshot(vec![])),
            commit: "c".to_string(),
            snapshot: snapshot(vec![
                stats("gemm/square_48", m, 20.0),
                stats("core/decide_observe_64", m / 2.0, 5.0),
            ]),
        };
        let h = history_of(vec![mk(1000.0), mk(1100.0), mk(1050.0)]);
        let html = trend(&h, DEFAULT_BASELINE_WINDOW).html();
        assert!(html.contains("<svg id=\"trend-gemm-square-48\""));
        assert!(html.contains("<svg id=\"trend-core-decide-observe-64\""));
        assert!(html.contains("polygon"), "±2σ band present");
        assert!(html.contains("polyline"), "trend line present");
        // Self-contained: no scripts or external assets.
        for needle in ["<script", "<link", "src="] {
            assert!(!html.contains(needle), "external reference via {needle}");
        }
        // Two fingerprints in one file get distinct chart id prefixes.
        let mut other = mk(500.0);
        other.fingerprint = "elsewhere/t8/quick/bench-v1".to_string();
        let mixed = history_of(vec![mk(1000.0), other]);
        let html = trend(&mixed, DEFAULT_BASELINE_WINDOW).html();
        assert!(html.contains("<svg id=\"trend-g0-gemm-square-48\""));
        assert!(html.contains("<svg id=\"trend-g1-gemm-square-48\""));
    }
}
