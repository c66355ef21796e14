//! Golden text of the bench-history reports over a fixed hand-written
//! history file: the trend table and the gate verdict must not move by
//! a byte (expected strings captured at the commit before the report
//! model was introduced). And, over every report of the observatory and
//! every figure and study report of `experiments` (built from fake
//! cells): a table's text and HTML renderings carry the same cells.

use fedl_bench::experiments::{self, Study};
use fedl_bench::harness::{Cell, CellResult};
use fedl_bench::history::{self, BenchHistory, DEFAULT_BASELINE_WINDOW};
use fedl_bench::perf::BenchSnapshot;
use fedl_bench::profile::Profile;
use fedl_bench::report;
use fedl_core::policy::PolicyKind;
use fedl_core::runner::{EpochRecord, RunOutcome};
use fedl_data::synth::TaskKind;
use fedl_telemetry::{dashboard, trace, Report, RunLog};

const HISTORY: &str = include_str!("golden/history.jsonl");

fn assert_golden(name: &str, actual: &str, expected: &str) {
    assert!(actual == expected, "{name} moved.\n--- expected\n{expected}\n--- actual\n{actual}");
}

#[test]
fn trend_table_text_is_pinned() {
    let table = history::trend(&BenchHistory::parse(HISTORY), DEFAULT_BASELINE_WINDOW).text();
    assert_golden("trend table", &table, include_str!("golden/trend.txt"));
    let empty = history::trend(&BenchHistory::parse("torn\n"), DEFAULT_BASELINE_WINDOW).text();
    assert_eq!(
        empty,
        "skipped 1 malformed history line(s)\nhistory holds no entries — nothing to report\n"
    );
}

#[test]
fn gate_text_is_pinned() {
    // Gate the fixture's newest entry against the entries before it.
    // The gate keys its baseline on this machine's fingerprint, so the
    // fixture's fingerprint is rewritten to the one the snapshot gets
    // here, and back again in the rendered text.
    let (before, newest_line) = HISTORY.trim_end().rsplit_once('\n').unwrap();
    let newest: BenchSnapshot = BenchHistory::parse(newest_line).entries()[0].snapshot.clone();
    let here = history::fingerprint_of(&newest);
    let local = BenchHistory::parse(&before.replace("testos-x86_64/t2/quick/bench-v4", &here));
    let report = history::gate(&local, &newest, DEFAULT_BASELINE_WINDOW, 0.25);
    assert!(!report.passes(), "gemm doubled against the median");
    let text = report.report().text().replace(&here, "testos-x86_64/t2/quick/bench-v4");
    assert_golden("gate report", &text, include_str!("golden/gate.txt"));
}

/// The cells between `<tag>` and `</tag>`, in order.
fn cells<'a>(html: &'a str, tag: &str) -> Vec<&'a str> {
    let (open, close) = (format!("<{tag}>"), format!("</{tag}>"));
    html.split(&open).skip(1).map(|rest| rest.split(&close).next().unwrap()).collect()
}

/// A completed cell whose run reached `(sim_time, accuracy)` epoch by
/// epoch.
fn fake(
    task: TaskKind,
    iid: bool,
    policy: PolicyKind,
    budget: f64,
    curve: &[(f64, f64)],
) -> CellResult {
    let epochs = curve
        .iter()
        .enumerate()
        .map(|(i, &(t, acc))| EpochRecord {
            epoch: i,
            cohort_size: 3 + i % 2,
            iterations: 2,
            sim_time: t,
            spent: t * 10.0,
            accuracy: acc,
            test_loss: 1.0 - acc,
            global_loss: 1.0 - acc,
        })
        .collect();
    CellResult {
        cell: Cell { task, iid, policy, budget },
        outcome: RunOutcome { policy: policy.label().into(), budget, epochs },
    }
}

/// The figure, headline, replication and study reports over fake cells.
fn experiment_reports() -> Vec<Report> {
    let curve = |scale: f64| [(1.0, 0.2 * scale), (2.0, 0.5 * scale), (4.0, 0.75 * scale)];
    let mut cells = Vec::new();
    for task in [TaskKind::FmnistLike, TaskKind::CifarLike] {
        for iid in [true, false] {
            for (i, policy) in PolicyKind::ALL.into_iter().enumerate() {
                cells.push(fake(task, iid, policy, 100.0, &curve(1.0 - 0.1 * i as f64)));
            }
        }
    }
    let mut figures = Report::new("figures");
    for panel in cells.chunks(PolicyKind::ALL.len()) {
        let (task, iid) = (panel[0].cell.task, panel[0].cell.iid);
        report::time_and_round(&mut figures, task, iid, panel);
        let swept: Vec<CellResult> = [100.0, 200.0]
            .into_iter()
            .flat_map(|b| {
                panel.iter().map(move |c| CellResult {
                    cell: Cell { budget: b, ..c.cell.clone() },
                    ..c.clone()
                })
            })
            .collect();
        report::budget(&mut figures, task, iid, &swept[1..], &[100.0, 200.0]);
    }
    let out = std::env::temp_dir().join("fedl_bench_golden_headline");
    figures.blocks.extend(experiments::headline_from(&cells, &out).blocks);
    std::fs::remove_dir_all(&out).ok();
    report::replication(&mut figures, 1, 0.6, &cells[..4]);
    let studies: [&Study; 6] = [
        &experiments::ROUNDING,
        &experiments::STEPSIZE,
        &experiments::AGGREGATION,
        &experiments::ORACLE,
        &experiments::BANDWIDTH,
        &experiments::DROPOUT,
    ];
    let base = Profile::Quick.scenario(TaskKind::FmnistLike, true, 100.0, 1);
    let mut reports = vec![figures];
    for study in studies {
        let rows: Vec<(Vec<String>, RunOutcome)> = (study.cells)(base.clone())
            .into_iter()
            .zip(&cells)
            .map(|((labels, ..), cell)| (labels, cell.outcome.clone()))
            .collect();
        reports.push(study.report(&rows));
    }
    reports
}

#[test]
fn every_table_carries_the_same_cells_as_text_and_as_html() {
    let log = |text: &str| RunLog::parse(text);
    let fedl = || log(include_str!("../../telemetry/tests/golden/run_fedl.jsonl"));
    let fedavg = || log(include_str!("../../telemetry/tests/golden/run_fedavg.jsonl"));
    let runs = vec![("a".to_string(), fedl()), ("b".to_string(), fedavg())];
    let traces = vec![
        ("coord".to_string(), log(include_str!("../../telemetry/tests/golden/trace_coord.jsonl"))),
        ("w0".to_string(), log(include_str!("../../telemetry/tests/golden/trace_worker0.jsonl"))),
        ("w1".to_string(), log(include_str!("../../telemetry/tests/golden/trace_worker1.jsonl"))),
    ];
    let history = BenchHistory::parse(HISTORY);
    let newest = history.entries().last().unwrap().snapshot.clone();
    let mut comparable = history.entries()[0].clone();
    comparable.fingerprint = history::fingerprint_of(&newest);
    let baseline = BenchHistory::parse(&(fedl_json::ToJson::to_json_value(&comparable).to_json()));
    let mut reports: Vec<Report> = vec![
        fedl().report(),
        dashboard::single(&fedl()),
        dashboard::overlay(&runs).unwrap(),
        trace::report(&traces).unwrap(),
        history::trend(&history, DEFAULT_BASELINE_WINDOW),
        history::gate(&baseline, &newest, DEFAULT_BASELINE_WINDOW, 0.25).report(),
    ];
    reports.extend(experiment_reports());
    let squash = |cells: &mut dyn Iterator<Item = &str>| -> String {
        cells.flat_map(str::split_whitespace).collect()
    };
    let mut tables = 0;
    for report in &reports {
        for table in report.tables() {
            tables += 1;
            let (text, html) = (table.text(), table.html());
            assert!(
                report.text().contains(&text) && report.html().contains(&html),
                "{}",
                table.title
            );
            // HTML: exactly the model's cells, in order.
            let heads: Vec<&str> = table.cols.iter().map(|c| c.head.as_str()).collect();
            assert_eq!(cells(&html, "th"), heads, "{}", table.title);
            let flat: Vec<&str> = table.rows.iter().flatten().map(String::as_str).collect();
            assert_eq!(cells(&html, "td"), flat, "{}", table.title);
            // Text: the same cells, row by row, only spaced out.
            let mut expected: Vec<String> =
                table.rows.iter().map(|r| squash(&mut r.iter().map(String::as_str))).collect();
            if heads.iter().any(|h| !h.is_empty()) {
                expected.insert(0, squash(&mut heads.iter().copied()));
            }
            let lines: Vec<String> =
                text.lines().map(|l| squash(&mut std::iter::once(l))).collect();
            assert_eq!(lines, expected, "{}", table.title);
        }
    }
    assert_eq!(
        tables,
        8 + 4 * 3 + 1 + 6,
        "kinds + phases, clients, overlay, critical path, 2 trend groups, gate; \
         time, round and budget per figure panel, replication, six studies"
    );
}
