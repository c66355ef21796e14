//! Golden text of the bench-history reports over a fixed hand-written
//! history file: the trend table and the gate verdict must not move by
//! a byte (expected strings captured at the commit before the report
//! model was introduced).

use fedl_bench::history::{self, BenchHistory, DEFAULT_BASELINE_WINDOW};
use fedl_bench::perf::BenchSnapshot;

const HISTORY: &str = include_str!("golden/history.jsonl");

fn assert_golden(name: &str, actual: &str, expected: &str) {
    assert!(actual == expected, "{name} moved.\n--- expected\n{expected}\n--- actual\n{actual}");
}

#[test]
fn trend_table_text_is_pinned() {
    let table = history::render_trend_table(&BenchHistory::parse(HISTORY), DEFAULT_BASELINE_WINDOW);
    assert_golden("trend table", &table, include_str!("golden/trend.txt"));
    let empty =
        history::render_trend_table(&BenchHistory::parse("torn\n"), DEFAULT_BASELINE_WINDOW);
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
    let text = report.render().replace(&here, "testos-x86_64/t2/quick/bench-v4");
    assert_golden("gate report", &text, include_str!("golden/gate.txt"));
}
