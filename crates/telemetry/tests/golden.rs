//! Golden text of the run-log reports over fixed hand-written JSONL
//! fixtures (no clocks): `telemetry-report`, the dashboard's client
//! table, the overlay table and the trace report must not move by a
//! byte (expected strings captured at the commit before the report
//! model was introduced).

use fedl_telemetry::{dashboard, trace, RunLog};

fn assert_golden(name: &str, actual: &str, expected: &str) {
    assert!(actual == expected, "{name} moved.\n--- expected\n{expected}\n--- actual\n{actual}");
}

fn log(text: &str) -> RunLog {
    RunLog::parse(text)
}

const FEDL: &str = include_str!("golden/run_fedl.jsonl");
const FEDAVG: &str = include_str!("golden/run_fedavg.jsonl");
const IDLE: &str = include_str!("golden/run_idle.jsonl");

#[test]
fn telemetry_report_text_is_pinned() {
    assert_golden("report", &log(FEDL).report().text(), include_str!("golden/report.txt"));
    let spanless = log(FEDAVG).report().text();
    assert_golden("report without spans", &spanless, include_str!("golden/report_spanless.txt"));
}

#[test]
fn client_table_text_is_pinned() {
    let table = dashboard::single(&log(FEDL)).text();
    assert_golden("client table", &table, include_str!("golden/clients.txt"));
    assert_eq!(
        dashboard::single(&log(IDLE)).text(),
        "skipped 1 malformed line(s)\nno select/train events in log — nothing to attribute\n"
    );
}

#[test]
fn overlay_table_text_is_pinned() {
    let runs = vec![
        ("a".to_string(), log(FEDL)),
        ("b".to_string(), log(FEDAVG)),
        ("c".to_string(), log(IDLE)),
    ];
    let table = dashboard::overlay(&runs).unwrap().text();
    assert_golden("overlay table", &table, include_str!("golden/overlay.txt"));
}

#[test]
fn trace_report_text_is_pinned() {
    let runs = vec![
        ("coord".to_string(), log(include_str!("golden/trace_coord.jsonl"))),
        ("coord.worker-0".to_string(), log(include_str!("golden/trace_worker0.jsonl"))),
        ("coord.worker-1".to_string(), log(include_str!("golden/trace_worker1.jsonl"))),
    ];
    let text = trace::report(&runs).unwrap().text();
    assert_golden("trace report", &text, include_str!("golden/trace.txt"));
    let text = trace::report(&[("run".to_string(), log(FEDL))]).unwrap().text();
    assert_golden(
        "trace report without dist spans",
        &text,
        include_str!("golden/trace_nodist.txt"),
    );
}
