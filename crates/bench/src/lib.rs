//! Experiment harness for the FedL reproduction.
//!
//! One module per concern:
//!
//! * [`profile`] — paper-scale vs quick-scale experiment sizing;
//! * [`harness`] — running the (task × distribution × policy) matrix and
//!   collecting [`fedl_core::runner::RunOutcome`] series;
//! * [`report`] — CSV/JSON emission and the figure, replication and
//!   study-metric content of the reports (accuracy-at-time,
//!   time-to-accuracy, rounds-to-accuracy), as pure functions of
//!   completed cells;
//! * [`experiments`] — one entry point per paper figure (2–7), the
//!   headline table, and the ablation/extension studies (regret & fit,
//!   fairness, multi-seed replication, and the table-driven
//!   [`experiments::Study`] rows: RDCS vs independent rounding, step
//!   sizes, aggregation norm, latency oracle, bandwidth allocation,
//!   dropout), each returning one `fedl_telemetry::render::Report`;
//! * [`plot`] — terminal (ASCII) curve rendering of the figure panels;
//! * [`timing`] — the measured-iterations timer (offline replacement for
//!   criterion);
//! * [`perf`] — the `experiments bench` perf-snapshot suite
//!   (`BENCH.json`), the one way to time a kernel, and the noise-aware snapshot comparison the
//!   history gate applies (DESIGN.md row **S13**, docs/OBSERVATORY.md);
//! * [`history`] — the `experiments bench-history` longitudinal layer:
//!   `BENCH_HISTORY.jsonl` snapshot storage, the rolling-baseline
//!   (median-of-last-K) CI gate, and per-kernel trend reports with
//!   ±2σ bands (ASCII + self-contained HTML).
//!
//! The `experiments` binary is a thin CLI over [`experiments`]: its
//! command table is parsed by the one grammar in `fedl_serve::cli`.
//! Every figure and study builds one `Report`, whose text the binary
//! prints line by line through `fedl_telemetry::log_line!`, so
//! `FEDL_QUIET=1` silences it; no table is formatted by hand.
//!
//! System-inventory row **S9** in DESIGN.md §1.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod history;
pub mod perf;
pub mod plot;
pub mod profile;
pub mod report;
pub mod timing;

/// See docs/BUILD.md "Where tests live".
#[cfg(test)]
pub(crate) fn scratch_dir(test: &str) -> std::path::PathBuf {
    let binary = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("fedl-{binary}-{}-{test}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
