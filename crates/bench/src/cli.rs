//! Argument parsing for the `experiments` binary, kept in the library
//! so it is unit-testable.

use std::path::PathBuf;

use crate::profile::Profile;

/// The experiments the CLI can dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Figs. 2 & 4 (FMNIST time/round panels).
    FigFmnist,
    /// Figs. 3 & 5 (CIFAR time/round panels).
    FigCifar,
    /// Fig. 6 (FMNIST budget sweep).
    Fig6,
    /// Fig. 7 (CIFAR budget sweep).
    Fig7,
    /// §6.2 headline table.
    Headline,
    /// Corollary-1 regret/fit validation.
    Regret,
    /// RDCS vs independent rounding.
    Rounding,
    /// Step-size schedule ablation.
    Stepsize,
    /// Aggregation-normalization ablation.
    Aggregation,
    /// 1-lookahead latency-oracle reference.
    Oracle,
    /// Selection-fairness extension study.
    Fairness,
    /// FDMA bandwidth-allocation extension study.
    Bandwidth,
    /// Mid-epoch dropout robustness study.
    Dropout,
    /// Multi-seed replication of the Fig. 2 comparison.
    Replicate,
    /// Everything above.
    All,
    /// Offline analysis of a telemetry JSONL run log.
    TelemetryReport,
    /// Perf snapshot: run the seeded kernel suite, write `BENCH.json`.
    Bench,
    /// Append a `BENCH.json` snapshot to `BENCH_HISTORY.jsonl`.
    BenchHistoryAppend,
    /// Per-kernel trend tables/charts over the snapshot history.
    BenchHistoryReport,
    /// Gate a snapshot against the rolling baseline (median of the
    /// last K compatible history entries).
    BenchHistoryGate,
    /// Per-client attribution dashboard (ASCII + optional HTML) from a
    /// telemetry JSONL run log; two or more logs switch to the
    /// multi-run policy-overlay mode.
    Dashboard,
    /// Cross-process distributed-trace report (ASCII + optional HTML)
    /// merging a coordinator run log with its per-worker sibling logs
    /// into one causally-ordered timeline.
    TraceReport,
}

impl Command {
    /// Whether the result cache makes sense for this command (it only
    /// applies to experiment runs, not to offline analysis or the
    /// bench suite).
    fn takes_cache(self) -> bool {
        !matches!(
            self,
            Command::TelemetryReport
                | Command::Bench
                | Command::BenchHistoryAppend
                | Command::BenchHistoryReport
                | Command::BenchHistoryGate
                | Command::Dashboard
                | Command::TraceReport
        )
    }

    /// Whether this is one of the `bench-history` actions (which share
    /// the `--history` flag).
    fn is_bench_history(self) -> bool {
        matches!(
            self,
            Command::BenchHistoryAppend | Command::BenchHistoryReport | Command::BenchHistoryGate
        )
    }
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Experiment scale.
    pub profile: Profile,
    /// Output directory for CSV/JSON (for [`Command::Bench`], `--out`
    /// may instead name the snapshot file — see
    /// [`Invocation::bench_snapshot_path`]).
    pub out_dir: PathBuf,
    /// What to run.
    pub command: Command,
    /// First input file: the run log for [`Command::TelemetryReport`]
    /// and [`Command::Dashboard`], the snapshot for
    /// [`Command::BenchHistoryAppend`] / [`Command::BenchHistoryGate`].
    pub input: Option<PathBuf>,
    /// Every input file, in order — [`Command::Dashboard`] accepts two
    /// or more run logs for the multi-run overlay mode.
    /// `inputs[0] == input` whenever both are set.
    pub inputs: Vec<PathBuf>,
    /// Event kinds that must appear in the log (`--require`).
    pub require: Vec<String>,
    /// Relative slowdown tolerance for [`Command::BenchHistoryGate`]
    /// (`--threshold PCT`, as a fraction: 0.25 = 25 %).
    pub threshold: f64,
    /// HTML output file for [`Command::Dashboard`] and
    /// [`Command::BenchHistoryReport`] (`--html`).
    pub html: Option<PathBuf>,
    /// History file for the `bench-history` actions (`--history`);
    /// defaults to [`DEFAULT_HISTORY_PATH`].
    pub history: Option<PathBuf>,
    /// Rolling-baseline window K for [`Command::BenchHistoryGate`]
    /// (`--window K`).
    pub window: usize,
    /// Result-cache directory (`--cache-dir`); enables the cache.
    pub cache_dir: Option<PathBuf>,
    /// `--no-cache`: never consult or write the result cache.
    pub no_cache: bool,
    /// `--resume`: enable the cache at its default location so a
    /// re-invocation skips already-completed cells.
    pub resume: bool,
}

/// Default `--threshold` for `bench-history gate`: 25 % — generous because the CI gate compares quick runs taken
/// seconds apart on a shared machine.
pub const DEFAULT_COMPARE_THRESHOLD: f64 = 0.25;

/// Default `--history` file for the `bench-history` actions. Lives
/// under `results/` so the standard `.gitignore` globs cover it.
pub const DEFAULT_HISTORY_PATH: &str = "results/BENCH_HISTORY.jsonl";

impl Invocation {
    /// The directory the result cache should use, or `None` when
    /// caching is disabled for this invocation.
    ///
    /// The cache is on iff `--cache-dir` or `--resume` was given and
    /// `--no-cache` was not; `--resume` without an explicit directory
    /// defaults to `<out_dir>/cache`.
    pub fn effective_cache_dir(&self) -> Option<PathBuf> {
        if self.no_cache {
            return None;
        }
        match (&self.cache_dir, self.resume) {
            (Some(dir), _) => Some(dir.clone()),
            (None, true) => Some(self.out_dir.join("cache")),
            (None, false) => None,
        }
    }

    /// The history file the `bench-history` actions operate on:
    /// `--history` when given, [`DEFAULT_HISTORY_PATH`] otherwise.
    pub fn history_path(&self) -> PathBuf {
        self.history.clone().unwrap_or_else(|| PathBuf::from(DEFAULT_HISTORY_PATH))
    }

    /// Where [`Command::Bench`] writes its snapshot: `--out` names the
    /// file directly when it ends in `.json`, otherwise it is treated
    /// as a directory and the snapshot lands at `<out>/BENCH.json`.
    pub fn bench_snapshot_path(&self) -> PathBuf {
        if self.out_dir.extension().is_some_and(|e| e == "json") {
            self.out_dir.clone()
        } else {
            self.out_dir.join("BENCH.json")
        }
    }
}

/// Usage string printed on parse errors.
pub const USAGE: &str = "usage: experiments [--quick] [--out DIR] \
[--cache-dir DIR] [--resume] [--no-cache] \
<fig2|fig3|fig4|fig5|fig6|fig7|headline|regret|rounding|stepsize|aggregation|oracle|fairness|bandwidth|dropout|replicate|all>\n\
       experiments telemetry-report FILE [--require kind1,kind2,...]\n\
       experiments bench [--quick] [--out FILE.json|DIR]  (incl. scale/ kernels: 10k tier quick, +100k/1m paper)\n\
       experiments bench-history append SNAP.json [--history FILE]\n\
       experiments bench-history report [--history FILE] [--html FILE.html]\n\
       experiments bench-history gate NEW.json [--history FILE] [--window K] [--threshold PCT]\n\
       experiments dashboard RUN.jsonl [RUN2.jsonl ...] [--html FILE.html]\n\
       experiments trace-report COORD.jsonl [WORKER.jsonl ...] [--html FILE.html]\n\
       experiments stats --addr HOST:PORT [options]    (live registry snapshot from a coordinator)\n\
       experiments serve --addr HOST:PORT [options]    (federation service; see docs/SERVE.md)\n\
       experiments loadgen --addr HOST:PORT [options]  (replay clients against a server)";

/// Parses the argument list (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, String> {
    let mut profile = Profile::Paper;
    let mut out_dir = PathBuf::from("results");
    let mut command: Option<Command> = None;
    let mut input: Option<PathBuf> = None;
    let mut require: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_COMPARE_THRESHOLD;
    let mut threshold_given = false;
    let mut html: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut resume = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut history: Option<PathBuf> = None;
    let mut window = crate::history::DEFAULT_BASELINE_WINDOW;
    let mut window_given = false;
    // `bench-history` is a two-word command: the flag marks that the
    // action word (`append` / `report` / `gate`) is still pending.
    let mut history_action_pending = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => profile = Profile::Quick,
            "--out" => {
                out_dir = PathBuf::from(
                    it.next().ok_or_else(|| "--out requires a directory".to_string())?,
                );
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--cache-dir requires a directory".to_string())?,
                ));
            }
            "--no-cache" => no_cache = true,
            "--resume" => resume = true,
            "--require" => {
                let list = it
                    .next()
                    .ok_or_else(|| "--require needs a comma-separated kind list".to_string())?;
                require.extend(list.split(',').filter(|k| !k.is_empty()).map(str::to_string));
            }
            "--threshold" => {
                let pct =
                    it.next().ok_or_else(|| "--threshold requires a percentage".to_string())?;
                let pct: f64 =
                    pct.parse().map_err(|_| format!("--threshold: not a number: {pct}"))?;
                if !(pct > 0.0 && pct.is_finite()) {
                    return Err("--threshold must be a positive percentage".to_string());
                }
                threshold = pct / 100.0;
                threshold_given = true;
            }
            "--html" => {
                html = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--html requires a file".to_string())?,
                ));
            }
            "--history" => {
                history = Some(PathBuf::from(
                    it.next().ok_or_else(|| "--history requires a file".to_string())?,
                ));
            }
            "--window" => {
                let k = it.next().ok_or_else(|| "--window requires an entry count".to_string())?;
                let k: usize = k.parse().map_err(|_| format!("--window: not a number: {k}"))?;
                if k == 0 {
                    return Err("--window must be at least 1".to_string());
                }
                window = k;
                window_given = true;
            }
            other if history_action_pending => {
                history_action_pending = false;
                command = Some(match other {
                    "append" => Command::BenchHistoryAppend,
                    "report" => Command::BenchHistoryReport,
                    "gate" => Command::BenchHistoryGate,
                    unknown => {
                        return Err(format!(
                            "unknown bench-history action: {unknown} (expected append, report, or gate)"
                        ))
                    }
                });
            }
            other if command.is_none() => {
                if other == "bench-history" {
                    history_action_pending = true;
                    continue;
                }
                command = Some(match other {
                    "fig2" | "fig4" => Command::FigFmnist,
                    "fig3" | "fig5" => Command::FigCifar,
                    "fig6" => Command::Fig6,
                    "fig7" => Command::Fig7,
                    "headline" => Command::Headline,
                    "regret" => Command::Regret,
                    "rounding" => Command::Rounding,
                    "stepsize" => Command::Stepsize,
                    "aggregation" => Command::Aggregation,
                    "oracle" => Command::Oracle,
                    "fairness" => Command::Fairness,
                    "bandwidth" => Command::Bandwidth,
                    "dropout" => Command::Dropout,
                    "replicate" => Command::Replicate,
                    "all" => Command::All,
                    "telemetry-report" => Command::TelemetryReport,
                    "bench" => Command::Bench,
                    "dashboard" => Command::Dashboard,
                    "trace-report" => Command::TraceReport,
                    unknown => return Err(format!("unknown experiment: {unknown}")),
                });
            }
            other if matches!(command, Some(Command::Dashboard) | Some(Command::TraceReport)) => {
                inputs.push(PathBuf::from(other));
            }
            other
                if matches!(
                    command,
                    Some(Command::TelemetryReport)
                        | Some(Command::BenchHistoryAppend)
                        | Some(Command::BenchHistoryGate)
                ) && input.is_none() =>
            {
                input = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if history_action_pending {
        return Err("bench-history requires an action: append, report, or gate".to_string());
    }
    let command = command.ok_or_else(|| USAGE.to_string())?;
    if command == Command::Dashboard {
        if inputs.is_empty() {
            return Err(
                "dashboard requires a JSONL run-log file (one, or several to overlay)".to_string()
            );
        }
        input = inputs.first().cloned();
    }
    if command == Command::TraceReport {
        if inputs.is_empty() {
            return Err("trace-report requires a coordinator JSONL run log \
                        (plus any worker logs to merge)"
                .to_string());
        }
        input = inputs.first().cloned();
    }
    if command == Command::TelemetryReport && input.is_none() {
        return Err("telemetry-report requires a JSONL run-log file".to_string());
    }
    if command == Command::BenchHistoryAppend && input.is_none() {
        return Err("bench-history append requires a BENCH.json snapshot".to_string());
    }
    if command == Command::BenchHistoryGate && input.is_none() {
        return Err("bench-history gate requires a NEW.json snapshot".to_string());
    }
    if command != Command::TelemetryReport && !require.is_empty() {
        return Err("--require only applies to telemetry-report".to_string());
    }
    if threshold_given && command != Command::BenchHistoryGate {
        return Err("--threshold only applies to bench-history gate".to_string());
    }
    if html.is_some()
        && !matches!(
            command,
            Command::Dashboard | Command::BenchHistoryReport | Command::TraceReport
        )
    {
        return Err(
            "--html only applies to dashboard, trace-report, and bench-history report".to_string()
        );
    }
    if history.is_some() && !command.is_bench_history() {
        return Err("--history only applies to the bench-history actions".to_string());
    }
    if window_given && command != Command::BenchHistoryGate {
        return Err("--window only applies to bench-history gate".to_string());
    }
    if !command.takes_cache() && (cache_dir.is_some() || no_cache || resume) {
        return Err("cache flags do not apply to this command".to_string());
    }
    Ok(Invocation {
        profile,
        out_dir,
        command,
        input,
        inputs,
        require,
        threshold,
        html,
        history,
        window,
        cache_dir,
        no_cache,
        resume,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_to_paper_profile_and_results_dir() {
        let inv = parse(args(&["fig2"])).unwrap();
        assert_eq!(inv.profile, Profile::Paper);
        assert_eq!(inv.out_dir, PathBuf::from("results"));
        assert_eq!(inv.command, Command::FigFmnist);
    }

    #[test]
    fn quick_and_out_flags() {
        let inv = parse(args(&["--quick", "--out", "/tmp/x", "fig7"])).unwrap();
        assert_eq!(inv.profile, Profile::Quick);
        assert_eq!(inv.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(inv.command, Command::Fig7);
    }

    #[test]
    fn flag_order_is_free() {
        let inv = parse(args(&["headline", "--quick"]));
        // Command first, flags after: flags still apply.
        let inv = inv.unwrap();
        assert_eq!(inv.profile, Profile::Quick);
        assert_eq!(inv.command, Command::Headline);
    }

    #[test]
    fn fig_aliases_collapse() {
        assert_eq!(parse(args(&["fig2"])).unwrap().command, Command::FigFmnist);
        assert_eq!(parse(args(&["fig4"])).unwrap().command, Command::FigFmnist);
        assert_eq!(parse(args(&["fig3"])).unwrap().command, Command::FigCifar);
        assert_eq!(parse(args(&["fig5"])).unwrap().command, Command::FigCifar);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(args(&[])).unwrap_err().contains("usage"));
        assert!(parse(args(&["frobnicate"])).unwrap_err().contains("unknown experiment"));
        assert!(parse(args(&["--out"])).unwrap_err().contains("--out requires"));
        assert!(parse(args(&["fig2", "fig3"])).unwrap_err().contains("unexpected"));
    }

    #[test]
    fn telemetry_report_takes_a_file_and_required_kinds() {
        let inv = parse(args(&[
            "telemetry-report",
            "results/run.jsonl",
            "--require",
            "run_start,epoch,run_end",
        ]))
        .unwrap();
        assert_eq!(inv.command, Command::TelemetryReport);
        assert_eq!(inv.input, Some(PathBuf::from("results/run.jsonl")));
        assert_eq!(inv.require, vec!["run_start", "epoch", "run_end"]);
    }

    #[test]
    fn telemetry_report_rejects_bad_shapes() {
        assert!(parse(args(&["telemetry-report"]))
            .unwrap_err()
            .contains("requires a JSONL run-log file"));
        assert!(parse(args(&["telemetry-report", "a.jsonl", "b.jsonl"]))
            .unwrap_err()
            .contains("unexpected"));
        assert!(parse(args(&["fig2", "--require", "epoch"]))
            .unwrap_err()
            .contains("only applies to telemetry-report"));
        assert!(parse(args(&["telemetry-report", "a.jsonl", "--require"]))
            .unwrap_err()
            .contains("--require needs"));
    }

    #[test]
    fn cache_is_off_by_default() {
        let inv = parse(args(&["fig2"])).unwrap();
        assert_eq!(inv.cache_dir, None);
        assert!(!inv.no_cache && !inv.resume);
        assert_eq!(inv.effective_cache_dir(), None);
    }

    #[test]
    fn cache_dir_flag_enables_the_cache() {
        let inv = parse(args(&["--cache-dir", "/tmp/c", "fig2"])).unwrap();
        assert_eq!(inv.effective_cache_dir(), Some(PathBuf::from("/tmp/c")));
    }

    #[test]
    fn resume_defaults_the_cache_under_out_dir() {
        let inv = parse(args(&["--resume", "--out", "/tmp/r", "fig6"])).unwrap();
        assert_eq!(inv.effective_cache_dir(), Some(PathBuf::from("/tmp/r/cache")));
        // An explicit directory wins over the default.
        let inv = parse(args(&["--resume", "--cache-dir", "/tmp/c", "fig6"])).unwrap();
        assert_eq!(inv.effective_cache_dir(), Some(PathBuf::from("/tmp/c")));
    }

    #[test]
    fn no_cache_overrides_everything() {
        let inv = parse(args(&["--no-cache", "--resume", "--cache-dir", "/tmp/c", "all"])).unwrap();
        assert_eq!(inv.effective_cache_dir(), None);
    }

    #[test]
    fn cache_flags_are_rejected_for_telemetry_report() {
        for flags in [&["--resume"][..], &["--no-cache"], &["--cache-dir", "/tmp/c"]] {
            let mut a = vec!["telemetry-report", "run.jsonl"];
            a.extend_from_slice(flags);
            assert!(
                parse(args(&a)).unwrap_err().contains("do not apply"),
                "{flags:?} should be rejected"
            );
        }
        assert!(parse(args(&["fig2", "--cache-dir"]))
            .unwrap_err()
            .contains("--cache-dir requires"));
    }

    #[test]
    fn bench_resolves_out_to_file_or_directory() {
        let inv = parse(args(&["bench", "--quick"])).unwrap();
        assert_eq!(inv.command, Command::Bench);
        assert_eq!(inv.profile, Profile::Quick);
        assert_eq!(inv.bench_snapshot_path(), PathBuf::from("results/BENCH.json"));
        // --out ending in .json names the snapshot file itself...
        let inv = parse(args(&["bench", "--out", "results/BENCH_quick.json"])).unwrap();
        assert_eq!(inv.bench_snapshot_path(), PathBuf::from("results/BENCH_quick.json"));
        // ...anything else is a directory.
        let inv = parse(args(&["bench", "--out", "/tmp/perf"])).unwrap();
        assert_eq!(inv.bench_snapshot_path(), PathBuf::from("/tmp/perf/BENCH.json"));
    }

    #[test]
    fn threshold_rejects_bad_values_and_foreign_commands() {
        assert!(parse(args(&["bench-history", "gate", "a.json", "--threshold", "x"]))
            .unwrap_err()
            .contains("not a number"));
        assert!(parse(args(&["bench-history", "gate", "a.json", "--threshold", "-5"]))
            .unwrap_err()
            .contains("positive percentage"));
        assert!(parse(args(&["fig2", "--threshold", "10"]))
            .unwrap_err()
            .contains("only applies to bench-history gate"));
    }

    #[test]
    fn dashboard_takes_a_log_and_optional_html() {
        let inv = parse(args(&["dashboard", "run.jsonl"])).unwrap();
        assert_eq!(inv.command, Command::Dashboard);
        assert_eq!(inv.input, Some(PathBuf::from("run.jsonl")));
        assert_eq!(inv.html, None);
        let inv = parse(args(&["dashboard", "run.jsonl", "--html", "dash.html"])).unwrap();
        assert_eq!(inv.html, Some(PathBuf::from("dash.html")));
        assert!(parse(args(&["dashboard"])).unwrap_err().contains("requires a JSONL run-log file"));
        assert!(parse(args(&["fig2", "--html", "x.html"]))
            .unwrap_err()
            .contains("only applies to dashboard"));
    }

    #[test]
    fn dashboard_accepts_multiple_logs_for_the_overlay_mode() {
        let inv = parse(args(&["dashboard", "a.jsonl", "b.jsonl", "c.jsonl"])).unwrap();
        assert_eq!(inv.command, Command::Dashboard);
        assert_eq!(
            inv.inputs,
            vec![PathBuf::from("a.jsonl"), PathBuf::from("b.jsonl"), PathBuf::from("c.jsonl")]
        );
        assert_eq!(inv.input, Some(PathBuf::from("a.jsonl")), "first log mirrors input");
        let inv = parse(args(&["dashboard", "a.jsonl", "b.jsonl", "--html", "o.html"])).unwrap();
        assert_eq!(inv.inputs.len(), 2);
        assert_eq!(inv.html, Some(PathBuf::from("o.html")));
    }

    #[test]
    fn bench_history_append_takes_a_snapshot_and_optional_history() {
        let inv = parse(args(&["bench-history", "append", "BENCH.json"])).unwrap();
        assert_eq!(inv.command, Command::BenchHistoryAppend);
        assert_eq!(inv.input, Some(PathBuf::from("BENCH.json")));
        assert_eq!(inv.history, None);
        assert_eq!(inv.history_path(), PathBuf::from(DEFAULT_HISTORY_PATH));
        let inv =
            parse(args(&["bench-history", "append", "BENCH.json", "--history", "/tmp/h.jsonl"]))
                .unwrap();
        assert_eq!(inv.history_path(), PathBuf::from("/tmp/h.jsonl"));
    }

    #[test]
    fn bench_history_report_takes_optional_html() {
        let inv = parse(args(&["bench-history", "report"])).unwrap();
        assert_eq!(inv.command, Command::BenchHistoryReport);
        assert_eq!(inv.html, None);
        let inv = parse(args(&["bench-history", "report", "--html", "trend.html"])).unwrap();
        assert_eq!(inv.html, Some(PathBuf::from("trend.html")));
    }

    #[test]
    fn bench_history_gate_takes_window_and_threshold() {
        let inv = parse(args(&["bench-history", "gate", "NEW.json"])).unwrap();
        assert_eq!(inv.command, Command::BenchHistoryGate);
        assert_eq!(inv.input, Some(PathBuf::from("NEW.json")));
        assert_eq!(inv.window, crate::history::DEFAULT_BASELINE_WINDOW);
        assert_eq!(inv.threshold, DEFAULT_COMPARE_THRESHOLD);
        let inv = parse(args(&[
            "bench-history",
            "gate",
            "NEW.json",
            "--window",
            "9",
            "--threshold",
            "40",
        ]))
        .unwrap();
        assert_eq!(inv.window, 9);
        assert!((inv.threshold - 0.40).abs() < 1e-12);
    }

    #[test]
    fn bench_history_rejects_bad_shapes() {
        assert!(parse(args(&["bench-history"])).unwrap_err().contains("requires an action"));
        assert!(parse(args(&["bench-history", "frobnicate"]))
            .unwrap_err()
            .contains("unknown bench-history action"));
        assert!(parse(args(&["bench-history", "append"]))
            .unwrap_err()
            .contains("requires a BENCH.json snapshot"));
        assert!(parse(args(&["bench-history", "gate"]))
            .unwrap_err()
            .contains("requires a NEW.json snapshot"));
        assert!(parse(args(&["bench-history", "report", "extra.json"]))
            .unwrap_err()
            .contains("unexpected"));
        assert!(parse(args(&["bench-history", "gate", "a.json", "b.json"]))
            .unwrap_err()
            .contains("unexpected"));
        assert!(parse(args(&["bench-history", "gate", "a.json", "--window", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(args(&["bench-history", "gate", "a.json", "--window", "x"]))
            .unwrap_err()
            .contains("not a number"));
        assert!(parse(args(&["bench-history", "append", "a.json", "--window", "3"]))
            .unwrap_err()
            .contains("only applies to bench-history gate"));
        assert!(parse(args(&["fig2", "--history", "h.jsonl"]))
            .unwrap_err()
            .contains("only applies to the bench-history actions"));
        // --threshold belongs to the gate alone, and --html also serves
        // the trend report.
        assert!(parse(args(&["bench-history", "append", "a.json", "--threshold", "10"]))
            .unwrap_err()
            .contains("only applies to bench-history gate"));
        assert!(parse(args(&["bench-history", "gate", "a.json", "--html", "x.html"]))
            .unwrap_err()
            .contains("only applies to dashboard, trace-report, and bench-history report"));
    }

    #[test]
    fn trace_report_takes_coordinator_plus_worker_logs_and_optional_html() {
        let inv = parse(args(&["trace-report", "coord.jsonl"])).unwrap();
        assert_eq!(inv.command, Command::TraceReport);
        assert_eq!(inv.input, Some(PathBuf::from("coord.jsonl")));
        assert_eq!(inv.inputs, vec![PathBuf::from("coord.jsonl")]);
        let inv = parse(args(&[
            "trace-report",
            "coord.jsonl",
            "coord.worker-0.jsonl",
            "coord.worker-1.jsonl",
            "--html",
            "trace.html",
        ]))
        .unwrap();
        assert_eq!(inv.inputs.len(), 3);
        assert_eq!(inv.input, Some(PathBuf::from("coord.jsonl")), "first log mirrors input");
        assert_eq!(inv.html, Some(PathBuf::from("trace.html")));
    }

    #[test]
    fn trace_report_rejects_bad_shapes() {
        assert!(parse(args(&["trace-report"]))
            .unwrap_err()
            .contains("requires a coordinator JSONL run log"));
        assert!(parse(args(&["trace-report", "coord.jsonl", "--resume"]))
            .unwrap_err()
            .contains("do not apply"));
        assert!(parse(args(&["trace-report", "coord.jsonl", "--require", "epoch"]))
            .unwrap_err()
            .contains("only applies to telemetry-report"));
    }

    #[test]
    fn cache_flags_are_rejected_for_observatory_commands() {
        for cmd in [
            &["bench"][..],
            &["bench-history", "append", "a.json"],
            &["bench-history", "report"],
            &["bench-history", "gate", "a.json"],
            &["dashboard", "run.jsonl"],
            &["trace-report", "coord.jsonl"],
        ] {
            let mut a = cmd.to_vec();
            a.push("--resume");
            assert!(
                parse(args(&a)).unwrap_err().contains("do not apply"),
                "{cmd:?} should reject cache flags"
            );
        }
    }

    #[test]
    fn every_named_command_parses() {
        for (name, cmd) in [
            ("fig6", Command::Fig6),
            ("regret", Command::Regret),
            ("rounding", Command::Rounding),
            ("stepsize", Command::Stepsize),
            ("aggregation", Command::Aggregation),
            ("oracle", Command::Oracle),
            ("fairness", Command::Fairness),
            ("bandwidth", Command::Bandwidth),
            ("dropout", Command::Dropout),
            ("replicate", Command::Replicate),
            ("all", Command::All),
        ] {
            assert_eq!(parse(args(&[name])).unwrap().command, cmd, "{name}");
        }
    }
}
