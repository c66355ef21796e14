//! CLI over the figure/ablation entry points. See [`fedl_bench::cli`]
//! for the grammar; this binary only dispatches.

use std::process::ExitCode;

use fedl_bench::cli::{self, Command};
use fedl_bench::experiments;
use fedl_bench::harness::RunCache;
use fedl_bench::history::{self, BenchHistory, HistoryEntry};
use fedl_bench::perf::{self, BenchSnapshot};
use fedl_data::synth::TaskKind;
use fedl_telemetry::{dashboard, log_line, RunLog, Telemetry};

/// Loads a JSONL run log, prints the per-phase timing report, and fails
/// when any `--require`d event kind is absent.
fn telemetry_report(invocation: &cli::Invocation) -> ExitCode {
    let path = invocation.input.as_deref().expect("parser guarantees a file");
    let log = match RunLog::read(path) {
        Ok(log) => log,
        Err(err) => {
            eprintln!("failed to load run log {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", log.render_report());
    let required: Vec<&str> = invocation.require.iter().map(String::as_str).collect();
    let missing = log.missing_kinds(&required);
    if !missing.is_empty() {
        eprintln!("run log is missing required event kinds: {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs the perf-snapshot suite and writes `BENCH.json`.
fn bench(invocation: &cli::Invocation) -> ExitCode {
    let snapshot = perf::run_suite(invocation.profile);
    let path = invocation.bench_snapshot_path();
    if let Err(err) = snapshot.write(&path) {
        eprintln!("failed to write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    log_line!("wrote perf snapshot: {} ({} kernels)", path.display(), snapshot.kernels.len());
    ExitCode::SUCCESS
}

/// Writes `text` to `path`, creating parent directories.
fn write_html(path: &std::path::Path, text: String) -> ExitCode {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(err) = std::fs::create_dir_all(dir) {
                eprintln!("failed to create {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(err) = std::fs::write(path, text) {
        eprintln!("failed to write {}: {err}", path.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Renders the per-client attribution dashboard (ASCII, plus a
/// self-contained HTML file with `--html`). Two or more run logs
/// switch to the multi-run overlay mode: per-policy summary table,
/// overlaid regret curves and budget burn-down.
fn dashboard(invocation: &cli::Invocation) -> ExitCode {
    let mut runs: Vec<(String, RunLog)> = Vec::new();
    for path in &invocation.inputs {
        let log = match RunLog::read(path) {
            Ok(log) => log,
            Err(err) => {
                eprintln!("failed to load run log {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let stem = path
            .file_stem()
            .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
        runs.push((stem, log));
    }
    let html = if runs.len() == 1 {
        let (_, log) = &runs[0];
        print!("{}", log.render_client_table());
        dashboard::render_html(log)
    } else {
        match dashboard::render_overlay_table(&runs) {
            Ok(table) => print!("{table}"),
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        }
        match dashboard::render_overlay_html(&runs) {
            Ok(html) => html,
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(html_path) = &invocation.html {
        if write_html(html_path, html) == ExitCode::FAILURE {
            return ExitCode::FAILURE;
        }
        log_line!("wrote dashboard: {}", html_path.display());
    }
    ExitCode::SUCCESS
}

/// Merges a coordinator run log with its per-worker sibling logs into
/// one causally-ordered cross-process trace: linkage rate, per-epoch
/// waterfall, and critical-path attribution (ASCII, plus a
/// self-contained HTML file with `--html`).
fn trace_report(invocation: &cli::Invocation) -> ExitCode {
    let mut runs: Vec<(String, RunLog)> = Vec::new();
    for path in &invocation.inputs {
        let log = match RunLog::read(path) {
            Ok(log) => log,
            Err(err) => {
                eprintln!("failed to load run log {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let stem = path
            .file_stem()
            .map_or_else(|| path.display().to_string(), |s| s.to_string_lossy().into_owned());
        runs.push((stem, log));
    }
    match fedl_telemetry::render_trace_report(&runs) {
        Ok(text) => print!("{text}"),
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(html_path) = &invocation.html {
        let html = match fedl_telemetry::render_trace_html(&runs) {
            Ok(html) => html,
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        };
        if write_html(html_path, html) == ExitCode::FAILURE {
            return ExitCode::FAILURE;
        }
        log_line!("wrote trace report: {}", html_path.display());
    }
    ExitCode::SUCCESS
}

/// The `bench-history` actions: append a snapshot to the history file,
/// render the trend report, or gate a snapshot against the rolling
/// baseline (docs/OBSERVATORY.md).
fn bench_history(invocation: &cli::Invocation) -> ExitCode {
    let history_path = invocation.history_path();
    match invocation.command {
        Command::BenchHistoryAppend => {
            let snap_path = invocation.input.as_deref().expect("parser guarantees a snapshot");
            let snapshot = match BenchSnapshot::read(snap_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let entry = HistoryEntry::capture(snapshot);
            if let Err(err) = BenchHistory::append(&history_path, &entry) {
                eprintln!("failed to append to {}: {err}", history_path.display());
                return ExitCode::FAILURE;
            }
            log_line!(
                "appended snapshot ({} kernels, {}, commit {}) to {}",
                entry.snapshot.kernels.len(),
                entry.fingerprint,
                entry.commit,
                history_path.display()
            );
            ExitCode::SUCCESS
        }
        Command::BenchHistoryReport => {
            let history = match BenchHistory::load(&history_path) {
                Ok(h) => h,
                Err(err) => {
                    eprintln!("failed to read {}: {err}", history_path.display());
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", history::render_trend_table(&history, history::DEFAULT_BASELINE_WINDOW));
            if let Some(html_path) = &invocation.html {
                let html = history::render_trend_html(&history);
                if write_html(html_path, html) == ExitCode::FAILURE {
                    return ExitCode::FAILURE;
                }
                log_line!("wrote trend report: {}", html_path.display());
            }
            ExitCode::SUCCESS
        }
        Command::BenchHistoryGate => {
            let snap_path = invocation.input.as_deref().expect("parser guarantees a snapshot");
            let snapshot = match BenchSnapshot::read(snap_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let history = match BenchHistory::load(&history_path) {
                Ok(h) => h,
                Err(err) => {
                    eprintln!("failed to read {}: {err}", history_path.display());
                    return ExitCode::FAILURE;
                }
            };
            let report =
                history::gate(&history, &snapshot, invocation.window, invocation.threshold);
            print!("{}", report.render());
            if report.passes() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perf regression: at least one kernel slowed down beyond {:.0} % and \
                     its noise band vs the rolling baseline",
                    invocation.threshold * 100.0
                );
                ExitCode::FAILURE
            }
        }
        _ => unreachable!("bench_history only handles the bench-history actions"),
    }
}

/// Maps a service subcommand result onto an exit code.
fn service_exit(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The federation service has its own flag grammar (fedl-serve);
    // route its subcommands before the figure-CLI parser.
    match args.first().map(String::as_str) {
        Some("serve") => return service_exit(fedl_serve::cli::run_serve(&args[1..])),
        Some("loadgen") => return service_exit(fedl_serve::cli::run_loadgen_cli(&args[1..])),
        Some("dist") => return service_exit(fedl_dist::cli::run_dist(&args[1..])),
        Some("dist-worker") => return service_exit(fedl_dist::cli::run_dist_worker(&args[1..])),
        Some("stats") => return service_exit(fedl_serve::cli::run_stats(&args[1..])),
        _ => {}
    }
    let invocation = match cli::parse(args) {
        Ok(inv) => inv,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match invocation.command {
        Command::TelemetryReport => return telemetry_report(&invocation),
        Command::Bench => return bench(&invocation),
        Command::BenchHistoryAppend | Command::BenchHistoryReport | Command::BenchHistoryGate => {
            return bench_history(&invocation)
        }
        Command::Dashboard => return dashboard(&invocation),
        Command::TraceReport => return trace_report(&invocation),
        _ => {}
    }
    let (profile, out_dir) = (invocation.profile, invocation.out_dir.clone());
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    log_line!(
        "profile: {:?} (M={}, n={}), output: {}",
        profile,
        profile.num_clients(),
        profile.min_participants(),
        out_dir.display()
    );

    // The result cache (--cache-dir/--resume): completed figure cells
    // are served from disk, with cache.hit/cache.miss telemetry
    // streamed to <out_dir>/cache_run.jsonl for telemetry-report.
    let cache_telemetry = invocation.effective_cache_dir().map(|dir| {
        let tel = Telemetry::to_file(out_dir.join("cache_run.jsonl"))
            .expect("create cache telemetry log");
        let cache = RunCache::open(&dir).expect("open result cache").with_telemetry(tel.clone());
        log_line!("result cache: {}", cache.dir().display());
        (cache, tel)
    });
    let cache = cache_telemetry.as_ref().map(|(c, _)| c);

    match invocation.command {
        Command::FigFmnist => {
            experiments::fig_time_and_round(profile, TaskKind::FmnistLike, &out_dir, cache);
        }
        Command::FigCifar => {
            experiments::fig_time_and_round(profile, TaskKind::CifarLike, &out_dir, cache);
        }
        Command::Fig6 => {
            experiments::fig_budget(profile, TaskKind::FmnistLike, &out_dir, cache);
        }
        Command::Fig7 => {
            experiments::fig_budget(profile, TaskKind::CifarLike, &out_dir, cache);
        }
        Command::Headline => experiments::headline(profile, &out_dir, cache),
        Command::Regret => experiments::regret(profile, &out_dir),
        Command::Rounding => experiments::rounding_ablation(profile),
        Command::Stepsize => experiments::stepsize_ablation(profile),
        Command::Aggregation => experiments::aggregation_ablation(profile),
        Command::Oracle => experiments::oracle_comparison(profile),
        Command::Fairness => experiments::fairness_study(profile),
        Command::Bandwidth => experiments::bandwidth_study(profile),
        Command::Dropout => experiments::dropout_study(profile),
        Command::Replicate => experiments::replication_study(profile),
        Command::All => {
            let mut results =
                experiments::fig_time_and_round(profile, TaskKind::FmnistLike, &out_dir, cache);
            results.extend(experiments::fig_time_and_round(
                profile,
                TaskKind::CifarLike,
                &out_dir,
                cache,
            ));
            experiments::headline_from(&results, &out_dir);
            experiments::fig_budget(profile, TaskKind::FmnistLike, &out_dir, cache);
            experiments::fig_budget(profile, TaskKind::CifarLike, &out_dir, cache);
            experiments::regret(profile, &out_dir);
            experiments::rounding_ablation(profile);
            experiments::stepsize_ablation(profile);
            experiments::aggregation_ablation(profile);
            experiments::oracle_comparison(profile);
            experiments::fairness_study(profile);
            experiments::bandwidth_study(profile);
            experiments::dropout_study(profile);
            experiments::replication_study(profile);
        }
        Command::TelemetryReport
        | Command::Bench
        | Command::BenchHistoryAppend
        | Command::BenchHistoryReport
        | Command::BenchHistoryGate
        | Command::Dashboard
        | Command::TraceReport => {
            unreachable!("dispatched before the experiment match")
        }
    }
    if let Some((_, tel)) = &cache_telemetry {
        tel.emit_metrics();
        tel.flush();
    }
    ExitCode::SUCCESS
}
